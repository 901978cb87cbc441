package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"menos/internal/adapter"
	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/tensor"
)

func testParams(t *testing.T, seed uint64) []nn.Param {
	t.Helper()
	rng := tensor.NewRNG(seed)
	return []nn.Param{
		nn.NewParam("a.w", tensor.NewNormal(rng, 1, 3, 4)),
		nn.NewParam("a.b", tensor.NewNormal(rng, 1, 4)),
		nn.NewParam("b.gamma", tensor.NewNormal(rng, 1, 7)),
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := testParams(t, 1)
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := testParams(t, 2) // different values, same structure
	if err := Load(&buf, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		for j := range src[i].Value.Data() {
			if src[i].Value.Data()[j] != dst[i].Value.Data()[j] {
				t.Fatalf("param %d element %d differs", i, j)
			}
		}
	}
}

func TestLoadCountMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, testParams(t, 1)); err != nil {
		t.Fatal(err)
	}
	short := testParams(t, 2)[:2]
	if err := Load(&buf, short); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestLoadNameMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, testParams(t, 1)); err != nil {
		t.Fatal(err)
	}
	renamed := testParams(t, 2)
	renamed[1].Name = "other"
	if err := Load(&buf, renamed); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestLoadShapeMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, testParams(t, 1)); err != nil {
		t.Fatal(err)
	}
	reshaped := testParams(t, 2)
	reshaped[0] = nn.NewParam("a.w", tensor.New(4, 3))
	if err := Load(&buf, reshaped); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestLoadCorruptMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, testParams(t, 1)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0] ^= 0xFF
	if err := Load(bytes.NewReader(raw), testParams(t, 2)); !errors.Is(err, ErrFormat) {
		t.Fatalf("err = %v", err)
	}
}

func TestLoadTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, testParams(t, 1)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if err := Load(bytes.NewReader(raw[:len(raw)-5]), testParams(t, 2)); err == nil {
		t.Fatal("truncated checkpoint loaded")
	}
}

func TestSaveNilValue(t *testing.T) {
	if err := Save(&bytes.Buffer{}, []nn.Param{{Name: "bad"}}); err == nil {
		t.Fatal("nil value saved")
	}
}

// TestFileRoundTrip: base weights written with SaveModelFile come back
// bit-for-bit through LoadModelFile (the path behind
// DeploymentConfig.WeightsFile); a missing file is an error.
func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.mcpk")
	src, err := model.New(tensor.NewRNG(3), model.OPTTiny())
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveModelFile(path, src); err != nil {
		t.Fatal(err)
	}
	dst, err := model.New(tensor.NewRNG(4), model.OPTTiny())
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadModelFile(path, dst); err != nil {
		t.Fatal(err)
	}
	want, err := src.BaseParams()
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.BaseParams()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j, v := range want[i].Value.Data() {
			if got[i].Value.Data()[j] != v {
				t.Fatalf("%s[%d] = %v after the round trip, want %v", want[i].Name, j, got[i].Value.Data()[j], v)
			}
		}
	}
	if err := LoadModelFile(filepath.Join(t.TempDir(), "missing"), dst); err == nil {
		t.Fatal("missing file loaded")
	}
}

// TestAdapterResume is the end-to-end use case: fine-tune, checkpoint
// the adapter, build a fresh model + adapter, restore, and verify the
// restored model computes identically.
func TestAdapterResume(t *testing.T) {
	cfg := model.Config{
		Name: "test", Family: model.FamilyOPT,
		Vocab: 13, Dim: 8, Layers: 3, Heads: 2, FFN: 16, MaxSeq: 16,
	}
	build := func() (*model.Transformer, adapter.Adapter) {
		m, err := model.New(tensor.NewRNG(10), cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetFrozenBase(true)
		ad, err := adapter.InjectLoRA(tensor.NewRNG(11), m.Blocks, adapter.DefaultLoRA())
		if err != nil {
			t.Fatal(err)
		}
		return m, ad
	}

	m1, ad1 := build()
	ids := []int{1, 2, 3, 4, 5, 6}
	targets := []int{2, 3, 4, 5, 6, 7}
	opt := nn.NewAdam(1e-2)
	for i := 0; i < 10; i++ {
		if _, err := m1.LossAndGrad(ids, targets, 1, 6); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(ad1.Params()); err != nil {
			t.Fatal(err)
		}
		nn.ZeroGrads(ad1.Params())
	}
	trainedLoss, err := m1.Loss(ids, targets, 1, 6)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := Save(&buf, ad1.Params()); err != nil {
		t.Fatal(err)
	}

	m2, ad2 := build()
	freshLoss, err := m2.Loss(ids, targets, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if freshLoss == trainedLoss {
		t.Fatal("fresh model coincidentally equals trained model")
	}
	if err := Load(&buf, ad2.Params()); err != nil {
		t.Fatal(err)
	}
	restoredLoss, err := m2.Loss(ids, targets, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if restoredLoss != trainedLoss {
		t.Fatalf("restored loss %v != trained loss %v", restoredLoss, trainedLoss)
	}
}

// failingWriter errors after n bytes, exercising write-error paths.
type failingWriter struct{ left int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.left <= 0 {
		return 0, errors.New("disk full")
	}
	n := len(p)
	if n > w.left {
		n = w.left
	}
	w.left -= n
	if n < len(p) {
		return n, errors.New("disk full")
	}
	return n, nil
}

func TestSaveWriteErrors(t *testing.T) {
	params := testParams(t, 30)
	// Fail at several byte offsets to hit header, name, shape, and
	// data write paths.
	for _, budget := range []int{0, 6, 14, 24, 60} {
		if err := Save(&failingWriter{left: budget}, params); err == nil {
			t.Fatalf("save with %d-byte budget succeeded", budget)
		}
	}
}

func TestLoadGarbageHeaders(t *testing.T) {
	// Too-short stream.
	if err := Load(bytes.NewReader([]byte{1, 2}), testParams(t, 31)); err == nil {
		t.Fatal("2-byte checkpoint loaded")
	}
	// Absurd parameter count.
	var buf bytes.Buffer
	if err := Save(&buf, testParams(t, 32)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[8], raw[9], raw[10], raw[11] = 0xFF, 0xFF, 0xFF, 0x7F
	if err := Load(bytes.NewReader(raw), testParams(t, 33)); !errors.Is(err, ErrFormat) {
		t.Fatalf("absurd count err = %v", err)
	}
}

func TestSaveFileBadPath(t *testing.T) {
	m, err := model.New(tensor.NewRNG(35), model.OPTTiny())
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveModelFile("/nonexistent-dir/x/y", m); err == nil {
		t.Fatal("bad model save path accepted")
	}
}

// TestSaveBytesArePinned pins Save's output byte for byte: the
// SHA-256 of a fixed parameter set's checkpoint, so a codec change that
// moves one byte of the format fails here before any round trip could
// hide it.
func TestSaveBytesArePinned(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, testParams(t, 1)); err != nil {
		t.Fatal(err)
	}
	const want = "51ad89557b8a039efff468974827690d58f99183753759e970e2b67ac81c44ff"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("Save output sha256 = %s, want %s (%d bytes)", got, want, buf.Len())
	}
}
