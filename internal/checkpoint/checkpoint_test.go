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

// TestModelWeightsArePinned pins the bits of a freshly built model: the
// SHA-256 of SaveModel(model.New(seed, cfg)) for both families and a
// perf-mid-shaped OPT, at one worker and at four. Every parameter draws
// from its own stream, so a construction change that reorders one
// layer's Split() or fills a tensor from the wrong stream fails here.
func TestModelWeightsArePinned(t *testing.T) {
	prev := tensor.Parallelism()
	defer tensor.SetParallelism(prev)

	perfMid := model.Config{
		Name: "perf-mid", Family: model.FamilyOPT,
		Vocab: 96, Dim: 128, Layers: 4, Heads: 4, FFN: 512, MaxSeq: 128,
	}
	cases := []struct {
		cfg  model.Config
		seed uint64
		want string
	}{
		{model.OPTTiny(), 42, "ad7859a6924e7f9ad7d60b813cbe6a8a62e612a4b5702c88766c63b896ed2680"},
		{model.LlamaTiny(), 42, "704de027aaffd934a69f908a70060ccf482ea37353b7830241fafdffa18e1889"},
		{perfMid, 7, "9937254ffcd254346c40446edfa268da500adfa96bea7ec279e4564f73114204"},
	}
	for _, par := range []int{1, 4} {
		tensor.SetParallelism(par)
		for _, c := range cases {
			m, err := model.New(tensor.NewRNG(c.seed), c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := SaveModel(&buf, m); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.want {
				t.Errorf("%s seed %d at parallelism %d: weights sha256 = %s, want %s",
					c.cfg.Name, c.seed, par, got, c.want)
			}
		}
	}
}

// TestSectionsLoadFromTheFullModelsFile: a client's sections-only model,
// built with no fill, loads its parameters bit-for-bit from the full
// model's weights file, and checks every record it skips: a truncated
// file, a renamed, mis-shaped or missing record is refused whether it
// belongs to the sections or to the body the client does not hold.
func TestSectionsLoadFromTheFullModelsFile(t *testing.T) {
	cfg := model.OPTTiny()
	full, err := model.New(tensor.NewRNG(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fullParams, err := full.BaseParams()
	if err != nil {
		t.Fatal(err)
	}
	save := func(params []nn.Param) []byte {
		var buf bytes.Buffer
		if err := Save(&buf, params); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	file := save(fullParams)
	loadSections := func(raw []byte, cut int) (*model.Transformer, error) {
		m, err := model.NewSections(nil, cfg, cut)
		if err != nil {
			t.Fatal(err)
		}
		return m, LoadModel(bytes.NewReader(raw), m)
	}

	byName := make(map[string]*tensor.Tensor, len(fullParams))
	for _, p := range fullParams {
		byName[p.Name] = p.Value
	}
	for _, cut := range []int{1, cfg.Layers - 1} {
		m, err := model.NewSections(nil, cfg, cut)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range m.LMHead.W.Value.Data() {
			if v != 0 {
				t.Fatalf("cut %d: a structure-only model drew its LM head", cut)
			}
		}
		if m, err = loadSections(file, cut); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		params, err := m.BaseParams()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range params {
			for i, v := range p.Value.Data() {
				if v != byName[p.Name].Data()[i] {
					t.Fatalf("cut %d: %s[%d] = %v after the load, want %v", cut, p.Name, i, v, byName[p.Name].Data()[i])
				}
			}
		}
	}

	// Every refusal below is at cut 1: blocks 1..3 are the skipped body.
	edited := func(edit func(ps []nn.Param) []nn.Param) []byte {
		return save(edit(append([]nn.Param(nil), fullParams...)))
	}
	index := func(name string) int {
		for i, p := range fullParams {
			if p.Name == name {
				return i
			}
		}
		t.Fatalf("no record %s", name)
		return -1
	}
	rename := func(from, to string) []byte {
		return edited(func(ps []nn.Param) []nn.Param { ps[index(from)].Name = to; return ps })
	}
	body := index("block1.norm1.gamma")
	for _, c := range []struct {
		name string
		raw  []byte
	}{
		{"renamed held record", rename("embed.table", "embed.tabel")},
		{"renamed body record", rename("block2.attn.q.w", "block2.attn.x.w")},
		{"mis-shaped body record", edited(func(ps []nn.Param) []nn.Param {
			ps[index("block2.ffn.up.w")].Value = tensor.New(3, 3)
			return ps
		})},
		{"missing body record", edited(func(ps []nn.Param) []nn.Param {
			return append(ps[:index("block3.ffn.down.b")], ps[index("block3.ffn.down.b")+1:]...)
		})},
		{"duplicated body record", edited(func(ps []nn.Param) []nn.Param {
			ps[index("block3.ffn.down.b")] = ps[index("block3.ffn.up.b")]
			return ps
		})},
	} {
		if _, err := loadSections(c.raw, 1); !errors.Is(err, ErrMismatch) {
			t.Errorf("%s: err = %v, want ErrMismatch", c.name, err)
		}
	}
	// Truncated inside the values of the first body record, which the
	// sections skip, and inside the LM head, which they hold.
	offset := len(save(fullParams[:body]))
	for _, n := range []int{offset + 100, len(file) - 1} {
		if _, err := loadSections(file[:n], 1); err == nil {
			t.Errorf("a file truncated to %d of %d bytes loaded", n, len(file))
		}
	}
	if _, err := loadSections(file, 1); err != nil {
		t.Fatalf("the untouched file no longer loads: %v", err)
	}
}
