package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"menos/internal/obs"
	"menos/internal/share"
	"menos/internal/tensor"
)

// TestStagedSnapshotsExpire: a snapshot whose client never redials is
// swept once stagedLifetime has passed on the server's clock, so
// orphans cannot fill the stage and refuse every later migration, and
// an expired snapshot cannot be claimed.
func TestStagedSnapshotsExpire(t *testing.T) {
	store, err := share.NewStore(tensor.NewRNG(weightSeed), testModelCfg())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	var now time.Duration
	srv.clock = obs.ClockFunc(func() time.Duration { return now })
	admin := srv.AdminHandler()
	stage := func(token int) int {
		req := httptest.NewRequest(http.MethodPost,
			fmt.Sprintf("/admin/prepare?token=%d&client=c%d", token, token), bytes.NewReader([]byte("snapshot")))
		rec := httptest.NewRecorder()
		admin.ServeHTTP(rec, req)
		return rec.Code
	}

	// Orphans fill the stage: the next migration here is refused.
	for token := 1; token <= maxStaged; token++ {
		if code := stage(token); code != http.StatusOK {
			t.Fatalf("stage %d: status %d", token, code)
		}
	}
	if code := stage(maxStaged + 1); code != http.StatusTooManyRequests {
		t.Fatalf("stage past maxStaged: status %d, want 429", code)
	}

	// Just short of their lifetime they still hold the stage.
	now = stagedLifetime - time.Nanosecond
	if code := stage(maxStaged + 1); code != http.StatusTooManyRequests {
		t.Fatalf("stage before expiry: status %d, want 429", code)
	}

	// Once expired, staging sweeps them and succeeds.
	now = stagedLifetime
	if code := stage(maxStaged + 1); code != http.StatusOK {
		t.Fatalf("stage after expiry: status %d, want 200", code)
	}
	srv.mu.Lock()
	left := len(srv.staged)
	srv.mu.Unlock()
	if left != 1 {
		t.Fatalf("%d snapshots staged after the sweep, want 1", left)
	}

	// An expired snapshot is refused when claimed, a fresh one is not.
	if code := stage(maxStaged + 2); code != http.StatusOK {
		t.Fatalf("stage: status %d", code)
	}
	now += stagedLifetime
	if st := srv.takeStaged(maxStaged + 1); st != nil {
		t.Fatalf("claimed an expired snapshot: %+v", st)
	}
	if code := stage(maxStaged + 3); code != http.StatusOK {
		t.Fatalf("stage: status %d", code)
	}
	if st := srv.takeStaged(maxStaged + 3); st == nil || st.clientID != fmt.Sprintf("c%d", maxStaged+3) {
		t.Fatalf("claim of a fresh snapshot: %+v", st)
	}
}
