// Admin plane: the HTTP surface the control plane (menos-fleetd)
// drives migrations through. It is deliberately separate from the
// metrics Handler — metrics are safe to expose broadly, the admin
// plane mutates serving state — and the daemon mounts it under /admin/
// on the same mux only because both planes are loopback-scoped today.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"menos/internal/checkpoint"
	"menos/internal/fleet"
	"menos/internal/split"
)

const (
	// maxSnapshotBytes bounds a staged session snapshot (adapter
	// params + grads + optimizer slots; far below this for any
	// supported adapter).
	maxSnapshotBytes = 1 << 30
	// maxStaged bounds the number of snapshots parked at this server
	// awaiting their client's redial.
	maxStaged = 1024
	// stagedLifetime is how long a staged snapshot waits for its
	// client's redial, which follows the redirect within seconds. An
	// older one is an orphan: its redirect never reached the client, or
	// the client never redialed. Orphans are swept when the next
	// snapshot is staged and refused if claimed.
	stagedLifetime = 5 * time.Minute
)

// stagedSession is a snapshot parked at the target server between
// /admin/prepare and the client's resuming redial.
type stagedSession struct {
	clientID string
	data     []byte
	at       time.Duration // server clock reading when staged
}

// AdminHandler returns the server's control-plane surface:
//
//	POST /admin/migrate   fleet.MigrateOrder JSON: move a resident
//	                      session at its next iteration boundary
//	POST /admin/prepare   stage a session snapshot (raw body) under
//	                      ?token= and ?client= for a resuming redial
//	GET  /admin/sessions  resident session IDs and geometry
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /admin/migrate", s.handleAdminMigrate)
	mux.HandleFunc("POST /admin/prepare", s.handleAdminPrepare)
	mux.HandleFunc("GET /admin/sessions", s.handleAdminSessions)
	return mux
}

func (s *Server) handleAdminMigrate(w http.ResponseWriter, req *http.Request) {
	var ord fleet.MigrateOrder
	if err := json.NewDecoder(io.LimitReader(req.Body, 1<<20)).Decode(&ord); err != nil {
		http.Error(w, "bad order: "+err.Error(), http.StatusBadRequest)
		return
	}
	if ord.ClientID == "" || ord.TargetAddr == "" || ord.TargetAdmin == "" || ord.Token == 0 {
		http.Error(w, "order needs client_id, target_addr, target_admin and a nonzero token", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	sess, ok := s.sessions[ord.ClientID]
	if !ok {
		s.mu.Unlock()
		http.Error(w, fmt.Sprintf("no session %q", ord.ClientID), http.StatusNotFound)
		return
	}
	if sess.features&split.FeatureMigration == 0 {
		s.mu.Unlock()
		http.Error(w, fmt.Sprintf("session %q did not negotiate migration", ord.ClientID), http.StatusConflict)
		return
	}
	s.pendingMig[ord.ClientID] = ord
	s.mu.Unlock()
	s.logf("client %q: migration to %s ordered", ord.ClientID, ord.TargetAddr)
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(map[string]string{"status": "pending"})
}

func (s *Server) handleAdminPrepare(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	token, err := strconv.ParseUint(q.Get("token"), 10, 64)
	if err != nil || token == 0 {
		http.Error(w, "bad token", http.StatusBadRequest)
		return
	}
	clientID := q.Get("client")
	if clientID == "" {
		http.Error(w, "missing client", http.StatusBadRequest)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxSnapshotBytes))
	if err != nil {
		http.Error(w, "read snapshot: "+err.Error(), http.StatusBadRequest)
		return
	}
	now := s.clock.Now()
	s.mu.Lock()
	for tok, st := range s.staged {
		if now-st.at >= stagedLifetime {
			delete(s.staged, tok)
		}
	}
	if len(s.staged) >= maxStaged {
		s.mu.Unlock()
		http.Error(w, "too many staged snapshots", http.StatusTooManyRequests)
		return
	}
	s.staged[token] = &stagedSession{clientID: clientID, data: data, at: now}
	s.mu.Unlock()
	s.logf("client %q: snapshot staged (%d bytes, token %d)", clientID, len(data), token)
	w.WriteHeader(http.StatusOK)
}

func (s *Server) handleAdminSessions(w http.ResponseWriter, req *http.Request) {
	s.mu.Lock()
	out := make([]fleet.SessionInfo, 0, len(s.sessions))
	for id, sess := range s.sessions {
		_, pending := s.pendingMig[id]
		out = append(out, fleet.SessionInfo{
			ClientID:    id,
			Batch:       sess.batch,
			Seq:         sess.seq,
			Features:    sess.features,
			Migrating:   pending,
			DemandBytes: sess.committed(),
		})
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// takePendingMigration claims the session's migration order, if one
// arrived since the last iteration.
func (s *Server) takePendingMigration(sess *session) (fleet.MigrateOrder, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ord, ok := s.pendingMig[sess.id]
	if ok {
		delete(s.pendingMig, sess.id)
	}
	return ord, ok
}

// takeStaged claims a staged snapshot by resume token; an expired one
// is dropped and not returned.
func (s *Server) takeStaged(token uint64) *stagedSession {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.staged[token]
	delete(s.staged, token)
	if st == nil || now-st.at >= stagedLifetime {
		return nil
	}
	return st
}

// executeMigration runs one migration order at a ForwardReq boundary
// (the displaced forward has not been served, so the client replays it
// against the target and no iteration is lost): snapshot the session,
// stage it at the target, redirect the client. An error leaves the
// session serving here — the snapshot possibly parked at the target is
// harmless (it expires unclaimed after stagedLifetime) because the
// client never learns the token.
func (s *Server) executeMigration(fr *split.Framer, sess *session, ord fleet.MigrateOrder) error {
	data, err := checkpoint.EncodeSession(sess.params, sess.optimizer)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	prepURL := fmt.Sprintf("%s/admin/prepare?token=%d&client=%s",
		strings.TrimRight(ord.TargetAdmin, "/"), ord.Token, url.QueryEscape(sess.id))
	resp, err := adminHTTPClient.Post(prepURL, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("stage snapshot at %s: %w", ord.TargetAdmin, err)
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stage snapshot at %s: %s: %s",
			ord.TargetAdmin, resp.Status, strings.TrimSpace(string(body)))
	}
	if err := fr.WriteMessage(&split.MigrateMsg{Target: ord.TargetAddr, Token: ord.Token}); err != nil {
		return fmt.Errorf("redirect: %w", err)
	}
	s.logf("client %q: migrated to %s (%d snapshot bytes)", sess.id, ord.TargetAddr, len(data))
	return nil
}

// adminHTTPClient is the snapshot-transfer client. Transfers are
// loopback/datacenter-local; the timeout exists so a wedged target
// aborts the order instead of freezing the source's serving loop.
var adminHTTPClient = &http.Client{Timeout: 30 * time.Second}
