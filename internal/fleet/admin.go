package fleet

// MigrateOrder is the control plane's instruction to a server's admin
// plane (POST /admin/migrate): move ClientID's session to the target
// server. The source server executes it at the next clean iteration
// boundary — snapshot the session, stage it at TargetAdmin
// (POST /admin/prepare), then redirect the client to TargetAddr with
// Token. The order is one-shot: if the snapshot transfer or redirect
// fails the session keeps serving where it is and the controller may
// reissue.
type MigrateOrder struct {
	// ClientID names the session to move.
	ClientID string `json:"client_id"`
	// TargetAddr is the target server's split-protocol dial address,
	// handed to the client in the Migrate redirect.
	TargetAddr string `json:"target_addr"`
	// TargetAdmin is the target server's admin-plane base URL
	// (http://host:port), where the source stages the snapshot.
	TargetAdmin string `json:"target_admin"`
	// Token pairs the staged snapshot with the client's redial: the
	// source stages under it, the client presents it in
	// Hello.ResumeToken, the target matches the two.
	Token uint64 `json:"token"`
}

// SessionInfo is one row of a server's GET /admin/sessions response:
// a resident split session as the control plane sees it. The
// Controller polls it every tick: the rows are the server's residents
// in its Manager, Features says whether a session can be live-migrated
// and Migrating avoids double-ordering.
type SessionInfo struct {
	ClientID string `json:"client_id"`
	Batch    int    `json:"batch"`
	Seq      int    `json:"seq"`
	// Features is the negotiated split.Feature* bitmask.
	Features uint64 `json:"features"`
	// Migrating reports a pending, not-yet-executed migration order.
	Migrating bool `json:"migrating"`
	// DemandBytes is the session's committed transient demand; the
	// server's /loadz committed_bytes is the sum over its sessions.
	DemandBytes int64 `json:"demand_bytes"`
}
