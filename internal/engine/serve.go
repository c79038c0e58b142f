package engine

// healthz is the /healthz answer: ok only when fully healthy.
func (db *DB) healthz() (bool, string) {
	h := db.Health()
	return h == Healthy, h.String()
}

// ObsAddr returns the bound address of the HTTP ops server ("" when
// Options.ObsAddr was empty). With ObsAddr ":0" this is how callers
// discover the ephemeral port.
func (db *DB) ObsAddr() string { return db.shared.Plane.Addr() }

// SyncEvents blocks until every event emitted so far has been
// delivered to the configured EventListener (a no-op without one).
// Code that asserts on the listener's contents mid-run calls this first.
func (db *DB) SyncEvents() { db.shared.Plane.Sync() }
