package db

// Crash-restart support for the correctness harness (internal/check) and
// recovery tests: a crash is a failure stop — the WAL tail is NOT flushed.
// Exactly the bytes already on the device (per-commit flushes, the
// durability points) survive into LogImage; everything else is lost, like
// power failure.

// Crash fails the engine: nothing is flushed, and the log is fenced, so a
// commit, prepare or commit decision still in flight fails with ErrClosed
// instead of reaching the device after the crash. The engine is left closed —
// a later Close is a no-op returning nil. Take LogImage BEFORE or AFTER
// Crash; both see the same bytes.
func (e *Engine) Crash() {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	if e.log != nil {
		e.log.Close()
	}
}
