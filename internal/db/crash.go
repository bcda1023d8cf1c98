package db

// Crash-restart support for the correctness harness (internal/check) and
// recovery tests: a crash is a failure stop — closers do NOT run (no LSM
// memtable flush), and the WAL tail is NOT flushed. Exactly the bytes
// already on the device (per-commit flushes, the durability points) survive
// into LogImage; everything else is lost, like power failure.

// Crash fails the engine: nothing is flushed. The engine is left closed —
// a later Close is a no-op returning nil. Take LogImage BEFORE or AFTER
// Crash; both see the same bytes.
func (e *Engine) Crash() {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
}
