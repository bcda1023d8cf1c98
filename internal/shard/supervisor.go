// Shard supervision: a per-shard health state machine driven by the typed
// errors the engine already surfaces (storage.ErrIOFault storms,
// storage.ErrCorruptPage, failed WAL flushes), automatic restart of a
// failed shard through WAL crash recovery on its own goroutine, with a
// capped exponential backoff between failed attempts (DESIGN.md §12).
//
// The supervisor never blocks the router's data path: health observation
// is a handful of atomics on the existing error-return path, and the only
// lock a restart takes is the failed shard's own gate — every other shard
// keeps serving reads and writes throughout recovery. Operations that
// reach a failed or recovering shard fail fast with ErrShardUnavailable,
// which the server maps to a retriable wire status (StatusUnavailable) so
// clients can distinguish "back off and retry" from real failures.
package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mvpbt/internal/db"
	"mvpbt/internal/storage"
)

// HealthState is one shard's position in the supervision state machine:
//
//	healthy ──fault storm, corruption──▶ failed
//	failed ──restart attempt──▶ recovering ──recovery ok──▶ healthy
//	recovering ──recovery failed──▶ failed (backoff)
//
// Degraded is not a stored state: Health reports it for a healthy shard
// whose engine is read-only, for exactly as long as the engine is.
type HealthState int32

const (
	// Healthy: serving reads and writes normally.
	Healthy HealthState = iota
	// Degraded: the shard's space governor has gone read-only
	// (db.ErrReadOnly); reads keep working, writes fail per-key. The
	// governor heals this state itself — Health only reports it.
	Degraded
	// Failed: the shard hit a fault storm or corruption and has been
	// taken out of service; operations fail with ErrShardUnavailable
	// while a restart goroutine works on it.
	Failed
	// Recovering: a restart attempt is in flight — the old engine has
	// been failure-stopped and a fresh one is replaying the WAL image.
	Recovering
)

var healthNames = [...]string{"healthy", "degraded", "failed", "recovering"}

func (s HealthState) String() string {
	if s >= 0 && int(s) < len(healthNames) {
		return healthNames[s]
	}
	return fmt.Sprintf("HealthState(%d)", int32(s))
}

// MarshalText names the state, so a JSON report reads "healthy".
func (s HealthState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText reads a name MarshalText wrote.
func (s *HealthState) UnmarshalText(b []byte) error {
	i := slices.Index(healthNames[:], string(b))
	if i < 0 {
		return fmt.Errorf("shard: unknown health state %q", b)
	}
	*s = HealthState(i)
	return nil
}

// ErrShardUnavailable is the typed cause inside the ShardError returned by
// operations routed to a failed or recovering shard. It is retriable: the
// supervisor is restarting the shard, and every other shard keeps serving.
var ErrShardUnavailable = errors.New("shard: unavailable (failed, restart in progress)")

// The supervisor's tuning, one value each.
const (
	// faultThreshold is how many consecutive fault-class errors
	// (storage.ErrIOFault, db.ErrClosed) an otherwise-live shard may return
	// before it is failed and restarted. A storage.ErrCorruptPage fails the
	// shard immediately — corruption does not heal with retries.
	faultThreshold = 3
	// restartBackoff is the delay before the second restart attempt; later
	// attempts back off exponentially. The first attempt runs immediately.
	restartBackoff = 10 * time.Millisecond
	// maxBackoff caps the exponential backoff: a shard that keeps failing
	// to restart is retried once a second.
	maxBackoff = time.Second
)

// restartDelay is the wait before restart attempt n: none before the first
// (n = 0), then restartBackoff doubled per further failure, stopping at
// maxBackoff, so no attempt count overflows it to zero or below.
func restartDelay(n int) time.Duration {
	var d time.Duration
	for ; n > 0 && d < maxBackoff; n-- {
		d = max(2*d, restartBackoff)
	}
	return min(d, maxBackoff)
}

// SupervisorConfig holds the supervisor's test hooks (its tuning is the
// constants above).
type SupervisorConfig struct {
	// OnTransition, if set, observes every state transition. Called from
	// supervisor goroutines and the data path; keep it fast.
	OnTransition func(shard int, from, to HealthState)
	// RestartHook, if set, runs at the start of every restart attempt
	// (before the old engine is crashed). An error fails the attempt —
	// the test seam for driving the backoff.
	RestartHook func(shard int) error
}

// HealthInfo is one shard's externally visible supervision state.
type HealthInfo struct {
	State HealthState
	// Restarts counts completed restart-through-recovery cycles.
	Restarts uint64
	// ConsecFaults is the current consecutive fault-class error count
	// (reset by any successful operation).
	ConsecFaults int32
	// RestartFailures counts failed restart attempts since the last
	// successful one.
	RestartFailures uint64
	// LastError is the most recent error that failed the shard or a
	// restart attempt ("" when none).
	LastError string
}

// shardHealth is the per-shard supervision state. The gate orders the data
// path against engine swaps: operations hold it shared for the duration of
// one engine call, a restart holds it exclusively across the swap. Epoch
// increments on every swap so transactions can detect that a leg they
// captured belongs to a dead incarnation.
type shardHealth struct {
	gate  sync.RWMutex
	state atomic.Int32
	epoch atomic.Uint64

	consec       atomic.Int32
	restarts     atomic.Uint64
	restartFails atomic.Uint64
	restarting   atomic.Bool

	errMu   sync.Mutex
	lastErr string
}

func (h *shardHealth) setLastErr(err error) {
	h.errMu.Lock()
	h.lastErr = err.Error()
	h.errMu.Unlock()
}

func (h *shardHealth) lastError() string {
	h.errMu.Lock()
	defer h.errMu.Unlock()
	return h.lastErr
}

// unavailable reports whether the shard is out of service (failed or
// mid-restart).
func (h *shardHealth) unavailable() bool {
	st := HealthState(h.state.Load())
	return st == Failed || st == Recovering
}

// supervisor owns the restart goroutines and the transition bookkeeping.
type supervisor struct {
	r   *Router
	cfg SupervisorConfig

	stop chan struct{}  // closed by Router.Close
	wg   sync.WaitGroup // the restart goroutines
}

// transition CASes shard i from `from` to `to`, firing the hook on success.
func (s *supervisor) transition(i int, from, to HealthState) bool {
	h := s.r.health[i]
	if !h.state.CompareAndSwap(int32(from), int32(to)) {
		return false
	}
	if s.cfg.OnTransition != nil {
		s.cfg.OnTransition(i, from, to)
	}
	return true
}

// observe classifies one operation's outcome on shard i. Nil errors reset
// the consecutive-fault counter; typed fault errors count toward the storm
// threshold; corruption fails the shard immediately.
func (s *supervisor) observe(i int, err error) {
	h := s.r.health[i]
	if err == nil {
		h.consec.Store(0)
		return
	}
	switch {
	case errors.Is(err, storage.ErrCorruptPage):
		h.setLastErr(err)
		s.fail(i)
	case errors.Is(err, storage.ErrIOFault), errors.Is(err, db.ErrClosed):
		h.setLastErr(err)
		if h.consec.Add(1) >= faultThreshold {
			s.fail(i)
		}
	}
	// Everything else (db.ErrReadOnly, conflicts, ErrShardUnavailable
	// bounced off the gate) says nothing about the shard's health.
}

// fail moves shard i from Healthy to Failed and kicks off the restart
// goroutine (one at a time per shard).
func (s *supervisor) fail(i int) {
	h := s.r.health[i]
	if !s.transition(i, Healthy, Failed) {
		return // already failed or recovering
	}
	if h.restarting.CompareAndSwap(false, true) {
		s.wg.Add(1)
		go s.restartLoop(i)
	}
}

// restartLoop drives shard i failed → recovering → healthy: immediate
// first attempt, restartDelay between failures, until an attempt succeeds
// or the router closes.
func (s *supervisor) restartLoop(i int) {
	defer s.wg.Done()
	h := s.r.health[i]
	for attempt := 0; ; attempt++ {
		if d := restartDelay(attempt); d > 0 {
			select {
			case <-s.stop:
			case <-time.After(d):
			}
		}
		select {
		case <-s.stop:
			h.restarting.Store(false)
			return
		default:
		}
		s.transition(i, Failed, Recovering)
		err := s.restartShard(i)
		if err == nil {
			h.consec.Store(0)
			h.restartFails.Store(0)
			h.restarts.Add(1)
			// Clear restarting BEFORE publishing Healthy: a failure observed
			// in the gap then either sees Recovering (ignored) or spawns a
			// fresh restart goroutine — never a stranded Failed shard.
			h.restarting.Store(false)
			s.transition(i, Recovering, Healthy)
			return
		}
		h.restartFails.Add(1)
		h.setLastErr(err)
		s.transition(i, Recovering, Failed)
	}
}

// restartShard replaces shard i's engine with a freshly recovered one:
// capture the WAL image, failure-stop the old engine, build a new engine
// from the router's template, and recover every committed transaction into
// it. The shard's gate is held exclusively only across the capture and the
// swap — no other shard is touched. Exactly the acknowledged (durably
// flushed) commits survive, per the crash-recovery contract; the fresh
// engine also starts with a fresh simulated device, so armed fault rules
// (the storms that failed the shard) do not follow it.
func (s *supervisor) restartShard(i int) error {
	if hook := s.cfg.RestartHook; hook != nil {
		if err := hook(i); err != nil {
			return err
		}
	}
	r := s.r
	h := r.health[i]
	sh := r.shards[i]
	h.gate.Lock()
	defer h.gate.Unlock()
	img := sh.Engine.LogImage() // nil without a WAL: the shard restarts empty
	sh.Engine.Crash()
	eng := db.NewEngine(r.cfg.Engine)
	kv, err := db.NewMVPBTKV(eng, sh.Dir+"/kv", r.cfg.KVOptions)
	if err != nil {
		eng.Close()
		return fmt.Errorf("shard %d: rebuild: %w", i, err)
	}
	if img != nil {
		if _, err := eng.Recover(img); err != nil {
			eng.Close()
			return fmt.Errorf("shard %d: recovery: %w", i, err)
		}
		// Recovery re-parks prepared-undecided 2PC legs in doubt; resolve
		// them against the coordinator log before the shard goes back into
		// service: a durable commit decision commits the leg (and is
		// acknowledged toward the group's forget), a group the coordinator
		// is still deciding stays in doubt (the in-flight commit2PC will
		// resolve it), and a group the log does not vouch for is PRESUMED
		// ABORT — the decision record is the commit point, its absence is
		// the abort record.
		for _, d := range eng.InDoubtList() {
			committed, inflight := r.coord.decisionOf(d.GID)
			if inflight {
				continue
			}
			if _, err := eng.ResolveGroup(d.GID, committed); err != nil {
				eng.Close()
				return fmt.Errorf("shard %d: resolving in-doubt group %d: %w", i, d.GID, err)
			}
			if committed {
				r.coord.ack(d.GID)
			}
		}
	}
	sh.Engine, sh.KV = eng, kv
	h.epoch.Add(1)
	return nil
}

// Health returns shard i's supervision state: Degraded when the shard is
// Healthy and its current engine is read-only. The caller must not hold
// the shard's gate.
func (r *Router) Health(i int) HealthInfo {
	h := r.health[i]
	st := HealthState(h.state.Load())
	if st == Healthy {
		h.gate.RLock()
		if r.shards[i].Engine.ReadOnly() {
			st = Degraded
		}
		h.gate.RUnlock()
	}
	return HealthInfo{
		State:           st,
		Restarts:        h.restarts.Load(),
		ConsecFaults:    h.consec.Load(),
		RestartFailures: h.restartFails.Load(),
		LastError:       h.lastError(),
	}
}

// FailShard administratively fails shard i (as if a fault storm had), and
// the supervisor restarts it through recovery. The error is always nil.
func (r *Router) FailShard(i int, cause error) error {
	if cause == nil {
		cause = errors.New("shard: administratively failed")
	}
	r.health[i].setLastErr(cause)
	r.sup.fail(i)
	return nil
}
