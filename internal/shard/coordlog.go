package shard

import (
	"fmt"
	"sort"
	"sync"

	"mvpbt/internal/sfile"
	"mvpbt/internal/simclock"
	"mvpbt/internal/ssd"
	"mvpbt/internal/wal"
)

// coordLog is the router's two-phase-commit coordinator log (DESIGN.md
// §12): the durable record of every COMMIT decision for a multi-shard
// commit group, on its own device, independent of every shard. The
// protocol is presumed abort, so the log is small and write-once-per-group:
//
//   - a group id is allocated in memory only (inflight set, nothing
//     durable) — a coordinator crash before the decision leaves no trace,
//     and recovering participants that find no decision abort;
//   - the commit decision is one flushed OpDecideCommit record keyed by
//     group id — THE commit point of the whole group;
//   - abort decisions write nothing (absence IS the abort record);
//   - once every leg has durably applied its decision the group is
//     forgotten (OpForget), letting checkpointing drop it.
//
// The log is a wal.Log, like the engines' WAL (DESIGN.md §10): a checkpoint
// rotates it onto a fresh generation holding only the live (unforgotten)
// decisions. The superblock's aux word carries the coordinator INCARNATION:
// recovery bumps it durably, with that same rotation, before handing out a
// single new group id, so ids from a pre-crash inflight group (which left
// no trace) can never be reused and mis-resolve a stale in-doubt leg.
type coordLog struct {
	mu  sync.Mutex
	log *wal.Log // aux = incarnation

	nextCounter uint64 // low 32 bits of the next group id

	inflight  map[uint64]bool // allocated, undecided (in-memory only)
	decisions map[uint64]bool // durable commit decisions, unforgotten
	pending   map[uint64]int  // gid → legs still to acknowledge

	decides, forgets, recovers int64
}

// coordCkptBytes triggers a coordinator-log checkpoint once the current
// generation outgrows it.
const coordCkptBytes = 32 << 10

// newCoordLog builds a coordinator log on a fresh private device — no shard
// engine's faults, capacity or WAL setting reach it — and durably stamps
// incarnation 1 before any group id exists.
func newCoordLog() (*coordLog, error) {
	dev := ssd.NewWithSpec(simclock.New(), ssd.DeviceSpec{})
	c := &coordLog{
		log:       wal.NewLog(sfile.NewManager(dev), "coord", ssd.CauseCoordLog, ssd.CauseCoordLog),
		inflight:  map[uint64]bool{},
		decisions: map[uint64]bool{},
		pending:   map[uint64]int{},
	}
	if err := c.log.Rotate(1, c.fillLive); err != nil {
		return nil, fmt.Errorf("shard: coordinator log: %w", err)
	}
	return c, nil
}

// beginGroup allocates a commit-group id. Nothing is durable yet — a crash
// now means the group never existed (presumed abort).
func (c *coordLog) beginGroup() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextCounter++
	gid := c.log.Stats().Aux<<32 | c.nextCounter
	c.inflight[gid] = true
	return gid
}

// decideCommit durably logs the group's COMMIT decision — the commit point
// of the whole group. legs is how many participant acknowledgements retire
// the decision (forget). On error the decision did not happen: the caller
// must treat the group as aborted.
func (c *coordLog) decideCommit(gid uint64, legs int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.log.Append(&wal.Record{Op: wal.OpDecideCommit, TxID: gid})
	if err := c.log.Flush(); err != nil {
		delete(c.inflight, gid)
		return fmt.Errorf("shard: coordinator decision flush: %w", err)
	}
	delete(c.inflight, gid)
	c.decisions[gid] = true
	c.pending[gid] = legs
	c.decides++
	return nil
}

// decideAbort aborts the group. Presumed abort: nothing is written — the
// absence of a decision IS the abort record.
func (c *coordLog) decideAbort(gid uint64) {
	c.mu.Lock()
	delete(c.inflight, gid)
	c.mu.Unlock()
}

// ack records one leg's durable application of a commit decision. The last
// ack forgets the group: an OpForget record lets the next checkpoint drop
// the decision. Acks for groups this incarnation doesn't track (resolved
// legs of a pre-recovery group) are ignored — their decisions simply stay
// live until checkpointing rewrites them, which is harmless because
// decisions are idempotent.
func (c *coordLog) ack(gid uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, tracked := c.pending[gid]
	if !tracked {
		return
	}
	if n--; n > 0 {
		c.pending[gid] = n
		return
	}
	delete(c.pending, gid)
	delete(c.decisions, gid)
	c.forgets++
	c.log.Append(&wal.Record{Op: wal.OpForget, TxID: gid})
	// The forget record need not be durable: losing it only resurrects an
	// idempotent decision. It reaches the device with the next decision
	// flush or an image capture, or is dropped by the checkpoint below. A
	// failed checkpoint leaves the old generation authoritative and the next
	// forget tries again.
	if c.log.Grown() > coordCkptBytes {
		c.log.Rotate(c.log.Stats().Aux, c.fillLive) //nolint:errcheck // see above
	}
}

// decisionOf answers a participant's in-doubt query: committed reports a
// durable commit decision, inflight reports a group this coordinator is
// still deciding (the participant must stay in doubt). Neither set means
// presumed abort.
func (c *coordLog) decisionOf(gid uint64) (committed, inflight bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decisions[gid], c.inflight[gid]
}

// fillLive opens a new generation with the live decisions, in gid order.
// Called with c.mu held.
func (c *coordLog) fillLive(w *wal.Writer, _ uint64) error {
	gids := make([]uint64, 0, len(c.decisions))
	for gid := range c.decisions {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, gid := range gids {
		w.Append(&wal.Record{Op: wal.OpDecideCommit, TxID: gid})
	}
	return nil
}

// crashRecover simulates a coordinator crash and restart: the protocol
// state is rebuilt from the log's durable image alone. Unflushed forget
// records are flushed first so the image is the freshest durable state (a
// real crash could also lose them; decisions are idempotent, so recovery
// tolerates either). Inflight groups vanish — presumed abort — and the
// incarnation is durably bumped, by rotating onto the live decisions, BEFORE
// any new group id is handed out, so pre-crash inflight ids can never be
// reused. If the bump does not reach the device, the id counter carries on
// inside the old incarnation instead of restarting, which keeps that
// guarantee.
func (c *coordLog) crashRecover() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.log.Flush() //nolint:errcheck // see above
	c.inflight = map[uint64]bool{}
	c.pending = map[uint64]int{}
	c.decisions = map[uint64]bool{}
	r := wal.NewReaderFromBytes(c.log.Image())
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		switch rec.Op {
		case wal.OpDecideCommit:
			c.decisions[rec.TxID] = true
		case wal.OpForget:
			delete(c.decisions, rec.TxID)
		}
	}
	c.recovers++
	if c.log.Rotate(c.log.Stats().Aux+1, c.fillLive) == nil {
		c.nextCounter = 0
	}
}

// CoordStats is the coordinator log's externally visible state.
type CoordStats struct {
	// LiveDecisions is the number of unforgotten commit decisions.
	LiveDecisions int
	// Inflight is the number of allocated, undecided commit groups.
	Inflight int
	// LogBytes is the device footprint (current generation + superblock).
	LogBytes int64
	// Decides/Forgets/Checkpoints/Recoveries count protocol events.
	Decides, Forgets, Checkpoints, Recoveries int64
	// Incarnation is the coordinator's durable incarnation number.
	Incarnation uint64
}

func (c *coordLog) stats() CoordStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.log.Stats()
	return CoordStats{
		LiveDecisions: len(c.decisions),
		Inflight:      len(c.inflight),
		LogBytes:      st.DeviceBytes,
		Decides:       c.decides,
		Forgets:       c.forgets,
		Checkpoints:   int64(st.Seq) - 1, // the first rotation stamped incarnation 1
		Recoveries:    c.recovers,
		Incarnation:   st.Aux,
	}
}
