package db

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mvpbt/internal/txn"
	"mvpbt/internal/wal"
)

// ErrClosed is returned by a durable commit, prepare or commit decision that
// reaches the engine after Close or Crash has fenced its log: the
// transaction was NOT committed (in memory or on the device) and the caller
// must not acknowledge it.
var ErrClosed = wal.ErrClosed

// GroupCommitConfig tunes WAL group commit (Config.GroupCommit). Disabled
// by default, which preserves the historical behaviour: every durable
// commit appends its commit record and flushes the log itself.
type GroupCommitConfig struct {
	// Enabled turns on the leader/follower commit batcher: concurrent
	// committers enqueue their commit record and one leader flushes the
	// combined log tail for the whole batch.
	Enabled bool
	// MaxDelay bounds how long a leader waits for followers to join the
	// batch before flushing. 0 (the default) flushes immediately; batching
	// then still emerges naturally, because committers that arrive while a
	// flush is in progress queue behind it and are drained as one batch by
	// the promoted next leader.
	MaxDelay time.Duration
}

// maxCommitBatch caps the number of commits acknowledged by one flush.
const maxCommitBatch = 64

// commitWaiter is one committer's slot in the batch queue. Waiters are
// pooled: the WaitGroup is reused across commits (Add(1) on enqueue, Done
// by the leader after the shared flush result is stored in err).
type commitWaiter struct {
	wg   sync.WaitGroup
	err  error
	lead bool // set (under the batcher mutex) before Done: run the next batch
}

// groupCommitter implements WAL group commit (DESIGN.md §11): committers
// append their commit record, enqueue themselves, and the
// first committer to arrive while no leader is active becomes the leader —
// it optionally waits up to MaxDelay for the batch to fill, flushes the
// log ONCE, and broadcasts the flush result to every waiter in the batch.
// If more committers queued while it flushed, it promotes the oldest of
// them to leader and hands off, so its own caller's latency stays bounded
// while the queue can never be left leaderless (invariant: whenever the
// queue is non-empty, a leader exists).
//
// Error propagation: the shared flush error is returned to every waiter in
// the batch, making each of their commits IN DOUBT exactly per the
// CommitDurable contract — every waiter's commit record was appended
// before the flush began, so the record may or may not have reached the
// device.
type groupCommitter struct {
	e        *Engine
	maxDelay time.Duration

	mu     sync.Mutex
	idle   sync.Cond // signalled when the leader abdicates with an empty queue
	queue  []*commitWaiter
	free   []*commitWaiter // spare queue backing array, swapped with queue
	leader bool
	closed bool

	pool sync.Pool // *commitWaiter

	batches    atomic.Int64 // flushes performed by batch leaders
	commits    atomic.Int64 // commit records acknowledged through the batcher
	maxBatched atomic.Int64 // largest batch acknowledged by one flush
}

func newGroupCommitter(e *Engine, cfg GroupCommitConfig) *groupCommitter {
	g := &groupCommitter{e: e, maxDelay: cfg.MaxDelay}
	g.idle.L = &g.mu
	g.pool.New = func() any { return new(commitWaiter) }
	return g
}

// commit appends tx's commit record and blocks until a leader has flushed
// it (or reports the batch's shared flush failure). Returns ErrClosed —
// without appending anything — once the engine is fenced by Close.
func (g *groupCommitter) commit(tx *txn.Tx) error {
	w := g.pool.Get().(*commitWaiter)
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.pool.Put(w)
		return ErrClosed
	}
	w.err, w.lead = nil, false
	w.wg.Add(1)
	// Append the commit record before joining the queue (both under the
	// batcher mutex): whichever flush serves the queue entry is then
	// guaranteed to cover the record.
	g.e.log.Append(&wal.Record{Op: wal.OpCommit, TxID: uint64(tx.ID)})
	g.queue = append(g.queue, w)
	lead := !g.leader
	if lead {
		g.leader = true
	}
	g.mu.Unlock()

	// WaitGroup discipline: every Add(1) above is balanced by exactly one
	// Done — by the batch leader for a served follower, by the outgoing
	// leader for a promoted follower, or right here for a waiter that
	// became leader immediately (it never waits on itself).
	if lead {
		w.wg.Done()
		g.runLeader(w)
	} else {
		w.wg.Wait()
		if w.lead {
			// Promoted: drain the next batch (our own record included).
			g.runLeader(w)
		}
	}
	err := w.err
	g.pool.Put(w)
	return err
}

// runLeader executes one batch: wait window, cut the batch (own is always
// queue[0] — see commit/promotion), flush once, broadcast the result, and
// either abdicate (empty queue) or promote the next leader.
func (g *groupCommitter) runLeader(own *commitWaiter) {
	g.waitWindow()

	g.mu.Lock()
	batch := g.queue
	rest := g.free[:0]
	if len(batch) > maxCommitBatch {
		rest = append(rest, batch[maxCommitBatch:]...)
		batch = batch[:maxCommitBatch]
	}
	g.queue, g.free = rest, batch[:0:cap(batch)]
	g.mu.Unlock()

	err := g.e.log.Flush()

	g.batches.Add(1)
	g.commits.Add(int64(len(batch)))
	if n := int64(len(batch)); n > g.maxBatched.Load() {
		g.maxBatched.Store(n) // single leader at a time: no lost update
	}
	for i, w := range batch {
		w.err = err
		if w != own {
			w.wg.Done()
		}
		batch[i] = nil // drop the reference: the waiter is pooled
	}

	g.mu.Lock()
	if len(g.queue) == 0 {
		g.leader = false
		g.idle.Broadcast()
		g.mu.Unlock()
		return
	}
	next := g.queue[0]
	next.lead = true
	g.mu.Unlock()
	next.wg.Done()
}

// waitWindow gives followers up to maxDelay to join the batch. The leader
// spins with Gosched rather than sleeping: the delays in play are in the
// microseconds, far below timer resolution.
func (g *groupCommitter) waitWindow() {
	if g.maxDelay <= 0 {
		return
	}
	deadline := time.Now().Add(g.maxDelay)
	for {
		g.mu.Lock()
		n := len(g.queue)
		closed := g.closed
		g.mu.Unlock()
		if n >= maxCommitBatch || closed || !time.Now().Before(deadline) {
			return
		}
		runtime.Gosched()
	}
}

// close fences the batcher: new committers get ErrClosed, and close blocks
// until every already-enqueued committer has been served. Leaders drain a
// non-empty queue by promotion, so termination is guaranteed.
func (g *groupCommitter) close() {
	g.mu.Lock()
	g.closed = true
	for g.leader || len(g.queue) > 0 {
		g.idle.Wait()
	}
	g.mu.Unlock()
}

// GroupCommitStats reports the batcher's counters (zero when group commit
// is disabled).
type GroupCommitStats struct {
	Batches    int64 // leader flushes
	Commits    int64 // commits acknowledged through the batcher
	MaxBatched int64 // largest number of commits served by one flush
}

// WALStats aggregates commit-pipeline counters for inspection.
type WALStats struct {
	Flushes         int64 // successful log flushes that wrote the device (monotonic across checkpoints)
	DeviceBytes     int64 // device bytes those flushes wrote, checkpoint generations included
	LogicalBytes    int64 // record bytes appended to the log, checkpoint generations included
	Commits         int64 // durable commits that appended a commit record
	ReadOnlyCommits int64 // commits elided entirely (transaction never logged)
	Group           GroupCommitStats
}

// FlushesPerCommit is Flushes/Commits (1.0 without group commit; below 1
// when batches amortize the flush, above 1 when maintenance flushes
// outnumber commits).
func (s WALStats) FlushesPerCommit() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.Flushes) / float64(s.Commits)
}

// WALStatsSnapshot returns the engine's commit-pipeline counters; zero
// values when logging is disabled.
func (e *Engine) WALStatsSnapshot() WALStats {
	s := WALStats{
		Commits:         e.walCommits.Load(),
		ReadOnlyCommits: e.walROCommits.Load(),
	}
	if e.log != nil {
		st := e.log.Stats()
		s.Flushes, s.DeviceBytes, s.LogicalBytes = st.Flushes, st.FlushedBytes, st.Written
	}
	if e.gc != nil {
		s.Group = GroupCommitStats{
			Batches:    e.gc.batches.Load(),
			Commits:    e.gc.commits.Load(),
			MaxBatched: e.gc.maxBatched.Load(),
		}
	}
	return s
}

// DeviceBytesPerLogByte is the log's own write amplification: device bytes
// flushed per record byte appended (1.0 is a pure append; the sector-run
// flush sits a partial sector above it per commit).
func (s WALStats) DeviceBytesPerLogByte() float64 {
	if s.LogicalBytes == 0 {
		return 0
	}
	return float64(s.DeviceBytes) / float64(s.LogicalBytes)
}

// CommitBatchDurable durably commits txs together under a single log
// flush: every transaction's commit record (read-only transactions have
// none) is appended, the log is flushed once, and only then are the
// transactions committed in memory. On a flush error NONE of them is
// committed in memory and every one with a commit record is IN DOUBT,
// exactly as in CommitDurable. The call is deterministic (no goroutines),
// which is what the fault campaign's torn-batch scenario needs; concurrent
// committers get the same batching implicitly via Config.GroupCommit.
func (e *Engine) CommitBatchDurable(txs []*txn.Tx) error {
	if e.log != nil {
		logged := 0
		for _, tx := range txs {
			if tx.WALLogged() {
				e.log.Append(&wal.Record{Op: wal.OpCommit, TxID: uint64(tx.ID)})
				logged++
			}
		}
		if logged > 0 {
			if err := e.log.Flush(); err != nil {
				return err
			}
		}
		e.walCommits.Add(int64(logged))
		e.walROCommits.Add(int64(len(txs) - logged))
	}
	for _, tx := range txs {
		e.Mgr.Commit(tx)
	}
	e.maybeAutoCheckpoint()
	e.maybeReclaim()
	return nil
}
