package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"mvpbt/internal/db"
	"mvpbt/internal/index/part"
	"mvpbt/internal/txn"
	"mvpbt/internal/util"
)

// Tx is a multi-shard transaction: a vector of per-shard transactions,
// one per shard, all begun under one exclusive hold of the router's epoch
// barrier so their begin timestamps form a CONSISTENT CUT — a multi-shard
// commit group is either entirely inside every element of the vector or
// entirely outside it (see the package comment for the full argument).
//
// Reads observe that cut plus the transaction's own writes (per-shard
// MVCC self-visibility). Writes are blind upserts applied immediately to
// the owning shard's transaction and published by Commit: transactions
// that wrote a single shard commit through that engine's ordinary durable
// path; transactions that wrote several shards commit them under a shared
// hold of the epoch barrier.
//
// Supervision (supervisor.go) adds two failure surfaces. A shard that is
// failed at Begin time contributes no leg: operations touching it fail
// per-key with a ShardError wrapping ErrShardUnavailable while the rest of
// the transaction stays usable. A shard restarted mid-transaction
// invalidates its leg — the leg's engine incarnation (health epoch) is
// captured at Begin and checked under the shard's gate on every use, so a
// leg can never commit into a dead engine and falsely acknowledge.
//
// A Tx is owned by one goroutine at a time (the engine pools transaction
// handles); it must be finished with exactly one Commit or Abort.
type Tx struct {
	r    *Router
	legs []txLeg // one per shard, indexed by shard number
	// failed is the first write error after which the write may still be in
	// its engine, unlogged (a P_N insert whose eviction then failed): such a
	// transaction can only abort, and Commit returns this error.
	failed error
	done   bool
}

// txLeg is one shard's part of a Tx.
type txLeg struct {
	tx     *txn.Tx     // nil = no leg
	engine *db.Engine  // engine incarnation the leg was begun on
	kv     *db.MVPBTKV // KV incarnation the leg was begun on
	epoch  uint64      // health epoch at Begin
	dirty  bool        // the transaction wrote this shard
}

// Begin starts a multi-shard transaction: the per-shard begins happen under
// the epoch barrier's exclusive lock — a few atomic operations per shard, no
// I/O — giving the snapshot vector its consistency. Failed/recovering shards
// are skipped; their keys fail per-key with ErrShardUnavailable.
func (r *Router) Begin() (*Tx, error) {
	if err := r.enter(); err != nil {
		return nil, err
	}
	defer r.exit()
	t := &Tx{r: r, legs: make([]txLeg, len(r.shards))}
	r.epoch.Lock()
	r.reachable(func(i int, s *Shard) {
		t.legs[i] = txLeg{tx: s.Engine.Begin(), engine: s.Engine, kv: s.KV, epoch: r.health[i].epoch.Load()}
	})
	r.epoch.Unlock()
	return t, nil
}

// leg admits one operation on shard i's leg: the shard must have
// contributed a leg at Begin, and its engine must still be the same
// incarnation (a restarted shard invalidates the leg). On success the
// shard's gate is held shared and returned; the caller releases it after
// the engine call.
func (t *Tx) leg(i int) (*sync.RWMutex, error) {
	if t.legs[i].tx == nil {
		return nil, ErrShardUnavailable
	}
	h := t.r.health[i]
	h.gate.RLock()
	if h.epoch.Load() != t.legs[i].epoch {
		h.gate.RUnlock()
		return nil, ErrShardUnavailable
	}
	return &h.gate, nil
}

// AppendGet reads key at the transaction's snapshot (plus its own writes),
// appending the value to dst, which it returns extended (or unchanged if key
// has no visible value).
func (t *Tx) AppendGet(dst, key []byte) (v []byte, ok bool, err error) {
	v = dst
	err = t.r.routed(key, t.leg, func(i int) (err error) {
		v, ok, err = t.legs[i].kv.AppendGetTx(t.legs[i].tx, dst, key)
		return err
	})
	return v, ok, err
}

// Put upserts key inside the transaction. The write is invisible to other
// transactions until Commit. A degraded owning shard fails with a
// ShardError wrapping db.ErrReadOnly, an unavailable one with
// ErrShardUnavailable, an entry too large for a leaf with
// part.ErrEntryTooLarge; these refusals leave no trace and the transaction
// remains usable — the caller chooses between continuing without that key
// and aborting. After any other error the transaction can only abort:
// Commit aborts it and returns that error.
func (t *Tx) Put(key, val []byte) error {
	return t.r.routed(key, t.leg, func(i int) error {
		return t.wrote(i, key, t.legs[i].kv.PutTx(t.legs[i].tx, key, val))
	})
}

// Delete tombstones key inside the transaction; errors as for Put.
func (t *Tx) Delete(key []byte) error {
	return t.r.routed(key, t.leg, func(i int) error {
		return t.wrote(i, key, t.legs[i].kv.DeleteTx(t.legs[i].tx, key))
	})
}

// wrote marks shard i's leg written if the write of key returned no error,
// records the first error that is not a traceless refusal, and passes err
// on.
func (t *Tx) wrote(i int, key []byte, err error) error {
	switch {
	case err == nil:
		t.legs[i].dirty = true
	case t.failed == nil && !errors.Is(err, db.ErrReadOnly) && !errors.Is(err, part.ErrEntryTooLarge):
		t.failed = wrap(i, key, err)
	}
	return err
}

// scanStream is one shard's share of a Scan: its pairs copied back to back
// into one arena and found again by their end offsets.
type scanStream struct {
	arena []byte
	ends  []int // pair i's key ends at ends[2i], its value at ends[2i+1]
	next  int   // first pair the merge has not handed out
	more  bool  // the shard returned every pair it was asked for: it may hold more
}

func (s *scanStream) add(k, v []byte) {
	s.arena = append(append(s.arena, k...), v...)
	s.ends = append(s.ends, len(s.arena)-len(v), len(s.arena))
}

func (s *scanStream) pair(i int) (k, v []byte) {
	start := 0
	if i > 0 {
		start = s.ends[2*i-1]
	}
	return s.arena[start:s.ends[2*i]], s.arena[s.ends[2*i]:s.ends[2*i+1]]
}

// scanStreams are a Scan's streams, one a shard, merged by key. Keys are
// unique across shards (each hashes to exactly one), so no tie is broken.
type scanStreams []scanStream

func (s scanStreams) Len() int             { return len(s) }
func (s scanStreams) Exhausted(i int) bool { return 2*s[i].next >= len(s[i].ends) }
func (s scanStreams) Less(i, j int) bool {
	ki, _ := s[i].pair(s[i].next)
	kj, _ := s[j].pair(s[j].next)
	return bytes.Compare(ki, kj) < 0
}

// scanState is what a Scan keeps between scans: its streams and their merge.
type scanState struct {
	streams scanStreams
	merge   util.LoserTree[scanStreams]
}

// scanPool recycles the state of finished Scans, arenas included, so a scan
// in steady state allocates none of what it collects. (A sync.Pool is emptied
// by the collector, so one huge scan's arena is not kept for long.)
var scanPool = sync.Pool{New: func() any { return new(scanState) }}

// shardShare is how many pairs a Scan of limit asks each of n shards for:
// ⌈limit/n⌉, a hashed shard's expected share, plus ⌈√limit⌉ for its spread
// (σ ≤ √limit/2), at most limit, and no overflow at the wire's u32 limit.
func shardShare(limit, n int) int {
	q := (limit-1)/n + 1
	return q + min(int(math.Ceil(math.Sqrt(float64(limit)))), limit-q)
}

// Scan streams up to limit live pairs with key >= lo in global key order
// at the transaction's snapshot. Hash partitioning scatters the key order
// across shards, so each shard is asked for its share (shardShare) and the
// router merges the sorted streams; a shard that runs dry after handing out
// all it was asked for is asked again, on the same leg and snapshot, for the
// rest of the scan from just after its last key. A shard without a live leg
// fails the scan with ErrShardUnavailable — a partial scan would silently
// drop that shard's keyspace. key and val are valid only until fn returns
// (db.KV's rule): they lie in an arena the next Scan reuses.
func (t *Tx) Scan(lo []byte, limit int, fn func(key, val []byte) bool) error {
	if limit <= 0 {
		return nil
	}
	if err := t.r.enter(); err != nil {
		return err
	}
	defer t.r.exit()
	st := scanPool.Get().(*scanState)
	defer scanPool.Put(st)
	if len(st.streams) < len(t.legs) {
		st.streams = make(scanStreams, len(t.legs))
	}
	streams := st.streams[:len(t.legs)]
	share := shardShare(limit, len(streams))
	for i := range streams {
		if err := t.scanShard(i, &streams[i], lo, share); err != nil {
			return err
		}
	}
	st.merge.Build(streams)
	for n := 1; st.merge.Winner() >= 0; n++ {
		w := st.merge.Winner()
		s := &streams[w]
		// fn sees the pair before a refill can overwrite the arena it lies in.
		k, v := s.pair(s.next)
		s.next++
		if !fn(k, v) || n == limit {
			return nil
		}
		if streams.Exhausted(w) && s.more {
			// Resume after the last key, copied: its arena is refilled.
			last, _ := s.pair(s.next - 1)
			if err := t.scanShard(w, s, append(bytes.Clone(last), 0), limit-n); err != nil {
				return err
			}
		}
		st.merge.Fix(streams)
	}
	return nil
}

// scanShard fills s with up to want pairs of shard i with key >= lo.
func (t *Tx) scanShard(i int, s *scanStream, lo []byte, want int) error {
	s.arena, s.ends, s.next = s.arena[:0], s.ends[:0], 0
	if t.r.onShardScan != nil {
		t.r.onShardScan(i, want)
	}
	gate, err := t.leg(i)
	if err != nil {
		return wrap(i, lo, err)
	}
	// The copy is required, not a precaution: k and v lie in the page and
	// key buffers of the shard's segment iterators, which overwrite them as
	// the shard's scan moves on and hand them to the next reader when it
	// returns — long before the merge looks at them.
	err = t.legs[i].kv.ScanTx(t.legs[i].tx, lo, want, func(k, v []byte) bool {
		s.add(k, v)
		return true
	})
	gate.RUnlock()
	t.r.sup.observe(i, err)
	if err != nil {
		return wrap(i, lo, err)
	}
	s.more = len(s.ends) == 2*want
	return nil
}

// Commit publishes the transaction's writes and releases its snapshot.
// Shards the transaction never wrote finish as read-only commits (no log
// record, no flush). A single written shard commits through its engine's
// ordinary durable path. Several written shards commit ATOMICALLY through
// presumed-abort two-phase commit (commit2PC, DESIGN.md §12) under a
// shared hold of the epoch barrier, so every snapshot observes the group
// both-or-neither and no crash can leave it half-applied.
//
// Commit returns nil when every leg is durably committed, a ShardError
// when the group aborted (all-or-nothing: no leg's writes survive), or
// ErrTxInDoubt when the COMMIT decision is durable but a failed
// participant could not be resolved synchronously — the transaction WILL
// commit; the server surfaces this as a distinct status so clients can
// confirm through their commit token. After a failed write (see Put) it
// aborts every leg and returns that write's error.
func (t *Tx) Commit() error {
	if t.done {
		panic("shard: double finish of multi-shard transaction")
	}
	t.done = true
	if err := t.r.enter(); err != nil {
		return err
	}
	defer t.r.exit()
	if t.failed != nil {
		t.abortLegs()
		return t.failed
	}
	var written []int
	for i, l := range t.legs {
		if l.dirty {
			written = append(written, i)
		}
	}
	// Read-only legs first: they carry no effects (no log record, no
	// flush — committing is equivalent to aborting), so their order
	// against the barrier is irrelevant, finishing them promptly unpins
	// each shard's GC horizon, and running them against a superseded
	// engine incarnation is harmless.
	for _, l := range t.legs {
		if l.tx != nil && !l.dirty {
			l.engine.Commit(l.tx)
		}
	}
	if len(written) == 0 {
		return nil
	}
	if len(written) > 1 {
		return t.commit2PC(written)
	}
	i := written[0]
	gate, err := t.leg(i)
	if err != nil {
		t.legs[i].engine.Abort(t.legs[i].tx) // superseded incarnation; harmless
		return &ShardError{Shard: i, Err: err}
	}
	err = t.legs[i].engine.CommitDurable(t.legs[i].tx)
	if err != nil {
		// Not committed in memory (durability in doubt, see CommitDurable):
		// abort the handle so the leg cannot pin the shard's GC horizon. A
		// supervisor restart resolves the doubt from the log.
		t.legs[i].engine.Abort(t.legs[i].tx)
	}
	gate.RUnlock()
	t.r.sup.observe(i, err)
	if err != nil {
		return &ShardError{Shard: i, Err: err}
	}
	return nil
}

// commit2PC commits a multi-shard group atomically: every written leg
// PREPARES (durable vote, versions invisible), the coordinator log records
// the decision — one flushed record for COMMIT, nothing for abort
// (presumed abort) — and the legs resolve per that decision. A participant
// that dies after voting leaves an in-doubt leg; its restart consults the
// coordinator log (supervisor.go), and commit2PC's slow path waits out the
// restart so the caller usually still observes the final state. A leg that
// cannot be resolved within the budget is administratively failed — the
// forced restart finds the (by then final) decision — and commit2PC
// reports ErrTxInDoubt for a commit decision, never a false abort.
//
// Crash-injection hooks (Config.TwoPC) simulate a coordinator or
// participant crash at each protocol step; see TwoPCHooks.
func (t *Tx) commit2PC(written []int) error {
	r := t.r
	hooks := r.cfg.TwoPC
	gid := r.coord.beginGroup()

	// The epoch barrier is held shared across prepare, decision and the
	// synchronous resolve pass: a concurrently begun snapshot vector
	// observes the group both-or-neither. Once a leg goes in doubt the
	// group resolves asynchronously anyway (partial visibility of an
	// in-flight group is inherent to recovery-side resolution), so the
	// slow path below runs outside the barrier.
	epochHeld := true
	r.epoch.RLock()
	unlockEpoch := func() {
		if epochHeld {
			epochHeld = false
			r.epoch.RUnlock()
		}
	}
	defer unlockEpoch()

	// Phase 1: prepare every leg (durable YES votes). First failure stops
	// the phase — the group will abort.
	prepared := make([]bool, len(t.legs)) // leg voted YES (durable)
	crashed := make([]bool, len(t.legs))  // leg's participant simulated-crashed
	var firstErr error
	for _, i := range written {
		if hooks.BeforePrepare != nil {
			if err := hooks.BeforePrepare(gid, i); err != nil {
				firstErr = &ShardError{Shard: i, Err: err}
				break
			}
		}
		gate, err := t.leg(i)
		if err != nil {
			firstErr = &ShardError{Shard: i, Err: err}
			break
		}
		err = t.legs[i].engine.PrepareDurable(t.legs[i].tx, gid)
		gate.RUnlock()
		r.sup.observe(i, err)
		if err != nil {
			// Not prepared (the prepare's durability is in doubt exactly
			// like a failed CommitDurable; recovery treats a flushed
			// prepare without a decision as in-doubt and the coordinator
			// log will not vouch for this group — presumed abort).
			firstErr = &ShardError{Shard: i, Err: err}
			break
		}
		prepared[i] = true
		if hooks.AfterPrepare != nil {
			if err := hooks.AfterPrepare(gid, i); err != nil {
				// Participant crash after a durable vote: the leg's handle
				// dies with its engine and must never be touched again; the
				// restarted shard re-enters in-doubt resolution. The
				// protocol continues — a crashed voter is a YES voter.
				crashed[i] = true
				r.FailShard(i, err)
			}
		}
	}

	// Decision. A COMMIT decision is one flushed coordinator-log record —
	// the commit point of the whole group. An abort writes nothing.
	commit := firstErr == nil
	if commit && hooks.BeforeDecide != nil {
		if err := hooks.BeforeDecide(gid); err != nil {
			firstErr = fmt.Errorf("shard: 2pc decision: %w", err)
			commit = false
		}
	}
	if commit {
		if err := r.coord.decideCommit(gid, len(written)); err != nil {
			firstErr = fmt.Errorf("shard: 2pc decision: %w", err)
			commit = false
		}
	}
	if !commit {
		r.coord.decideAbort(gid)
	}
	if commit && hooks.AfterDecide != nil {
		if err := hooks.AfterDecide(gid); err != nil {
			// Every participant crashes after the decision became durable:
			// no leg can be told synchronously. All legs resolve from the
			// coordinator log after restart; the commit token confirms the
			// outcome to the client.
			unlockEpoch()
			for _, i := range written {
				if prepared[i] && !crashed[i] {
					crashed[i] = true
					r.FailShard(i, err)
				}
			}
			return ErrTxInDoubt
		}
	}

	// Phase 2: resolve the legs per the decision. Fast path first — same
	// engine incarnation, under the barrier; legs that crashed or were
	// superseded go through the slow path below, which waits out the
	// supervisor restart.
	pendingLegs := make([]int, 0, len(written))
	acks := 0
	for _, i := range written {
		if crashed[i] {
			pendingLegs = append(pendingLegs, i)
			continue
		}
		if !prepared[i] {
			// Never voted (abort outcome): the handle is live and not in
			// the in-doubt registry — plain in-memory abort.
			t.legs[i].engine.Abort(t.legs[i].tx)
			continue
		}
		gate, err := t.leg(i)
		if err != nil {
			pendingLegs = append(pendingLegs, i) // superseded incarnation
			continue
		}
		n, err := t.legs[i].engine.ResolveGroup(gid, commit)
		gate.RUnlock()
		r.sup.observe(i, err)
		if err != nil || n == 0 {
			pendingLegs = append(pendingLegs, i)
			continue
		}
		if commit {
			acks++
		}
	}
	unlockEpoch()

	unresolved := 0
	for _, i := range pendingLegs {
		switch t.resolveLeg(i, gid, commit) {
		case legResolvedHere:
			if commit {
				acks++
			}
		case legResolvedElsewhere:
			// The restart's recovery-side resolution already applied the
			// decision (and acknowledged it for a commit).
		case legUnresolved:
			unresolved++
		}
	}

	if commit {
		// Retire the group once every leg this call resolved is counted;
		// restart-side resolutions acknowledge themselves. The last
		// acknowledgement forgets the decision in the coordinator log.
		if hooks.BeforeForget != nil && hooks.BeforeForget(gid) != nil {
			// Coordinator crash before retiring the group: the decision
			// stays live in the log — harmless, decisions are idempotent,
			// and checkpointing carries it forward.
			acks = 0
		}
		for ; acks > 0; acks-- {
			r.coord.ack(gid)
		}
		if unresolved > 0 {
			return ErrTxInDoubt
		}
		return nil
	}
	return firstErr
}

// legResolution is resolveLeg's outcome.
type legResolution int

const (
	legResolvedHere      legResolution = iota // this call applied the decision
	legResolvedElsewhere                      // a restart applied (and acked) it
	legUnresolved                             // gave up; the forced restart will
)

// resolveLeg drives one in-doubt leg to the group decision through the
// shard's CURRENT engine incarnation, waiting out a supervisor restart if
// one is in flight. Exhausting the budget administratively fails the shard:
// the forced restart consults the coordinator log, where the decision is by
// now final (recorded for commit, absent-and-not-inflight for abort), so
// the leg always converges to the group outcome.
func (t *Tx) resolveLeg(i int, gid uint64, commit bool) legResolution {
	r := t.r
	deadline := time.Now().Add(2 * time.Second)
	for {
		if r.closed.Load() {
			return legUnresolved // engines are (being) closed; nothing to converge
		}
		gate, err := r.acquire(i)
		if err == nil {
			eng := r.shards[i].Engine
			n, rerr := eng.ResolveGroup(gid, commit)
			gate.RUnlock()
			r.sup.observe(i, rerr)
			if rerr == nil {
				if n > 0 {
					return legResolvedHere
				}
				// Nothing in doubt for gid on the current engine. Unless a
				// restart is still swapping engines (retry), its
				// resolution beat us.
				if !r.health[i].unavailable() {
					return legResolvedElsewhere
				}
			}
		}
		if time.Now().After(deadline) {
			r.FailShard(i, fmt.Errorf("shard: 2pc leg unresolved for group %d: %w", gid, ErrShardUnavailable))
			return legUnresolved
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Abort discards the transaction's writes and releases its snapshot.
// Safe against concurrent shard restarts and router close: aborting a leg
// on a superseded engine incarnation only touches that dead engine's
// in-memory state.
func (t *Tx) Abort() {
	if t.done {
		panic("shard: double finish of multi-shard transaction")
	}
	t.done = true
	if err := t.r.enter(); err != nil {
		return // router closed: engines are (being) closed, legs die with them
	}
	defer t.r.exit()
	t.abortLegs()
}

// abortLegs aborts every leg the transaction has.
func (t *Tx) abortLegs() {
	for _, l := range t.legs {
		if l.tx != nil {
			l.engine.Abort(l.tx)
		}
	}
}
