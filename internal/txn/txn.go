// Package txn implements the multi-version concurrency control substrate:
// transaction identifiers that double as logical timestamps, PostgreSQL
// style snapshots (xmin/xmax/active-set), a commit log, and the visibility
// primitives used by both the base-table visibility check (§2 of the
// paper) and the MV-PBT index-only visibility check (§4.4).
package txn

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// TxID is a transaction identifier. TxIDs are assigned monotonically at
// transaction begin and serve as the logical timestamps stored in version
// records and MV-PBT index records. 0 is invalid.
type TxID uint64

// InvalidTxID is the zero, never-assigned transaction id. Version records
// use it as the "no invalidator" timestamp under two-point invalidation.
const InvalidTxID TxID = 0

// Status is the commit-log state of a transaction.
type Status uint8

// Transaction states.
const (
	InProgress Status = iota
	Committed
	Aborted
)

func (s Status) String() string {
	switch s {
	case InProgress:
		return "in-progress"
	case Committed:
		return "committed"
	default:
		return "aborted"
	}
}

// Snapshot captures the set of transactions visible to a transaction at its
// start (snapshot isolation): everything that committed before Xmax and was
// not in-progress (Active) at snapshot time.
type Snapshot struct {
	Xmin   TxID   // lowest transaction id still active at snapshot time
	Xmax   TxID   // first transaction id NOT visible (next to be assigned)
	Active []TxID // sorted ids active at snapshot time (excluding the owner)
}

// contains reports whether id is in the snapshot's active set.
func (s *Snapshot) contains(id TxID) bool {
	i := sort.Search(len(s.Active), func(i int) bool { return s.Active[i] >= id })
	return i < len(s.Active) && s.Active[i] == id
}

// Tx is a running (or finished) transaction handle.
//
// Handles are POOLED: Commit/Abort returns the handle to the manager's
// free list and a later Begin may reuse it, rewriting every field. The
// rules that make this safe: a handle is owned by one goroutine at a
// time, nothing may retain a *Tx (or a sub-slice of its snapshot's
// Active set) past Commit/Abort, and consumers that need transaction
// identity durably store the TxID value, never the pointer. All in-tree
// consumers follow this (heaps and indexes store TxIDs; the differential
// oracle copies the snapshot at Begin).
type Tx struct {
	ID   TxID
	Snap Snapshot
	mgr  *Manager
	done bool

	// walLogged tracks whether the engine has emitted this transaction's
	// WAL begin record (begin records are written lazily with the first
	// row operation, so read-only transactions never touch the log). Owned
	// by the transaction's goroutine, reset on reuse.
	walLogged bool
}

// FirstWALOp reports whether this is the first logged operation of the
// transaction, marking it logged as a side effect. The engine calls it to
// decide whether a begin record must precede the row record being appended.
func (t *Tx) FirstWALOp() bool {
	if t.walLogged {
		return false
	}
	t.walLogged = true
	return true
}

// WALLogged reports whether the transaction has appended anything to the
// WAL (i.e. a begin record exists). Read-only transactions never log, so
// their commit needs neither a commit record nor a flush.
func (t *Tx) WALLogged() bool { return t.walLogged }

// Commit-log chunking: statuses live in fixed 4096-entry chunks of atomic
// words. The chunk directory is republished copy-on-write under mu when it
// grows, so readers resolve any assigned id with two atomic loads and no
// lock. A chunk's zero value is InProgress, matching the state of an id
// whose transaction has begun but not finished.
const (
	statusChunkBits = 12
	statusChunkSize = 1 << statusChunkBits
	statusChunkMask = statusChunkSize - 1
)

type statusChunk [statusChunkSize]atomic.Uint32

// Manager assigns transaction ids, tracks active transactions and keeps the
// commit log. It is safe for concurrent use; the read-path primitives
// (StatusOf, Sees, Horizon) are lock-free so parallel index readers do not
// serialize here.
type Manager struct {
	mu     sync.Mutex
	next   atomic.Uint64 // next TxID to assign
	active map[TxID]*Tx
	chunks atomic.Pointer[[]*statusChunk]

	// txPool recycles Tx handles (and, via their Snap.Active capacity, the
	// per-begin active-set slices) so the Begin/Commit hot path allocates
	// nothing in steady state. See the pooling contract on Tx.
	txPool sync.Pool

	// horizon caches the GC cutoff (min Xmin over active snapshots, or
	// next if none). It only changes when the active set changes, so
	// Begin/finish recompute it under mu and readers load it for free.
	horizon atomic.Uint64
}

// NewManager returns a manager with no history; the first transaction gets
// id 1.
func NewManager() *Manager {
	m := &Manager{active: make(map[TxID]*Tx)}
	chunks := []*statusChunk{new(statusChunk)}
	m.chunks.Store(&chunks)
	m.next.Store(1)
	m.horizon.Store(1)
	return m
}

// ensureChunkLocked grows the chunk directory to cover id, republishing a
// copied directory so concurrent readers never observe a partial append.
func (m *Manager) ensureChunkLocked(id TxID) {
	want := int(id>>statusChunkBits) + 1
	cur := *m.chunks.Load()
	if len(cur) >= want {
		return
	}
	grown := make([]*statusChunk, want)
	copy(grown, cur)
	for i := len(cur); i < want; i++ {
		grown[i] = new(statusChunk)
	}
	m.chunks.Store(&grown)
}

// Begin starts a transaction, assigning it the next id and a snapshot of
// the currently active set.
func (m *Manager) Begin() *Tx {
	tx, _ := m.txPool.Get().(*Tx)
	if tx == nil {
		tx = &Tx{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	id := TxID(m.next.Load())
	m.ensureChunkLocked(id)
	m.next.Store(uint64(id) + 1)
	snap := Snapshot{Xmin: id, Xmax: id, Active: tx.Snap.Active[:0]}
	if len(m.active) > 0 {
		for a := range m.active {
			snap.Active = append(snap.Active, a)
		}
		sort.Slice(snap.Active, func(i, j int) bool { return snap.Active[i] < snap.Active[j] })
		if snap.Active[0] < snap.Xmin {
			snap.Xmin = snap.Active[0]
		}
	}
	*tx = Tx{ID: id, Snap: snap, mgr: m}
	m.active[id] = tx
	m.recomputeHorizonLocked()
	return tx
}

// Commit marks tx committed and removes it from the active set.
func (m *Manager) Commit(tx *Tx) {
	m.finish(tx, Committed)
}

// Abort marks tx aborted and removes it from the active set.
func (m *Manager) Abort(tx *Tx) {
	m.finish(tx, Aborted)
}

func (m *Manager) finish(tx *Tx, st Status) {
	m.mu.Lock()
	if tx.done {
		m.mu.Unlock()
		panic(fmt.Sprintf("txn: double finish of %d", tx.ID))
	}
	tx.done = true
	m.statusEntry(tx.ID).Store(uint32(st))
	delete(m.active, tx.ID)
	m.recomputeHorizonLocked()
	m.mu.Unlock()
	// Recycle the handle. The pooling contract (see Tx) lets a later Begin
	// rewrite it; callers that read tx.ID immediately after Commit in the
	// same goroutine are still safe only if no other goroutine Begins in
	// between, so in-tree callers capture the id before finishing.
	m.txPool.Put(tx)
}

func (m *Manager) recomputeHorizonLocked() {
	h := TxID(m.next.Load())
	for _, tx := range m.active {
		if tx.Snap.Xmin < h {
			h = tx.Snap.Xmin
		}
	}
	m.horizon.Store(uint64(h))
}

// statusEntry returns the commit-log word for an assigned id.
func (m *Manager) statusEntry(id TxID) *atomic.Uint32 {
	chunks := *m.chunks.Load()
	return &chunks[id>>statusChunkBits][id&statusChunkMask]
}

// StatusOf returns the commit-log state of id. Lock-free.
func (m *Manager) StatusOf(id TxID) Status {
	if id == InvalidTxID || uint64(id) >= m.next.Load() {
		return InProgress
	}
	return Status(m.statusEntry(id).Load())
}

// Sees reports whether the effects of transaction id are visible to the
// transaction holding snapshot snap with identity self: its own effects
// always are; otherwise id must have committed before the snapshot was
// taken (id < Xmax, not active at snapshot time, and committed by now —
// a transaction in the active set is "concurrent" in the paper's Algorithm
// 3 and never visible, even if it has since committed). Lock-free.
func (m *Manager) Sees(snap *Snapshot, self, id TxID) bool {
	if id == InvalidTxID {
		return false
	}
	if id == self {
		return true
	}
	if id >= snap.Xmax {
		return false
	}
	if snap.contains(id) {
		return false
	}
	return m.StatusOf(id) == Committed
}

// Sees is the transaction-handle convenience form of Manager.Sees.
func (t *Tx) Sees(id TxID) bool {
	return t.mgr.Sees(&t.Snap, t.ID, id)
}

// Horizon returns the garbage-collection cutoff: the highest transaction id
// H such that every transaction with id < H is either finished or invisible
// to no one — i.e. the minimum Xmin over all active snapshots (or the next
// id if nothing is active). A committed invalidation with timestamp < H is
// invisible to every present and future snapshot, so the versions it
// superseded are garbage (paper §4.6 "cutoff-transaction"). Lock-free:
// the value is maintained on the Begin/Commit/Abort path.
func (m *Manager) Horizon() TxID {
	return TxID(m.horizon.Load())
}

// ActiveCount returns the number of in-progress transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}
