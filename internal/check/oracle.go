// Package check is the differential, model-based correctness harness: a
// naive in-memory MVCC oracle consumes the same operation stream as the
// real engine, and invariant checkers assert after every step that each
// index — B-Tree, PBT, MV-PBT and the LSM mirror — agrees with it
// post-visibility-filter, that MV-PBT never surfaces an invisible
// version, that scans are key-ordered and duplicate-free across
// PN and partitions, and that GC never reclaims a version a live
// snapshot still needs (Larson-style history replay against a sequential
// model). Histories are generated from a printed seed, replayed
// deterministically, and shrunk greedily to a minimal failing prefix.
package check

import (
	"bytes"
	"sort"

	"mvpbt/internal/txn"
)

// bootTxID stamps versions reconstructed by Oracle.Restart. WAL recovery
// replays committed transactions into a fresh engine whose ids restart at
// 1; the harness's own post-crash transactions begin only after the
// replayed ones, so id 1 either belongs to a replayed (committed)
// transaction or — when nothing was recovered — to no version at all.
const bootTxID = txn.TxID(1)

// oSnap is the oracle's own copy of a snapshot: the oracle never asks the
// engine's transaction manager anything, it re-derives visibility from its
// private commit log so a bug in the engine's snapshot bookkeeping cannot
// hide itself.
type oSnap struct {
	xmin, xmax txn.TxID
	active     map[txn.TxID]bool
}

// oVersion is one version of a tuple: its payload, creator, and (once
// superseded or deleted) invalidator — the paper's two-point invalidation
// scheme in its most naive form.
type oVersion struct {
	row        []byte
	create     txn.TxID
	invalidate txn.TxID
}

// Tuple is one logical tuple: its stable oracle identity, the engine VID
// currently mapped to it, and the version chain oldest first.
type Tuple struct {
	ID        uint64
	EngineVID uint64
	versions  []oVersion
}

// Oracle is the sequential MVCC model. Single-goroutine use only — the
// harness interleaves logical clients deterministically on one goroutine.
type Oracle struct {
	keyOf     func(row []byte) []byte
	nextTuple uint64
	tuples    map[uint64]*Tuple
	status    map[txn.TxID]txn.Status // absent = in progress / unknown
	snaps     map[txn.TxID]*oSnap
}

// NewOracle returns an empty oracle extracting index keys with keyOf.
func NewOracle(keyOf func(row []byte) []byte) *Oracle {
	return &Oracle{
		keyOf:  keyOf,
		tuples: make(map[uint64]*Tuple),
		status: make(map[txn.TxID]txn.Status),
		snaps:  make(map[txn.TxID]*oSnap),
	}
}

// Begin registers the engine transaction's snapshot with the oracle. The
// snapshot content is copied from the engine handle (ids must match for a
// differential comparison to mean anything) but visibility is evaluated
// against the oracle's own commit log.
func (o *Oracle) Begin(tx *txn.Tx) {
	s := &oSnap{xmin: tx.Snap.Xmin, xmax: tx.Snap.Xmax, active: make(map[txn.TxID]bool, len(tx.Snap.Active))}
	for _, a := range tx.Snap.Active {
		s.active[a] = true
	}
	o.snaps[tx.ID] = s
}

// Commit marks id committed in the oracle's commit log.
func (o *Oracle) Commit(id txn.TxID) {
	o.status[id] = txn.Committed
	delete(o.snaps, id)
}

// Abort marks id aborted.
func (o *Oracle) Abort(id txn.TxID) {
	o.status[id] = txn.Aborted
	delete(o.snaps, id)
}

func (o *Oracle) statusOf(id txn.TxID) txn.Status {
	if st, ok := o.status[id]; ok {
		return st
	}
	return txn.InProgress
}

// sees is the paper's snapshot-visibility rule over the oracle's own
// state: a transaction sees itself, and otherwise only transactions that
// began before its snapshot (id < xmax), were not active at snapshot time,
// and have committed.
func (o *Oracle) sees(self txn.TxID, id txn.TxID) bool {
	if id == txn.InvalidTxID {
		return false
	}
	if id == self {
		return true
	}
	s := o.snaps[self]
	if s == nil {
		return false
	}
	if id >= s.xmax || s.active[id] {
		return false
	}
	return o.statusOf(id) == txn.Committed
}

// visibleVersion returns the version of t visible to self, or nil. At
// most one version of a tuple is ever visible to one snapshot (two-point
// invalidation); scanning newest to oldest returns it directly.
func (o *Oracle) visibleVersion(t *Tuple, self txn.TxID) *oVersion {
	for i := len(t.versions) - 1; i >= 0; i-- {
		v := &t.versions[i]
		if !o.sees(self, v.create) {
			continue
		}
		if v.invalidate != txn.InvalidTxID && o.sees(self, v.invalidate) {
			// The invalidation is visible too: this version and — because
			// invalidators are strictly newer than creators — every older
			// one is dead to this snapshot.
			return nil
		}
		return v
	}
	return nil
}

// VisRow is one visible row with its tuple identity and the transaction
// that created the visible version (which is the timestamp the engine's
// index records carry — unique-index per-key resolution needs it).
type VisRow struct {
	Tuple  *Tuple
	Row    []byte
	Create txn.TxID
}

// LookupVisible returns the rows visible to self whose key equals key,
// ordered by tuple id (the caller compares as a set).
func (o *Oracle) LookupVisible(self txn.TxID, key []byte) []VisRow {
	var out []VisRow
	for _, t := range o.tuples {
		if v := o.visibleVersion(t, self); v != nil && bytes.Equal(o.keyOf(v.row), key) {
			out = append(out, VisRow{Tuple: t, Row: v.row, Create: v.create})
		}
	}
	sortVisRows(out)
	return out
}

// ScanVisible returns the rows visible to self with lo <= key < hi
// (hi nil = +inf), ordered by (key, tuple id).
func (o *Oracle) ScanVisible(self txn.TxID, lo, hi []byte) []VisRow {
	var out []VisRow
	for _, t := range o.tuples {
		v := o.visibleVersion(t, self)
		if v == nil {
			continue
		}
		k := o.keyOf(v.row)
		if bytes.Compare(k, lo) < 0 || (hi != nil && bytes.Compare(k, hi) >= 0) {
			continue
		}
		out = append(out, VisRow{Tuple: t, Row: v.row, Create: v.create})
	}
	sortVisRows(out)
	return out
}

// UniquePerKey collapses rows (sorted by row bytes, hence key-grouped) to
// one per key the way a unique MV-PBT does: the record with the newest
// timestamp — i.e. the visible version created by the highest transaction
// id — decides the key.
func UniquePerKey(keyOf func([]byte) []byte, rows []VisRow) []VisRow {
	var out []VisRow
	for _, r := range rows {
		k := keyOf(r.Row)
		if n := len(out); n > 0 && bytes.Equal(keyOf(out[n-1].Row), k) {
			if r.Create > out[n-1].Create {
				out[n-1] = r
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

func sortVisRows(rows []VisRow) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if c := bytes.Compare(a.Row, b.Row); c != 0 {
			return c < 0
		}
		return a.Tuple.ID < b.Tuple.ID
	})
}

// Occupied reports whether any version at key could still be or become
// live: its creator is not aborted and its invalidator (if any) has not
// committed. The harness's executor converts inserts on occupied keys
// into updates, guaranteeing at most one live-or-pending tuple per key —
// the discipline WAL replay's key-addressed update/delete records rely
// on, and what makes the unique MV-PBT index applicable.
func (o *Oracle) Occupied(key []byte) bool {
	for _, t := range o.tuples {
		for i := range t.versions {
			v := &t.versions[i]
			if !bytes.Equal(o.keyOf(v.row), key) {
				continue
			}
			if o.statusOf(v.create) == txn.Aborted {
				continue
			}
			if v.invalidate != txn.InvalidTxID && o.statusOf(v.invalidate) == txn.Committed {
				continue
			}
			return true
		}
	}
	return false
}

// Insert creates a new tuple with a single version created by self.
func (o *Oracle) Insert(self txn.TxID, row []byte) *Tuple {
	o.nextTuple++
	t := &Tuple{ID: o.nextTuple, versions: []oVersion{{row: append([]byte(nil), row...), create: self}}}
	o.tuples[t.ID] = t
	return t
}

// Write applies an update (newRow != nil) or delete (newRow == nil) by
// self to the version of t currently visible to self. It returns true on
// success and false for a first-updater-wins conflict: the target version
// was already invalidated by a different, non-aborted transaction. The
// caller must have established visibility first.
func (o *Oracle) Write(self txn.TxID, t *Tuple, newRow []byte) (ok bool) {
	for i := len(t.versions) - 1; i >= 0; i-- {
		v := &t.versions[i]
		if !o.sees(self, v.create) {
			continue
		}
		if v.invalidate != txn.InvalidTxID && o.sees(self, v.invalidate) {
			return false // deleted for this snapshot; nothing to write
		}
		if v.invalidate != txn.InvalidTxID && v.invalidate != self &&
			o.statusOf(v.invalidate) != txn.Aborted {
			return false // first-updater-wins conflict
		}
		v.invalidate = self
		if newRow != nil {
			t.versions = append(t.versions, oVersion{row: append([]byte(nil), newRow...), create: self})
		}
		return true
	}
	return false
}

// committedRow returns the row of t visible to a fresh post-crash
// snapshot: the newest version with a committed creator, unless a
// committed invalidation killed it.
func (o *Oracle) committedRow(t *Tuple) []byte {
	for i := len(t.versions) - 1; i >= 0; i-- {
		v := &t.versions[i]
		if o.statusOf(v.create) != txn.Committed {
			continue
		}
		if v.invalidate != txn.InvalidTxID && o.statusOf(v.invalidate) == txn.Committed {
			return nil
		}
		return v.row
	}
	return nil
}

// CommittedRows returns the durable state — what a crash-recovered engine
// must present — ordered by (key, tuple id).
func (o *Oracle) CommittedRows() []VisRow {
	var out []VisRow
	for _, t := range o.tuples {
		if row := o.committedRow(t); row != nil {
			out = append(out, VisRow{Tuple: t, Row: row})
		}
	}
	sortVisRows(out)
	return out
}

// Restart collapses the oracle to its durable state after a crash: every
// in-flight transaction is gone, surviving tuples keep their identity but
// are reborn as single committed versions stamped bootTxID, and the
// commit log restarts with only bootTxID committed (matching the fresh
// engine's remapped recovery transactions).
func (o *Oracle) Restart() {
	survivors := make(map[uint64]*Tuple)
	for id, t := range o.tuples {
		row := o.committedRow(t)
		if row == nil {
			continue
		}
		survivors[id] = &Tuple{ID: t.ID, versions: []oVersion{{row: row, create: bootTxID}}}
	}
	o.tuples = survivors
	o.status = make(map[txn.TxID]txn.Status)
	if len(survivors) > 0 {
		// Survivors imply at least one replayed (committed) transaction, so
		// the fresh engine's id 1 can never be a harness transaction and
		// marking it committed is sound. With no survivors the commit log
		// stays empty: id 1 might be the first post-crash harness
		// transaction, and no version references bootTxID anyway.
		o.status[bootTxID] = txn.Committed
	}
	o.snaps = make(map[txn.TxID]*oSnap)
}
