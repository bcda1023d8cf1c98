package check

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"mvpbt/internal/db"
	"mvpbt/internal/heap"
	"mvpbt/internal/index/lsm"
	"mvpbt/internal/sfile"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
	"mvpbt/internal/wal"
)

// RunConfig parameterizes one harness run.
type RunConfig struct {
	Heap    db.HeapKind
	Seed    uint64
	Ops     int
	Clients int
	Keys    int
	Crashes int
	// StepAudit audits after EVERY op instead of every auditEvery ops —
	// shrink-mode replay, where failures must reproduce independently of
	// the audit cadence.
	StepAudit bool
	// Faults punctuates the generated history with deterministic device
	// faults (read/write errors, bit rot, torn commit flushes) and enables
	// the typed-error recovery path: a storage fault that escapes to the
	// top of an op is treated as damage to recover from — the engine
	// crash-restarts and lockstep with the oracle must still hold. Leave it
	// false to treat any typed storage error as a violation.
	Faults bool
}

// auditEvery is the full-audit cadence in ops: every index × every open
// snapshot against the oracle, plus raw-record invariants.
const auditEvery = 250

func (c RunConfig) withDefaults() RunConfig {
	if c.Ops <= 0 {
		c.Ops = 1000
	}
	if c.Clients <= 0 {
		c.Clients = 3
	}
	if c.Keys <= 0 {
		c.Keys = 100
	}
	return c
}

// Violation reports the first invariant breach of a run.
type Violation struct {
	Step int    // index into the history (len(history) for the final audit)
	Op   string // formatted op, or "final audit"
	Msg  string
	// Err is the engine error behind the violation, when there is one —
	// fault mode inspects it (errors.Is) to tell injected-fault damage,
	// which is recoverable by crash-restart, from genuine logic bugs.
	Err error
	// History, set by Run, is the shortest failing history Shrink found.
	History []Op
}

func (v *Violation) Error() string {
	msg := fmt.Sprintf("step %d (%s): %s", v.Step, v.Op, v.Msg)
	if v.History != nil {
		msg += fmt.Sprintf("; minimal failing history (%d ops):\n%s", len(v.History), strings.TrimSuffix(FormatOps(v.History), "\n"))
	}
	return msg
}

// Counters is what a run did. It is the fingerprint of the harness
// campaigns: two runs of the same history must agree on every field
// (maintenance is synchronous there, so the audit count is fixed too).
type Counters struct {
	Ops       int // ops executed (≤ len(history) when a violation stopped the run)
	Audits    int
	Crashes   int
	Conflicts int // first-updater-wins conflicts observed (with parity checked)
	// FaultRecoveries counts injected faults that escaped every masking
	// layer (retry, checksum-quarantine-rebuild) and were absorbed by a
	// crash-restart instead — torn commits included.
	FaultRecoveries int
	// Faults accumulates the device's injected-fault counters across every
	// engine incarnation of the run (the device dies with each crash, so
	// counters are harvested before teardown).
	Faults ssd.FaultCounters
	// Rebuilds counts index quarantine-rebuilds across incarnations:
	// checksum-detected rot in a version-oblivious index repaired in place
	// from the base table, invisibly to the op that hit it.
	Rebuilds int64
	// StateHash fingerprints the oracle's final committed state (stateHash
	// over tuple id and row pairs).
	StateHash uint64
}

// String renders a fault-free run (the diff campaign's) by what it checked,
// a fault-punctuated one by what it injected and recovered from.
func (c Counters) String() string {
	if c.Faults == (ssd.FaultCounters{}) {
		return fmt.Sprintf("%d ops, %d audits, %d crashes, %d conflicts", c.Ops, c.Audits, c.Crashes, c.Conflicts)
	}
	return fmt.Sprintf("%d ops, %d crashes, %d recoveries, %d rebuilds, faults[%v]",
		c.Ops, c.Crashes, c.FaultRecoveries, c.Rebuilds, c.Faults)
}

// Result summarizes a run.
type Result struct {
	Counters
	Violation *Violation
}

// client is one logical client: its open transaction and the write set
// destined for the LSM mirror at commit.
type client struct {
	tx     *txn.Tx
	writes map[uint64][]byte // tuple id → final row (nil = deleted)
	order  []uint64          // first-touch order of writes keys
}

func (c *client) reset() {
	c.tx = nil
	c.writes = nil
	c.order = nil
}

func (c *client) record(tid uint64, row []byte) {
	if c.writes == nil {
		c.writes = make(map[uint64][]byte)
	}
	if _, ok := c.writes[tid]; !ok {
		c.order = append(c.order, tid)
	}
	c.writes[tid] = row
}

// harness binds one engine instance (rebuilt on crash) to the oracle.
type harness struct {
	cfg     RunConfig
	eng     *db.Engine
	tbl     *db.Table
	mirror  *db.LSMKV
	ora     *Oracle
	clients []*client
	res     Result
	order   map[string]map[string][]string // checkRawMV's last dump: index → key → records
}

// keyExtract reads the length-prefixed key out of a row: [len][key][val].
func keyExtract(row []byte) []byte { return row[1 : 1+row[0]] }

// kvRow builds the row keyExtract reads: [len(key)][key][val].
func kvRow(key, val string) []byte {
	return append(append([]byte{byte(len(key))}, key...), val...)
}

func keyBytes(ord int) []byte { return []byte(fmt.Sprintf("k%04d", ord)) }

// rowBytes builds the globally unique row payload for (key, step, client):
// uniqueness lets the harness map any engine row back to its oracle tuple,
// including across crash-recovery, which reassigns VIDs.
func rowBytes(key []byte, step, cl int) []byte {
	return kvRow(string(key), fmt.Sprintf("s%d.c%d", step, cl))
}

// tidKey is the LSM mirror's key for an oracle tuple.
func tidKey(tid uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], tid)
	return b[:]
}

// indexNames in Op.Ix order.
var indexNames = [4]string{"mv", "mvu", "bt", "pb"}

func newHarness(cfg RunConfig) (*harness, error) {
	h := &harness{cfg: cfg, ora: NewOracle(keyExtract)}
	h.clients = make([]*client, cfg.Clients)
	for i := range h.clients {
		h.clients[i] = &client{}
	}
	if err := h.buildEngine(); err != nil {
		return nil, err
	}
	return h, nil
}

// buildEngine constructs a fresh engine + schema (initial start and every
// crash-restart). The partition buffer is kept deliberately tiny so
// evictions, partition builds and merges all happen within even short
// histories.
func (h *harness) buildEngine() error {
	h.order = make(map[string]map[string][]string)
	h.eng = db.NewEngine(db.Config{
		BufferPages:          2048,
		PartitionBufferBytes: 96 << 10,
		// Every commit takes the production pipeline, append and flush
		// through the record (MaxDelay 0). The harness is single-threaded,
		// so each commit flushes its own record; commits that share a flush
		// are driven explicitly by OpTornBatch through one CommitDurable.
		EnableWAL: true,
	})
	pbRef := db.RefPhysical
	if h.cfg.Heap == db.HeapSIAS {
		pbRef = db.RefLogical // exercise the VID indirection path
	}
	tbl, err := h.eng.NewTable("t", h.cfg.Heap,
		db.IndexDef{Name: "mv", Kind: db.IdxMVPBT, RefMode: db.RefPhysical,
			Extract: keyExtract, BloomBits: 10, PrefixLen: 2, MaxPartitions: 4},
		db.IndexDef{Name: "mvu", Kind: db.IdxMVPBT, RefMode: db.RefPhysical, Unique: true,
			Extract: keyExtract, BloomBits: 10, MaxPartitions: 4},
		db.IndexDef{Name: "bt", Kind: db.IdxBTree, RefMode: db.RefPhysical, Extract: keyExtract},
		db.IndexDef{Name: "pb", Kind: db.IdxPBT, RefMode: pbRef,
			Extract: keyExtract, BloomBits: 10, PrefixLen: 2},
	)
	if err != nil {
		return err
	}
	h.tbl = tbl
	h.mirror = db.NewLSMKV(h.eng, "mirror", lsm.Options{MemtableBytes: 16 << 10, L0Runs: 3})
	return nil
}

// ensureTx lazily opens client c's transaction on both sides.
func (h *harness) ensureTx(c *client) {
	if c.tx == nil {
		c.tx = h.eng.Begin()
		h.ora.Begin(c.tx)
	}
}

// freshTx opens a throwaway transaction registered with the oracle; the
// returned func commits it on both sides.
func (h *harness) freshTx() (*txn.Tx, func()) {
	tx := h.eng.Begin()
	h.ora.Begin(tx)
	return tx, func() {
		id := tx.ID // capture before Commit: the handle is pooled
		h.eng.Commit(tx)
		h.ora.Commit(id)
	}
}

// keyTaken reports whether inserting a fresh tuple at key would break the
// occupancy discipline: a live-or-pending tuple exists (Occupied), or the
// inserting transaction itself still sees a row there (its snapshot
// predates a committed delete — inserting would place a matter record with
// a LOWER timestamp than the tombstone, inverting the §4.3 lineage order
// every index relies on). The second case re-routes to an update, which
// correctly surfaces as a first-updater-wins conflict.
func (h *harness) keyTaken(tx *txn.Tx, key []byte) bool {
	return h.ora.Occupied(key) || len(h.ora.LookupVisible(tx.ID, key)) > 0
}

func (h *harness) viol(step int, op string, format string, args ...any) *Violation {
	return &Violation{Step: step, Op: op, Msg: fmt.Sprintf(format, args...)}
}

// violE is viol carrying the engine error that caused the breach, so fault
// mode can classify it.
func (h *harness) violE(step int, op string, err error, format string, args ...any) *Violation {
	v := h.viol(step, op, format, args...)
	v.Err = err
	return v
}

// lookupTarget finds the row at key visible to tx on BOTH sides and
// cross-checks them: the engine's choice (via the primary MV-PBT, the
// same index WAL replay uses) must carry exactly the oracle's visible row.
// When an old snapshot legitimately sees several rows at the key (its own
// insert next to a predecessor tuple whose delete it cannot see yet), the
// engine's LookupOne surfaces the newest — mirror that with UniquePerKey.
// Returns a nil Tuple and Violation when both agree the key is absent.
func (h *harness) lookupTarget(step int, op Op, tx *txn.Tx, key []byte) (db.RowRef, *Tuple, *Violation) {
	rr, ok, err := h.tbl.LookupOne(tx, h.tbl.Indexes()[0], key, true)
	if err != nil {
		return rr, nil, h.violE(step, op.String(), err, "target lookup: %v", err)
	}
	want := UniquePerKey(keyExtract, h.ora.LookupVisible(tx.ID, key))
	switch {
	case !ok && len(want) == 0:
		return rr, nil, nil
	case !ok:
		return rr, nil, h.viol(step, op.String(), "engine sees no row at %q, oracle sees %q", key, want[0].Row)
	case len(want) == 0:
		return rr, nil, h.viol(step, op.String(), "engine sees row %q at %q, oracle sees none", rr.Row, key)
	case string(rr.Row) != string(want[0].Row):
		return rr, nil, h.viol(step, op.String(), "target mismatch at %q: engine %q, oracle %q", key, rr.Row, want[0].Row)
	case rr.VID != want[0].Tuple.EngineVID:
		return rr, nil, h.viol(step, op.String(), "target VID mismatch at %q: engine %d, oracle %d", key, rr.VID, want[0].Tuple.EngineVID)
	}
	return rr, want[0].Tuple, nil
}

// step executes one history op. Returns the violation that stops the run,
// or nil.
func (h *harness) step(i int, op Op) *Violation {
	switch op.Kind {
	case OpInsert:
		c := h.clients[op.Client]
		h.ensureTx(c)
		key := keyBytes(op.Key)
		row := rowBytes(key, i, op.Client)
		if h.keyTaken(c.tx, key) {
			// Occupancy discipline: never two live-or-pending tuples on one
			// key. Re-route to an update of whatever this snapshot sees
			// (which surfaces as a write-write conflict when the row was
			// deleted under the snapshot's feet — exactly what a unique
			// index under snapshot isolation would report).
			return h.writeAt(i, op, c, key, row)
		}
		vid, _, err := h.tbl.Insert(c.tx, row)
		if err != nil {
			return h.violE(i, op.String(), err, "insert: %v", err)
		}
		t := h.ora.Insert(c.tx.ID, row)
		t.EngineVID = vid
		c.record(t.ID, row)
	case OpUpdate:
		c := h.clients[op.Client]
		h.ensureTx(c)
		key := keyBytes(op.Key)
		return h.writeAt(i, op, c, key, rowBytes(key, i, op.Client))
	case OpUpdateKey:
		c := h.clients[op.Client]
		h.ensureTx(c)
		oldKey, newKey := keyBytes(op.Key), keyBytes(op.Key2)
		if op.Key2 != op.Key && h.keyTaken(c.tx, newKey) {
			return nil // target key taken: skip to preserve the discipline
		}
		return h.writeAt(i, op, c, oldKey, rowBytes(newKey, i, op.Client))
	case OpDelete:
		c := h.clients[op.Client]
		h.ensureTx(c)
		return h.writeAt(i, op, c, keyBytes(op.Key), nil)
	case OpLookup:
		c := h.clients[op.Client]
		h.ensureTx(c)
		ix := h.tbl.Index(indexNames[op.Ix])
		return h.compareLookup(i, op.String(), c.tx, ix, keyBytes(op.Key))
	case OpScan:
		c := h.clients[op.Client]
		h.ensureTx(c)
		ix := h.tbl.Index(indexNames[op.Ix])
		return h.compareScan(i, op.String(), c.tx, ix, keyBytes(op.Key), keyBytes(op.Key2))
	case OpCount:
		c := h.clients[op.Client]
		h.ensureTx(c)
		ix := h.tbl.Index(indexNames[op.Ix])
		n, err := h.tbl.Count(c.tx, ix, keyBytes(op.Key), keyBytes(op.Key2))
		if err != nil {
			return h.violE(i, op.String(), err, "count: %v", err)
		}
		rows := h.ora.ScanVisible(c.tx.ID, keyBytes(op.Key), keyBytes(op.Key2))
		if ix.Def.Unique {
			rows = UniquePerKey(keyExtract, rows)
		}
		if want := len(rows); n != want {
			return h.viol(i, op.String(), "count mismatch on %s: engine %d, oracle %d", ix.Def.Name, n, want)
		}
	case OpCommit:
		c := h.clients[op.Client]
		if c.tx == nil {
			return nil
		}
		id := c.tx.ID // capture before Commit: the handle is pooled
		h.eng.Commit(c.tx)
		h.ora.Commit(id)
		return h.commitMirror(i, op, c)
	case OpAbort:
		c := h.clients[op.Client]
		if c.tx == nil {
			return nil
		}
		id := c.tx.ID
		h.eng.Abort(c.tx)
		h.ora.Abort(id)
		c.reset()
	case OpVacuum:
		if _, err := h.tbl.Vacuum(); err != nil {
			return h.violE(i, op.String(), err, "vacuum: %v", err)
		}
	case OpEvict:
		for _, name := range []string{"mv", "mvu"} {
			if err := h.tbl.Index(name).MV().EvictPN(); err != nil {
				return h.violE(i, op.String(), err, "evict %s: %v", name, err)
			}
		}
		if err := h.tbl.Index("pb").PB().EvictPN(); err != nil {
			return h.violE(i, op.String(), err, "evict pb: %v", err)
		}
	case OpMerge:
		for _, name := range []string{"mv", "mvu"} {
			if err := h.tbl.Index(name).MV().MergePartitions(); err != nil {
				return h.violE(i, op.String(), err, "merge %s: %v", name, err)
			}
		}
	case OpBarrier:
		return h.audit(i, op.String())
	case OpCrash:
		return h.crash(i)
	case OpFaultRead, OpFaultWrite:
		kind := ssd.FaultReadErr
		if op.Kind == OpFaultWrite {
			kind = ssd.FaultWriteErr
		}
		// 1-3 consecutive failures of the next matching I/O: up to 2 are
		// masked in-line by the buffer pool's bounded retry; 3 exhaust it
		// and escalate to a crash-recovery.
		n := 1 + op.Key%3
		sched := make([]uint64, n)
		for j := range sched {
			sched[j] = uint64(j + 1)
		}
		h.eng.Dev.ArmFault(ssd.FaultRule{Kind: kind, Class: faultClass(op.Key), Ops: sched})
	case OpFaultFlip:
		// One-shot bit rot under the next matching page read, never the WAL
		// (ClassMeta): the page checksum must catch it — a rotted index page
		// is quarantined and rebuilt from the heap, a rotted heap page is a
		// hard error absorbed by crash-recovery. Empty the buffer pool first;
		// otherwise the small working set stays cached and the armed rot
		// almost never sees a device read.
		if err := h.eng.Pool.FlushAll(); err != nil {
			return h.violE(i, op.String(), err, "pre-rot flush: %v", err)
		}
		if err := h.eng.Pool.EvictAll(); err != nil {
			return h.violE(i, op.String(), err, "pre-rot evict: %v", err)
		}
		h.eng.Dev.ArmFault(ssd.FaultRule{
			Kind: ssd.FaultBitFlip, Class: faultClass(op.Key),
			ByteOffset: 16 + op.Key*37, BitMask: byte(1 << (op.Key % 8)),
			Ops: []uint64{1},
		})
	case OpTornCommit:
		return h.tornCommit(i, op)
	case OpTornBatch:
		return h.tornBatch(i, op)
	}
	return nil
}

// faultClass derives the deterministic fault scope from a key ordinal:
// base-table or index extents, never ClassMeta — WAL faults are exercised
// exclusively by OpTornCommit, whose in-doubt outcome the harness resolves
// explicitly (a blind read/write error on the log would leave the oracle
// unable to know what recovery will see).
func faultClass(key int) int {
	if key%2 == 1 {
		return int(sfile.ClassIndex)
	}
	return int(sfile.ClassTable)
}

// commitMirror propagates client c's committed write set into the LSM
// mirror and resets the client.
func (h *harness) commitMirror(i int, op Op, c *client) *Violation {
	for _, tid := range c.order {
		row := c.writes[tid]
		if row == nil {
			if err := h.mirror.Delete(tidKey(tid)); err != nil {
				return h.violE(i, op.String(), err, "mirror delete: %v", err)
			}
		} else if err := h.mirror.Put(tidKey(tid), row); err != nil {
			return h.violE(i, op.String(), err, "mirror put: %v", err)
		}
	}
	c.reset()
	return nil
}

// tornCommit commits client op.Client's transaction (begun if it has none)
// through a torn WAL flush: tornFlush over that one client.
func (h *harness) tornCommit(i int, op Op) *Violation {
	c := h.clients[op.Client]
	h.ensureTx(c)
	return h.tornFlush(i, op, []*client{c})
}

// tornBatch drives a batched group commit through a torn WAL flush: every
// client's open transaction joins one CommitDurable.
func (h *harness) tornBatch(i int, op Op) *Violation {
	var cls []*client
	for _, c := range h.clients {
		if c.tx != nil {
			cls = append(cls, c)
		}
	}
	if len(cls) == 0 {
		return nil
	}
	return h.tornFlush(i, op, cls)
}

// tornFlush commits cls' transactions through one CommitDurable whose page
// writes all tear (persisting only a prefix of each page's sectors), leaving
// EVERY logged member in doubt at once. Commit records were appended in
// order, so the tear typically persists a prefix of them: each member is
// resolved independently against the durable bytes — exactly the question
// recovery will answer — the verdicts are applied to the oracle, and the run
// crash-restarts. Lockstep after recovery is the assertion: a torn flush may
// cost unacknowledged transactions, but never an acknowledged one and never
// consistency.
func (h *harness) tornFlush(i int, op Op, cls []*client) *Violation {
	txs := make([]*txn.Tx, len(cls))
	txids := make([]txn.TxID, len(cls)) // captured before the commit: handles are pooled
	for j, c := range cls {
		txs[j], txids[j] = c.tx, c.tx.ID
	}
	id := h.eng.Dev.ArmFault(ssd.FaultRule{
		Kind: ssd.FaultTornWrite, Class: int(sfile.ClassMeta),
		// The log writer retries a failing page write up to 3 times; tear
		// all of them so the flush genuinely fails.
		Ops:         []uint64{1, 2, 3},
		TornSectors: op.Key % (storage.PageSize / ssd.SectorSize),
	})
	err := h.eng.CommitDurable(txs...)
	h.eng.Dev.DisarmFault(id)
	if err == nil {
		// The flush dodged the fault (e.g. every member read-only and never
		// touching the log): a plain successful commit.
		for j, c := range cls {
			h.ora.Commit(txids[j])
			if v := h.commitMirror(i, op, c); v != nil {
				return v
			}
		}
		return nil
	}
	if !errors.Is(err, storage.ErrIOFault) {
		return h.violE(i, op.String(), err, "torn flush: %v", err)
	}
	img := h.eng.LogImage()
	for j, c := range cls {
		if logCommitted(img, txids[j]) {
			h.ora.Commit(txids[j])
			if v := h.commitMirror(i, op, c); v != nil {
				return v
			}
		} else {
			h.ora.Abort(txids[j])
			c.reset()
		}
	}
	h.res.FaultRecoveries++
	return h.crash(i)
}

// logCommitted reports whether the readable prefix of a durable log image
// contains txid's commit record — the exact question recovery will answer.
func logCommitted(image []byte, txid txn.TxID) bool {
	r := wal.NewReaderFromBytes(image)
	for {
		rec, ok := r.Next()
		if !ok {
			return false
		}
		if rec.Op == wal.OpCommit && rec.TxID == uint64(txid) {
			return true
		}
	}
}

// writeAt applies an update (newRow != nil) or delete (nil) at key for
// client c, checking write-conflict parity between engine and oracle.
func (h *harness) writeAt(i int, op Op, c *client, key, newRow []byte) *Violation {
	rr, t, v := h.lookupTarget(i, op, c.tx, key)
	if v != nil {
		return v
	}
	if t == nil {
		return nil // key absent for this snapshot on both sides: no-op
	}
	var engErr error
	if newRow == nil {
		engErr = h.tbl.Delete(c.tx, rr)
	} else {
		_, engErr = h.tbl.Update(c.tx, rr, newRow)
	}
	engConflict := errors.Is(engErr, heap.ErrWriteConflict)
	if engErr != nil && !engConflict {
		return h.violE(i, op.String(), engErr, "write: %v", engErr)
	}
	oraOK := h.ora.Write(c.tx.ID, t, newRow)
	switch {
	case engConflict && oraOK:
		return h.viol(i, op.String(), "engine reports write conflict, oracle allows the write")
	case !engConflict && !oraOK:
		return h.viol(i, op.String(), "engine allows the write, oracle reports a conflict")
	case engConflict:
		h.res.Conflicts++
		return nil
	}
	c.record(t.ID, newRow)
	return nil
}

// crash simulates power loss and recovery: capture the durable WAL bytes,
// kill the engine, rebuild schema, replay, collapse the oracle, remap
// tuple→VID via a full scan (which is itself the crash invariant: the
// recovered state must equal the oracle's committed state), and reseed
// the LSM mirror (a cache in this harness, not WAL-protected).
func (h *harness) crash(i int) *Violation {
	h.harvestFaults()
	img := h.eng.LogImage()
	h.eng.Crash()
	for _, c := range h.clients {
		c.reset()
	}
	if err := h.buildEngine(); err != nil {
		return h.viol(i, "crash", "rebuild: %v", err)
	}
	if _, err := h.eng.Recover(img); err != nil {
		return h.viol(i, "crash", "recover: %v", err)
	}
	h.ora.Restart()
	h.res.Crashes++

	want := h.ora.CommittedRows()
	tx, done := h.freshTx()
	var got []db.RowRef
	err := h.tbl.Scan(tx, h.tbl.Indexes()[0], keyBytes(0), nil, true, func(rr db.RowRef) bool {
		rr.Row = append([]byte(nil), rr.Row...)
		got = append(got, rr)
		return true
	})
	if err != nil {
		done()
		return h.viol(i, "crash", "post-recovery scan: %v", err)
	}
	done()
	if len(got) != len(want) {
		return h.viol(i, "crash", "recovered %d rows, oracle committed state has %d", len(got), len(want))
	}
	for j := range got {
		if string(got[j].Row) != string(want[j].Row) {
			return h.viol(i, "crash", "recovered row %d: engine %q, oracle %q", j, got[j].Row, want[j].Row)
		}
		// Recovery reassigns VIDs; re-learn the mapping from the scan.
		want[j].Tuple.EngineVID = got[j].VID
	}
	for _, vr := range want {
		if err := h.mirror.Put(tidKey(vr.Tuple.ID), vr.Row); err != nil {
			return h.viol(i, "crash", "mirror reseed: %v", err)
		}
	}
	return h.audit(i, "crash")
}

// harvestFaults folds the device's injected-fault counters into the result.
// It runs once per device: before a crash discards it (the rebuilt engine
// gets a fresh device) and once at the end of the run.
func (h *harness) harvestFaults() {
	for i, n := range h.eng.Dev.Stats().Faults.Injected {
		h.res.Faults.Injected[i] += n
	}
	h.res.Rebuilds += h.tbl.Rebuilds()
}

// finish seals the result: harvest the last engine incarnation's fault
// counters and fingerprint the oracle's final committed state.
func (h *harness) finish() Result {
	if h.eng != nil {
		h.harvestFaults()
	}
	rows := h.ora.CommittedRows()
	state := make([][2]string, len(rows))
	for i, vr := range rows {
		state[i] = [2]string{string(tidKey(vr.Tuple.ID)), string(vr.Row)}
	}
	h.res.StateHash = stateHash(state)
	return h.res
}

// faultDamage reports whether v is collateral damage of an injected device
// fault — a typed storage error that escaped every masking layer — rather
// than a logic bug. Only meaningful while fault injection is on.
func faultDamage(v *Violation) bool {
	return v.Err != nil &&
		(errors.Is(v.Err, storage.ErrIOFault) || errors.Is(v.Err, storage.ErrCorruptPage))
}

// Replay executes a fixed history against a fresh harness. Panics are
// converted into violations so a seeded fault that trips an internal
// assertion still yields a shrinkable failure instead of killing the run.
func Replay(cfg RunConfig, ops []Op) (res Result) {
	cfg = cfg.withDefaults()
	h, err := newHarness(cfg)
	if err != nil {
		return Result{Violation: &Violation{Step: 0, Op: "setup", Msg: err.Error()}}
	}
	curStep := 0
	defer func() {
		if r := recover(); r != nil {
			h.res.Ops = curStep
			h.res.Violation = &Violation{Step: curStep, Op: "panic", Msg: fmt.Sprint(r)}
			res = h.finish()
			return
		}
		if h.eng != nil {
			h.eng.Close()
		}
	}()
	for i, op := range ops {
		curStep = i
		v := h.step(i, op)
		if v == nil && (cfg.StepAudit || (i+1)%auditEvery == 0) &&
			op.Kind != OpBarrier && op.Kind != OpCrash { // those just audited
			v = h.audit(i, op.String())
		}
		if v != nil && cfg.Faults && faultDamage(v) {
			// An injected fault made it to the top of an op instead of being
			// masked in a lower layer (e.g. heap-page rot, retry-exhausting
			// error bursts). That is legal — but it must be RECOVERABLE:
			// disarm everything, crash-restart, and hold the engine to the
			// oracle's committed state like any other crash.
			h.eng.Dev.DisarmAllFaults()
			h.res.FaultRecoveries++
			v = h.crash(i)
		}
		if v != nil {
			h.res.Ops = i + 1
			h.res.Violation = v
			return h.finish()
		}
	}
	h.res.Ops = len(ops)
	// Armed-but-unfired rules must not leak into the shutdown flushes.
	h.eng.Dev.DisarmAllFaults()
	h.res.Violation = h.audit(len(ops), "final audit")
	return h.finish()
}

// Run generates the history for cfg and replays it. A violation comes back
// with the minimal failing history Shrink finds attached.
func Run(cfg RunConfig) Result {
	ops := Generate(cfg)
	r := Replay(cfg, ops)
	if r.Violation != nil {
		r.Violation.History = Shrink(cfg, ops, 0)
	}
	return r
}
