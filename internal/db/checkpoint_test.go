package db

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mvpbt/internal/sfile"
	"mvpbt/internal/ssd"
	"mvpbt/internal/txn"
)

// walTableKind is walTable with a selectable heap organization — the
// checkpoint tests run against both HOT and SIAS.
func walTableKind(t *testing.T, hk HeapKind, cfg Config) (*Engine, *Table, *Index) {
	t.Helper()
	cfg.EnableWAL = true
	if cfg.BufferPages == 0 {
		cfg.BufferPages = 1024
	}
	if cfg.PartitionBufferBytes == 0 {
		cfg.PartitionBufferBytes = 1 << 22
	}
	e := NewEngine(cfg)
	tbl, err := e.NewTable("accounts", hk, IndexDef{
		Name: "pk", Kind: IdxMVPBT, Unique: true, BloomBits: 10, Extract: keyExtract,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, tbl, tbl.Indexes()[0]
}

func bothHeaps(t *testing.T, fn func(t *testing.T, hk HeapKind)) {
	for _, hk := range []HeapKind{HeapHOT, HeapSIAS} {
		t.Run(hk.String(), func(t *testing.T) { fn(t, hk) })
	}
}

func insertN(t *testing.T, e *Engine, tbl *Table, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		tx := e.Begin()
		if _, _, err := tbl.Insert(tx, row(fmt.Sprintf("k%04d", i), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		e.Commit(tx)
	}
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	bothHeaps(t, func(t *testing.T, hk HeapKind) {
		e, tbl, ix := walTableKind(t, hk, Config{})
		insertN(t, e, tbl, 0, 200)
		// Churn versions so the log is much bigger than the live state (the
		// snapshot must undercut the history even with the 2-page superblock
		// overhead the first checkpoint adds).
		for round := 0; round < 8; round++ {
			for i := 0; i < 200; i += 4 {
				tx := e.Begin()
				key := []byte(fmt.Sprintf("k%04d", i))
				cur, found, err := tbl.LookupOne(tx, ix, key, true)
				if err != nil || !found {
					t.Fatalf("lookup: %v %v", cur, err)
				}
				if _, err := tbl.Update(tx, cur, row(string(key), fmt.Sprintf("u%d", round))); err != nil {
					t.Fatal(err)
				}
				e.Commit(tx)
			}
		}
		want := snapshotState(t, e, tbl, ix)
		before := e.WALDeviceBytes()

		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		after := e.WALDeviceBytes()
		if after >= before {
			t.Fatalf("checkpoint did not shrink the log: %d -> %d bytes", before, after)
		}
		st := e.CheckpointInfo()
		if st.Count != 1 || st.WALBytesBefore != before {
			t.Fatalf("stats wrong: %+v (before=%d)", st, before)
		}

		// The checkpointed log must recover to the same state...
		_, tbl2, ix2, applied := recoverInto(t, e.LogImage())
		if applied != 1 {
			t.Fatalf("applied %d txs from a pure snapshot, want 1", applied)
		}
		if got := snapshotState(t, tbl2.eng, tbl2, ix2); !mapsEqual(got, want) {
			t.Fatalf("recovered state diverged:\n got %v\nwant %v", got, want)
		}

		// ...and keep accepting appends: post-checkpoint commits recover too.
		insertN(t, e, tbl, 200, 210)
		want = snapshotState(t, e, tbl, ix)
		_, tbl3, ix3, _ := recoverInto(t, e.LogImage())
		if got := snapshotState(t, tbl3.eng, tbl3, ix3); !mapsEqual(got, want) {
			t.Fatalf("post-checkpoint appends lost:\n got %v\nwant %v", got, want)
		}
	})
}

func TestCheckpointRequiresQuiescence(t *testing.T) {
	e, tbl, _ := walTableKind(t, HeapSIAS, Config{})
	insertN(t, e, tbl, 0, 5)
	tx := e.Begin()
	defer e.Abort(tx)
	if err := e.Checkpoint(); !errors.Is(err, ErrCheckpointBusy) {
		t.Fatalf("Checkpoint with an active tx: got %v, want ErrCheckpointBusy", err)
	}
}

func TestCheckpointSecondGenerationAlternatesSlot(t *testing.T) {
	e, tbl, ix := walTableKind(t, HeapSIAS, Config{})
	insertN(t, e, tbl, 0, 50)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insertN(t, e, tbl, 50, 100)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := e.CheckpointInfo(); st.Count != 2 {
		t.Fatalf("count = %d, want 2", st.Count)
	}
	want := snapshotState(t, e, tbl, ix)
	_, tbl2, ix2, _ := recoverInto(t, e.LogImage())
	if got := snapshotState(t, tbl2.eng, tbl2, ix2); !mapsEqual(got, want) {
		t.Fatalf("second-generation recovery diverged:\n got %v\nwant %v", got, want)
	}
}

// TestCheckpointCrashPoints crashes at each instant of the checkpoint
// protocol — snapshot durable but superblock unwritten; superblock written
// but old log not yet freed; old log freed but nothing appended since — and
// checks the surviving log image recovers to the pre-checkpoint state, for
// both heap organizations. A "crash" is taking the durable log image at
// that instant: recovery depends on nothing else. Which generation each
// instant leaves authoritative is wal.TestLogCrashPoints' half; this one
// checks the snapshot rows themselves replay to the same state.
func TestCheckpointCrashPoints(t *testing.T) {
	bothHeaps(t, func(t *testing.T, hk HeapKind) {
		for _, point := range []string{"before-super", "after-super", "after-truncate"} {
			t.Run(point, func(t *testing.T) {
				e, tbl, ix := walTableKind(t, hk, Config{})
				insertN(t, e, tbl, 0, 60)
				want := snapshotState(t, e, tbl, ix)

				var img []byte
				capture := func(b []byte, _ uint64) { img = b }
				switch point {
				case "before-super":
					e.log.BeforeSuper = capture
				case "after-super":
					e.log.AfterSuper = capture
				case "after-truncate":
					e.log.AfterFree = capture
				}
				if err := e.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if img == nil {
					t.Fatal("crash hook never fired")
				}
				_, tbl2, ix2, _ := recoverInto(t, img)
				if got := snapshotState(t, tbl2.eng, tbl2, ix2); !mapsEqual(got, want) {
					t.Fatalf("crash at %s diverged:\n got %v\nwant %v", point, got, want)
				}
			})
		}
	})
}

// TestCheckpointCrashAfterPostTruncateAppend covers the remaining window:
// the first commits AFTER a checkpoint land in the new generation, then the
// engine crashes. Recovery must see snapshot + suffix.
func TestCheckpointCrashAfterPostTruncateAppend(t *testing.T) {
	bothHeaps(t, func(t *testing.T, hk HeapKind) {
		e, tbl, ix := walTableKind(t, hk, Config{})
		insertN(t, e, tbl, 0, 40)
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		insertN(t, e, tbl, 40, 45)
		// Capture the image before snapshotState: its read-only transaction
		// would otherwise append one more begin/commit pair to the log.
		img := e.LogImage()
		want := snapshotState(t, e, tbl, ix)
		_, tbl2, ix2, applied := recoverInto(t, img)
		if applied != 1+5 {
			t.Fatalf("applied = %d, want 6 (snapshot + 5 commits)", applied)
		}
		if got := snapshotState(t, tbl2.eng, tbl2, ix2); !mapsEqual(got, want) {
			t.Fatalf("snapshot+suffix recovery diverged:\n got %v\nwant %v", got, want)
		}
	})
}

// TestWALFlushesMonotonicAcrossCheckpoints: WALStats.Flushes counts the
// log's flushes, not the current generation's — it used to restart at every
// checkpoint, which made flushes/commit meaningless on any engine with
// WALCheckpointBytes set.
func TestWALFlushesMonotonicAcrossCheckpoints(t *testing.T) {
	e, tbl, _ := walTableKind(t, HeapSIAS, Config{})
	last := int64(0)
	for round := 0; round < 3; round++ {
		insertN(t, e, tbl, round*20, round*20+20)
		if got := e.WALStatsSnapshot().Flushes; got < last+20 {
			t.Fatalf("round %d: Flushes = %d after 20 more commits, was %d", round, got, last)
		}
		last = e.WALStatsSnapshot().Flushes
		if round == 2 {
			break
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := e.WALStatsSnapshot().Flushes; got != last+1 {
			t.Fatalf("checkpoint %d: Flushes = %d, want %d (the snapshot flush on top of %d)", round+1, got, last+1, last)
		}
		last++
	}
	if st := e.WALStatsSnapshot(); st.Commits != 60 || st.Flushes != 62 {
		t.Fatalf("60 commits and 2 checkpoints: %+v, want 62 flushes", st)
	}
}

func TestAutoCheckpoint(t *testing.T) {
	e, tbl, ix := walTableKind(t, HeapSIAS, Config{WALCheckpointBytes: 4 << 10})
	insertN(t, e, tbl, 0, 300)
	st := e.CheckpointInfo()
	if st.Count == 0 {
		t.Fatal("auto-checkpoint never triggered")
	}
	want := snapshotState(t, e, tbl, ix)
	_, tbl2, ix2, _ := recoverInto(t, e.LogImage())
	if got := snapshotState(t, tbl2.eng, tbl2, ix2); !mapsEqual(got, want) {
		t.Fatalf("auto-checkpointed log diverged:\n got %v\nwant %v", got, want)
	}
}

// TestAutoCheckpointSingleFlight: committers that cross the threshold
// together rotate the log once. Every round opens and writes all its
// transactions before the first one commits, so no checkpoint can run until
// the last has committed (ErrCheckpointBusy) and then every committer still
// inside maybeAutoCheckpoint finds the engine quiescent and the log grown.
// A round logs ~9 KB against a 20 KiB threshold: exactly every third round
// crosses it, and must leave exactly one more rotation behind. Without the
// flight, two of a crossing round's committers could both pass the growth
// check and checkpoint back to back.
func TestAutoCheckpointSingleFlight(t *testing.T) {
	const rounds = 12
	e, tbl, _ := walTableKind(t, HeapSIAS, Config{WALCheckpointBytes: 20 << 10})
	for round := 0; round < rounds; round++ {
		commitTogether(t, e, tbl, round, nil)
		if got, want := e.CheckpointInfo().Count, int64(round+1)/3; got != want {
			t.Fatalf("after round %d: %d checkpoints, want %d (one per threshold crossing)", round+1, got, want)
		}
	}
}

// commitTogether opens eight transactions, has each log ~1 KB, and then
// commits them all at once, with also running beside the commits if not nil.
func commitTogether(t *testing.T, e *Engine, tbl *Table, round int, also func()) {
	t.Helper()
	val := strings.Repeat("v", 1<<10)
	txs := make([]*txn.Tx, 8)
	for c := range txs {
		txs[c] = e.Begin()
		if _, _, err := tbl.Insert(txs[c], row(fmt.Sprintf("k%02d-%02d", round, c), val)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	if also != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			also()
		}()
	}
	for _, tx := range txs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.CommitDurable(tx); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestReclaimJoinsCheckpointFlight: a reclamation pass racing a threshold
// crossing rotates the log once, whichever gets there first. Every round
// crosses the 4 KiB threshold and, as above, can checkpoint only once its
// last transaction has committed, which the pass waits for. It then either
// checkpoints first — and the committers queued behind it find the log short
// again — or queues behind a committer's checkpoint and finds nothing
// appended since. Outside the flight it rotated a second time in the second
// case, and in the first whenever a committer had re-checked already.
func TestReclaimJoinsCheckpointFlight(t *testing.T) {
	e, tbl, _ := walTableKind(t, HeapSIAS, Config{WALCheckpointBytes: 4 << 10})
	for round := 0; round < 40; round++ {
		commitTogether(t, e, tbl, round, func() {
			for e.Mgr.ActiveCount() != 0 { // a pass on a busy engine skips its checkpoint
				runtime.Gosched()
			}
			if err := e.ReclaimNow(); err != nil {
				t.Error(err)
			}
		})
		if got := e.CheckpointInfo().Count; got != int64(round+1) {
			t.Fatalf("after round %d: %d checkpoints, want one per round", round+1, got)
		}
	}
}

// TestLogTrafficAndCheckpointErrorsAreVisible: WALStats.DeviceBytes is what
// the log's flushes wrote to the device — whole sectors, at least every
// logical byte once, carried across checkpoints like Flushes — and a
// checkpoint that fails for any reason but a busy engine shows up in
// CheckpointStats.Errors, the only trace it leaves.
func TestLogTrafficAndCheckpointErrorsAreVisible(t *testing.T) {
	e, tbl, _ := walTableKind(t, HeapSIAS, Config{})
	insertN(t, e, tbl, 0, 40)
	ws := e.WALStatsSnapshot()
	if ws.DeviceBytes%ssd.SectorSize != 0 || ws.DeviceBytes < ws.LogicalBytes || ws.LogicalBytes == 0 ||
		ws.DeviceBytes > ws.LogicalBytes+2*ssd.SectorSize*ws.Flushes {
		t.Fatalf("40 small commits: %+v, want whole sectors, at most two partial ones per flush", ws)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := e.WALStatsSnapshot()
	if after.DeviceBytes <= ws.DeviceBytes || after.LogicalBytes <= ws.LogicalBytes {
		t.Fatalf("checkpoint restarted the traffic counters: %+v -> %+v", ws, after)
	}

	// Busy is not an error; a device that refuses the new generation is. (A
	// pass checkpoints only a generation something was appended to.)
	insertN(t, e, tbl, 40, 42)
	tx := e.Begin()
	e.reclaimSpace() //nolint:errcheck // only the checkpoint lever is under test
	e.Abort(tx)
	if got := e.CheckpointInfo().Errors; got != 0 {
		t.Fatalf("a busy checkpoint counted as %d errors", got)
	}
	id := e.Dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultWriteErr, Class: int(sfile.ClassMeta), Sticky: true})
	e.reclaimSpace() //nolint:errcheck
	e.Dev.DisarmFault(id)
	if st := e.CheckpointInfo(); st.Errors != 1 || st.Count != 1 {
		t.Fatalf("failed checkpoint: %+v, want 1 error and still 1 completed checkpoint", st)
	}
	insertN(t, e, tbl, 42, 45) // the old generation stayed authoritative and writable
}

// TestCheckpointReplayIsRecoverable: recovering a checkpointed log re-logs
// everything (snapshot rows become ordinary inserts), so the recovered
// engine's own log must again recover to the same state.
func TestCheckpointReplayIsRecoverable(t *testing.T) {
	e, tbl, ix := walTableKind(t, HeapSIAS, Config{})
	insertN(t, e, tbl, 0, 30)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := snapshotState(t, e, tbl, ix)
	_, tbl2, _, _ := recoverInto(t, e.LogImage())
	_, tbl3, ix3, _ := recoverInto(t, tbl2.eng.LogImage())
	if got := snapshotState(t, tbl3.eng, tbl3, ix3); !mapsEqual(got, want) {
		t.Fatalf("recovery-of-recovery diverged:\n got %v\nwant %v", got, want)
	}
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
