package check

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"mvpbt/internal/db"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/workload/hostile"
)

// The exhaustion campaign: on a capacity-bounded device, filling to the hard
// watermark must flip the engine into degraded read-only mode WITHOUT losing
// read correctness (every read while degraded is held to the oracle),
// reclamation — WAL checkpoint/truncation, garbage collection, heap vacuum —
// must recover at least the soft-watermark headroom so writes resume by
// themselves, and the recovered state must equal the oracle's. A
// deterministic ENOSPC is also injected through the fault-rule machinery
// (FaultNoSpace on a heap extent allocation) to prove the typed-error path
// degrades and recovers too — this is the injection the fault campaign
// deliberately leaves to this one.
var exhaustCampaign = &Campaign{
	Name:  "exhaust",
	Seeds: 4,
	Cells: func(seeds []uint64, _ Size) []Cell {
		var cells []Cell
		for _, hk := range []db.HeapKind{db.HeapHOT, db.HeapSIAS} {
			for _, seed := range seeds {
				cells = append(cells, Cell{
					Coords: []Coord{{"heap", hk.String()}, seedCoord(seed)},
					Run:    func() (Fingerprint, error) { return exhaustCell(hk, seed) },
				})
			}
		}
		return cells
	},
}

const (
	// exhaustKeys is the live key-space churned during the fill.
	exhaustKeys = 48
	// exhaustMaxTx bounds the fill loop.
	exhaustMaxTx = 30000
)

// ExhaustFingerprint is the determinism-relevant outcome of one fill cell.
type ExhaustFingerprint struct {
	// FillTxs is the number of committed update transactions it took to
	// degrade the engine.
	FillTxs int
	// NoSpaceInjected counts FaultNoSpace injections (the ENOSPC probe).
	NoSpaceInjected int64
	// Governor counters at the end of the scenario.
	ROEntries, ROExits, Reclaims int64
	// Live device bytes and WAL device bytes at the moment of degradation
	// and after reclamation re-opened the engine.
	LiveAtRO, WALAtRO, LiveAfter, WALAfter int64
	// RecoveredTxs is the transaction count replayed from the final log.
	RecoveredTxs int
	// StateHash fingerprints the recovered engine's visible rows (FNV-1a
	// over key/row pairs in key order).
	StateHash uint64
}

func (fp ExhaustFingerprint) String() string {
	return fmt.Sprintf("%d fill txs, ro %d/%d, %d reclaims, wal %d->%d, live %d->%d, %d enospc, hash %016x",
		fp.FillTxs, fp.ROEntries, fp.ROExits, fp.Reclaims, fp.WALAtRO, fp.WALAfter,
		fp.LiveAtRO, fp.LiveAfter, fp.NoSpaceInjected, fp.StateHash)
}

// exhaustTable builds the fill cell's engine: a 16 MiB device with the
// governor watermarks at 3 and 4 MiB — far below capacity, so the
// watermarks, not raw ENOSPC, decide.
func exhaustTable(hk db.HeapKind) (*hostile.Table, error) {
	return hostile.NewTable(db.Config{
		BufferPages:          2048,
		PartitionBufferBytes: 1 << 22,
		EnableWAL:            true,
		// Commits run through the group-commit batcher (deterministic
		// batches of one: the cell is single-threaded, MaxDelay 0) so
		// exhaustion testing covers the production commit pipeline.
		GroupCommit:         db.GroupCommitConfig{Enabled: true},
		DeviceCapacityBytes: 16 << 20,
		SpaceSoftBytes:      3 << 20,
		SpaceHardBytes:      4 << 20,
	}, hk, 4)
}

// exhaustCell is one full pass: seed rows, prove the injected-ENOSPC path,
// fill to read-only under a pinning reader, hold degraded reads to the
// oracle, reclaim, resume writes, crash-recover, fingerprint.
func exhaustCell(hk db.HeapKind, seed uint64) (fp ExhaustFingerprint, err error) {
	x, err := exhaustTable(hk)
	if err != nil {
		return fp, fmt.Errorf("setup: %w", err)
	}
	defer func() { x.Eng.Close() }() // x is rebound across the crash below
	rng := rand.New(rand.NewSource(int64(seed)))

	// Seed the live key-space.
	for i := 0; i < exhaustKeys; i++ {
		if err := x.Put(fmt.Sprintf("k%04d", i), fmt.Sprintf("s%d.%d", seed, i)); err != nil {
			return fp, fmt.Errorf("seed: %w", err)
		}
	}

	// Deterministic ENOSPC via the fault-rule machinery: the next extent
	// allocation fails with storage.ErrNoSpace. All probe inserts ride ONE
	// uncommitted transaction, so no WAL flush runs while the rule is armed
	// and the first allocation is guaranteed to be a heap extent — the
	// typed error surfaces through the write, degrades the engine, and the
	// abort-boundary reclamation re-opens it (live bytes are far below soft
	// here). Class scoping would not help: a fresh-frontier allocation has
	// no class registered yet, so only AnyClass rules can match it.
	faultID := x.Eng.Dev.ArmFault(ssd.FaultRule{
		Kind: ssd.FaultNoSpace, Class: ssd.AnyClass, Ops: []uint64{1},
	})
	probeTx := x.Eng.Begin()
	var nospace error
	for i := 0; i < 500 && nospace == nil; i++ {
		// Fat rows force a fresh heap extent within a few inserts.
		_, _, nospace = x.Tbl.Insert(probeTx, hostile.Row(fmt.Sprintf("p%04d", i), strings.Repeat("y", 4000)))
	}
	x.Eng.Dev.DisarmFault(faultID)
	x.Eng.Abort(probeTx)
	fp.NoSpaceInjected = x.Eng.Dev.FaultCounters().Injected[ssd.FaultNoSpace]
	switch {
	case nospace == nil:
		return fp, errors.New("enospc-probe: armed FaultNoSpace never fired within 500 inserts")
	case !errors.Is(nospace, storage.ErrNoSpace):
		return fp, fmt.Errorf("enospc-probe: injected allocation failure surfaced as %w, want storage.ErrNoSpace", nospace)
	case fp.NoSpaceInjected == 0:
		return fp, errors.New("enospc-probe: FaultNoSpace counter did not advance")
	case x.Eng.ReadOnly():
		return fp, errors.New("enospc-probe: engine still read-only after the injected ENOSPC was reclaimed away")
	case x.Eng.SpaceInfo().ROEntries == 0:
		return fp, errors.New("enospc-probe: injected ENOSPC never degraded the engine")
	}
	if err := x.CheckState("enospc-probe"); err != nil {
		return fp, err
	}

	// Fill to the hard watermark. The long-running reader pins the garbage
	// horizon and keeps the checkpoint busy, so the soft-watermark
	// reclamation passes cannot free anything — degradation is guaranteed.
	reader := x.Eng.Begin()
	readerOpen := true
	defer func() {
		if readerOpen {
			x.Eng.Abort(reader)
		}
	}()
	for fp.FillTxs = 0; fp.FillTxs < exhaustMaxTx && !x.Eng.ReadOnly(); fp.FillTxs++ {
		key := fmt.Sprintf("k%04d", fp.FillTxs%exhaustKeys)
		val := fmt.Sprintf("u%d.%s", fp.FillTxs, strings.Repeat("x", 200+rng.Intn(120)))
		if err := x.Put(key, val); err != nil {
			if errors.Is(err, db.ErrReadOnly) || errors.Is(err, storage.ErrNoSpace) {
				break
			}
			return fp, fmt.Errorf("fill: %w", err)
		}
	}
	if !x.Eng.ReadOnly() {
		return fp, fmt.Errorf("fill: engine never degraded after %d update transactions (live=%d)", fp.FillTxs, x.Eng.FM.LiveBytes())
	}
	fp.LiveAtRO = x.Eng.SpaceInfo().Live
	fp.WALAtRO = x.Eng.WALDeviceBytes()

	// Degraded: writes fail fast with the typed error, reads stay
	// oracle-correct.
	tx := x.Eng.Begin()
	_, _, err = x.Tbl.Insert(tx, hostile.Row("nope", "x"))
	x.Eng.Abort(tx)
	if !errors.Is(err, db.ErrReadOnly) {
		return fp, fmt.Errorf("degraded: insert while degraded returned %v, want db.ErrReadOnly", err)
	}
	if err := x.CheckState("degraded"); err != nil {
		return fp, err
	}
	if st := x.Eng.SpaceInfo(); !st.ReadOnly {
		return fp, fmt.Errorf("degraded: space stats disagree with ReadOnly(): %+v", st)
	}

	// Ending the reader unpins the horizon; its abort boundary retries
	// reclamation (checkpoint truncation, GC, vacuum) and the engine must
	// re-open with at least the soft-watermark headroom recovered.
	readerOpen = false
	x.Eng.Abort(reader)
	st := x.Eng.SpaceInfo()
	if st.ReadOnly {
		return fp, fmt.Errorf("reclaim: engine still read-only after reclamation: %+v", st)
	}
	if st.Live >= st.Soft {
		return fp, fmt.Errorf("reclaim: reclamation left live=%d at or above soft=%d", st.Live, st.Soft)
	}
	fp.LiveAfter = st.Live
	fp.WALAfter = x.Eng.WALDeviceBytes()
	if fp.WALAfter >= fp.WALAtRO {
		return fp, fmt.Errorf("reclaim: checkpoint did not truncate the log: %d -> %d bytes", fp.WALAtRO, fp.WALAfter)
	}

	// Writes resume.
	for i := 0; i < 5; i++ {
		if err := x.Put(fmt.Sprintf("r%04d", i), fmt.Sprintf("resume%d", i)); err != nil {
			return fp, fmt.Errorf("resume: %w", err)
		}
	}
	if err := x.CheckState("resume"); err != nil {
		return fp, err
	}
	st = x.Eng.SpaceInfo()
	fp.ROEntries, fp.ROExits, fp.Reclaims = st.ROEntries, st.ROExits, st.Reclaims

	// Crash and recover from the checkpointed log: the snapshot fence plus
	// the post-checkpoint tail must rebuild exactly the oracle state.
	img := x.Eng.LogImage()
	x.Eng.Crash()
	recovered, err := exhaustTable(hk)
	if err != nil {
		return fp, fmt.Errorf("recover: rebuild: %w", err)
	}
	recovered.Expect, x = x.Expect, recovered
	if fp.RecoveredTxs, err = x.Eng.Recover(img); err != nil {
		return fp, fmt.Errorf("recover: %w", err)
	}
	if err := x.CheckState("recover"); err != nil {
		return fp, err
	}
	// The hash covers whole rows, as it has since the campaign's first run.
	rows := make(map[string]string, len(x.Expect))
	for k, v := range x.Expect {
		rows[k] = string(hostile.Row(k, v))
	}
	fp.StateHash = hostile.HashState(rows)
	return fp, nil
}
