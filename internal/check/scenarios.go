package check

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"

	"mvpbt/internal/db"
	"mvpbt/internal/shard"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
	"mvpbt/internal/util"
)

// The hostile-scenario campaign: the access patterns the paper's friendly
// YCSB/TPC-C mixes never produce but production systems do. Hot-key storms
// blow up one key's version chain, sawtooth bulk-load/delete cycles whipsaw
// the space governor, a long analytical snapshot pins the GC horizon until
// the device fills to read-only (then an injected ENOSPC and a crash
// recovery), and tenant-skewed mixes drive the shard router's admission gate.
// Every scenario runs to completion on every device in the zoo, holds its own
// invariants (a scenario that breaks one returns an error) and ends with a
// full scan of the engine held to its acked state, whose hash is the
// fingerprint's StateHash. A scenario runs single-threaded on the virtual
// clock with synchronous maintenance, so it is a deterministic function of
// (device, kind, heap, seed) and any divergence on replay is a nondeterminism
// bug. The three table scenarios run on both heap layouts; tenant-skew drives
// a router over heapless clustered KVs and runs once.
var scenarioCampaign = &Campaign{
	Name:  "scenarios",
	Seeds: 2,
	Cells: func(seeds []uint64, _ Size) []Cell {
		tables := []struct {
			kind string
			run  func(ssd.DeviceSpec, db.HeapKind, uint64) (ScenarioFingerprint, error)
		}{{hotKeyStorm, runHotKey}, {sawtooth, runSawtooth}, {snapshotPin, runSnapshotPin}}
		var cells []Cell
		for _, dev := range ssd.Zoo() {
			for _, sc := range tables {
				for _, hk := range []db.HeapKind{db.HeapHOT, db.HeapSIAS} {
					for _, seed := range seeds {
						cells = append(cells, Cell{
							Coords: []Coord{{"device", dev.Name}, {"kind", sc.kind}, {"heap", hk.String()}, seedCoord(seed)},
							Run:    func() (Fingerprint, error) { return sc.run(dev, hk, seed) },
						})
					}
				}
			}
			for _, seed := range seeds {
				cells = append(cells, Cell{
					Coords: []Coord{{"device", dev.Name}, {"kind", tenantSkew}, seedCoord(seed)},
					Run:    func() (Fingerprint, error) { return runTenantSkew(dev, seed) },
				})
			}
		}
		return cells
	},
}

// The scenarios, by the names their kind= coordinate and -kinds take.
const (
	hotKeyStorm = "hot-key-storm"
	sawtooth    = "sawtooth"
	snapshotPin = "snapshot-pin"
	tenantSkew  = "tenant-skew"
)

// ScenarioFingerprint condenses one scenario run into a comparable value:
// two replays of the same (kind, device, heap, seed) must produce
// fingerprints equal under ==. Fields are scalars, strings and fixed arrays
// ONLY — adding a slice or map here would silently break the determinism
// diff.
type ScenarioFingerprint struct {
	Kind string
	// Committed counts committed transactions; TypedErrs counts expected
	// typed failures (db.ErrReadOnly, storage.ErrNoSpace) absorbed by the
	// scenario's control flow.
	Committed int64
	TypedErrs int64
	// StateHash is the stateHash of the engine's final full scan, held to
	// the scenario's acked state.
	StateHash uint64

	// Device counters, summed over every engine in the scenario.
	Reads, Writes         int64
	SeqWrites, RandWrites int64
	IOTimeNS              int64
	ZNSAppends            int64
	ZNSRedirects          int64
	ZNSResets             int64
	CloudOps              int64
	CloudStalls           int64
	CloudStallNS          int64

	// Space-governor counters, summed over every engine.
	ROEntries, ROExits, Reclaims int64

	// HotKeyStorm: unrelated-key lookup p99 (virtual ns) before and after
	// the storm, and the storm's update count.
	BaseP99NS  int64
	StormP99NS int64
	HotUpdates int64

	// Sawtooth: peak live bytes across load crests and live bytes after
	// the final trough's reclamation.
	PeakLive  int64
	FinalLive int64

	// SnapshotPin: churn transactions it took to degrade the engine; live
	// and WAL device bytes at degradation and after the snapshot's release
	// healed it; the ENOSPC probe's FaultNoSpace injections; and the
	// transactions crash recovery replayed from the final log.
	PinTxs            int64
	PinnedLive        int64
	ReleasedLive      int64
	WALAtRO, WALAfter int64
	NoSpaceInjected   int64
	RecoveredTxs      int

	// TenantSkew: committed ops per tenant, the admission model's
	// queue/shed counts, and the commits that landed after the first
	// load-shed (proof the gate reopened after a maintenance window).
	Tenants        [4]int64
	Queued         int64
	Rejected       int64
	ResumedCommits int64
}

// String is the one-line rendering the campaign runner prints per cell:
// the common counts, then what the scenario exists to show.
func (fp ScenarioFingerprint) String() string {
	var detail string
	switch fp.Kind {
	case hotKeyStorm:
		detail = fmt.Sprintf("p99 %.0fus->%.0fus", float64(fp.BaseP99NS)/1e3, float64(fp.StormP99NS)/1e3)
	case sawtooth:
		detail = fmt.Sprintf("live %.1fMiB->%.1fMiB", float64(fp.PeakLive)/(1<<20), float64(fp.FinalLive)/(1<<20))
	case snapshotPin:
		detail = fmt.Sprintf("ro %d/%d pin %d tx, wal %d->%d, %d enospc, %d replayed",
			fp.ROEntries, fp.ROExits, fp.PinTxs, fp.WALAtRO, fp.WALAfter, fp.NoSpaceInjected, fp.RecoveredTxs)
	case tenantSkew:
		detail = fmt.Sprintf("queued %d shed %d resumed %d", fp.Queued, fp.Rejected, fp.ResumedCommits)
	}
	return fmt.Sprintf("%d commits, %d typed errs, io %d ops / %.1fms, %s, hash %016x",
		fp.Committed, fp.TypedErrs, fp.Reads+fp.Writes, float64(fp.IOTimeNS)/1e6, detail, fp.StateHash)
}

// captureEngine folds one engine's device and governor counters into fp.
func (fp *ScenarioFingerprint) captureEngine(e *db.Engine) {
	st := e.Dev.Stats()
	fp.Reads += st.Reads
	fp.Writes += st.Writes
	fp.SeqWrites += st.SeqWrites
	fp.RandWrites += st.RandWrites
	fp.IOTimeNS += int64(st.IOTime())
	fp.ZNSAppends += st.ZoneAppends
	fp.ZNSRedirects += st.ZoneRedirects
	fp.ZNSResets += st.ZoneResets
	fp.CloudOps += st.ThrottledOps
	fp.CloudStalls += st.Stalls
	fp.CloudStallNS += int64(st.StallTime)
	sp := e.SpaceInfo()
	fp.ROEntries += sp.ROEntries
	fp.ROExits += sp.ROExits
	fp.Reclaims += sp.Reclaims
}

// table is the single-table fixture of the table scenarios: an engine, one
// table with a unique MV-PBT primary index, and what the scenario's one
// client has been acked.
type table struct {
	eng   *db.Engine
	tbl   *db.Table
	ix    *db.Index
	acked expect
}

// newTable builds the fixture on a fresh engine configured by ec, on the
// given device and heap, with the WAL on, so scenarios exercise the
// production commit pipeline (single-threaded, each commit flushes its own
// record).
func newTable(dev ssd.DeviceSpec, heap db.HeapKind, ec db.Config) (*table, error) {
	ec.Device = dev
	ec.EnableWAL = true
	eng := db.NewEngine(ec)
	tbl, err := eng.NewTable("t", heap, db.IndexDef{
		Name: "pk", Kind: db.IdxMVPBT, RefMode: db.RefPhysical, Unique: true,
		Extract: keyExtract, BloomBits: 10, MaxPartitions: 6,
	})
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &table{eng: eng, tbl: tbl, ix: tbl.Indexes()[0], acked: expect{}}, nil
}

// put upserts key=val in one committed transaction and acks it. Typed write
// failures (read-only degradation, exhaustion) are returned untouched for
// the caller's control flow.
func (t *table) put(key, val string) error {
	r := kvRow(key, val)
	tx := t.eng.Begin()
	if _, ok := t.acked.get(key); ok {
		cur, found, err := t.tbl.LookupOne(tx, t.ix, []byte(key), true)
		if err == nil && !found {
			err = fmt.Errorf("committed key %q not visible", key)
		}
		if err == nil {
			_, err = t.tbl.Update(tx, cur, r)
		}
		if err != nil {
			t.eng.Abort(tx)
			return err
		}
	} else if _, _, err := t.tbl.Insert(tx, r); err != nil {
		t.eng.Abort(tx)
		return err
	}
	if err := t.eng.CommitDurable(tx); err != nil {
		t.eng.Abort(tx)
		return err
	}
	t.acked.put(key, val)
	return nil
}

// del removes key in one committed transaction and acks it.
func (t *table) del(key string) error {
	tx := t.eng.Begin()
	cur, found, err := t.tbl.LookupOne(tx, t.ix, []byte(key), true)
	if err == nil && !found {
		err = fmt.Errorf("committed key %q not visible for delete", key)
	}
	if err == nil {
		err = t.tbl.Delete(tx, cur)
	}
	if err != nil {
		t.eng.Abort(tx)
		return err
	}
	if err := t.eng.CommitDurable(tx); err != nil {
		t.eng.Abort(tx)
		return err
	}
	t.acked.del(key)
	return nil
}

// lookupNS reads key at a fresh snapshot and returns the virtual time the
// lookup cost. The value is held to the acked state.
func (t *table) lookupNS(key string) (int64, error) {
	tx := t.eng.Begin()
	defer t.eng.Abort(tx)
	before := t.eng.Clock.Now()
	cur, found, err := t.tbl.LookupOne(tx, t.ix, []byte(key), true)
	elapsed := int64(t.eng.Clock.Now() - before)
	if err != nil {
		return elapsed, err
	}
	want, ok := t.acked.get(key)
	switch {
	case !ok && found:
		return elapsed, fmt.Errorf("deleted key %q still visible", key)
	case ok && !found:
		return elapsed, fmt.Errorf("committed key %q not visible", key)
	case ok && !bytes.Equal(cur.Row, kvRow(key, want)):
		return elapsed, fmt.Errorf("key %q: got %q, want %q", key, cur.Row, kvRow(key, want))
	}
	return elapsed, nil
}

// checkState holds the engine to the acked state: a fresh snapshot's full
// scan over the primary index must yield exactly the acked rows. It returns
// the scan's state hash.
func (t *table) checkState(phase string) (uint64, error) {
	tx := t.eng.Begin()
	defer t.eng.Abort(tx)
	var got [][2]string
	var bad error
	err := t.tbl.Scan(tx, t.ix, nil, nil, true, func(rr db.RowRef) bool {
		if k := keyExtract(rr.Row); !bytes.Equal(k, rr.Key) {
			bad = fmt.Errorf("index key %q holds the row of %q", rr.Key, k)
			return false
		}
		got = append(got, [2]string{string(rr.Key), string(rr.Row[1+len(rr.Key):])})
		return true
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		return 0, fmt.Errorf("%s: scan: %w", phase, err)
	}
	h, err := t.acked.state(got)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", phase, err)
	}
	return h, nil
}

func isSpacePressure(err error) bool {
	return errors.Is(err, db.ErrReadOnly) || errors.Is(err, storage.ErrNoSpace)
}

// randVal builds a value of n random letters.
func randVal(rng *util.Rand, n int) string {
	buf := make([]byte, n)
	rng.Letters(buf)
	return string(buf)
}

// ---- scenario: hot-key storm ----

// runHotKey seeds a cold keyspace bigger than the buffer pool, measures
// the lookup p99 of a fixed cold-key sample, then storms one key with
// updates (a single version chain absorbing every write) and measures the
// same sample again. The pair (BaseP99NS, StormP99NS) is the scenario's
// claim check: MV-PBT's partition structure must keep unrelated keys'
// read cost bounded while one key's version chain blows up.
func runHotKey(dev ssd.DeviceSpec, heap db.HeapKind, seed uint64) (ScenarioFingerprint, error) {
	fp := ScenarioFingerprint{Kind: hotKeyStorm}
	// A buffer pool (64 pages = 512 KiB) far smaller than the dataset, so
	// cold lookups pay device reads — the regression being measured is an
	// I/O effect, not a CPU effect.
	t, err := newTable(dev, heap, db.Config{BufferPages: 64, PartitionBufferBytes: 96 << 10})
	if err != nil {
		return fp, err
	}
	defer t.eng.Close()
	rng := util.NewRand(seed)

	const keys = 1500
	for i := 0; i < keys; i++ {
		if err := t.put(fmt.Sprintf("k%05d", i), randVal(rng, 500+rng.Intn(300))); err != nil {
			return fp, err
		}
		fp.Committed++
	}
	const hot = "hot"
	if err := t.put(hot, randVal(rng, 64)); err != nil {
		return fp, err
	}
	fp.Committed++

	// One fixed cold-key sample, measured before and after the storm.
	sample := make([]string, 200)
	for i := range sample {
		sample[i] = fmt.Sprintf("k%05d", rng.Intn(keys))
	}
	measure := func() (int64, error) {
		durs := make([]int64, 0, len(sample))
		for _, k := range sample {
			d, err := t.lookupNS(k)
			if err != nil {
				return 0, err
			}
			durs = append(durs, d)
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		return util.Quantile(durs, 0.99), nil
	}
	if fp.BaseP99NS, err = measure(); err != nil {
		return fp, err
	}

	// The storm: every update lands on the same key, growing its version
	// chain through partition after partition (merges and GC absorb it).
	const storms = 1200
	for i := 0; i < storms; i++ {
		if err := t.put(hot, randVal(rng, 64+rng.Intn(64))); err != nil {
			return fp, err
		}
		fp.Committed++
		fp.HotUpdates++
	}

	if fp.StormP99NS, err = measure(); err != nil {
		return fp, err
	}
	if _, err := t.lookupNS(hot); err != nil {
		return fp, err
	}
	fp.captureEngine(t.eng)
	fp.StateHash, err = t.checkState("final")
	return fp, err
}

// ---- scenario: sawtooth bulk-load/delete cycles ----

// runSawtooth runs load/delete cycles on a capacity-bounded engine. Each
// crest bulk-loads a keyspace of fat rows past the soft watermark; each
// trough deletes everything. The governor's reclamation (WAL truncation,
// GC, vacuum) must actually return the space: the final live bytes must
// sit well under the peak instead of ratcheting up cycle over cycle.
func runSawtooth(dev ssd.DeviceSpec, heap db.HeapKind, seed uint64) (ScenarioFingerprint, error) {
	fp := ScenarioFingerprint{Kind: sawtooth}
	t, err := newTable(dev, heap, db.Config{
		BufferPages:          1024,
		PartitionBufferBytes: 96 << 10,
		DeviceCapacityBytes:  24 << 20,
		SpaceSoftBytes:       2 << 20,
		SpaceHardBytes:       20 << 20,
	})
	if err != nil {
		return fp, err
	}
	defer t.eng.Close()
	rng := util.NewRand(seed)

	const cycles = 3
	const keysPerCycle = 600
	for c := 0; c < cycles; c++ {
		for i := 0; i < keysPerCycle; i++ {
			err := t.put(fmt.Sprintf("c%d-k%04d", c, i), randVal(rng, 800+rng.Intn(400)))
			if err != nil {
				if isSpacePressure(err) {
					// The governor shed the write; the trough below will
					// hand it the space back.
					fp.TypedErrs++
					continue
				}
				return fp, err
			}
			fp.Committed++
		}
		if live := t.eng.SpaceInfo().Live; live > fp.PeakLive {
			fp.PeakLive = live
		}
		// The trough: delete everything this crest loaded.
		for _, p := range t.acked.from("", len(t.acked)) {
			if err := t.del(p[0]); err != nil {
				return fp, err
			}
			fp.Committed++
		}
		// Each trough ends in an explicit maintenance window — the
		// governor's own reclamation pass (WAL truncation, GC, merges,
		// vacuum), run synchronously. The governor's automatic passes are
		// edge-triggered on soft-watermark crossings and so fire during
		// the crests; the window is the scheduled off-peak complement.
		if err := t.eng.ReclaimNow(); err != nil {
			return fp, fmt.Errorf("sawtooth trough reclaim: %w", err)
		}
	}
	if _, err := t.checkState("after-final-trough"); err != nil {
		return fp, err
	}
	// A handful of sentinel writes prove the engine still takes load in
	// its settled footprint.
	for i := 0; i < 5; i++ {
		if err := t.put(fmt.Sprintf("sentinel%d", i), "s"); err != nil {
			return fp, err
		}
		fp.Committed++
	}
	fp.FinalLive = t.eng.SpaceInfo().Live
	if fp.PeakLive <= t.eng.SpaceInfo().Soft {
		return fp, fmt.Errorf("sawtooth crests never crossed the soft watermark (peak=%d soft=%d)",
			fp.PeakLive, t.eng.SpaceInfo().Soft)
	}
	if fp.FinalLive >= fp.PeakLive {
		return fp, fmt.Errorf("sawtooth ratcheted: final live %d >= peak %d", fp.FinalLive, fp.PeakLive)
	}
	fp.captureEngine(t.eng)
	fp.StateHash, err = t.checkState("final")
	return fp, err
}

// ---- scenario: long-running analytical snapshot pinning the GC horizon ----

// runSnapshotPin opens an analytical read snapshot, then churns updates on
// a small keyspace. The pinned horizon makes every reclamation pass
// impotent (versions stay reachable, the WAL checkpoint stays busy), so
// the engine must degrade to read-only at the hard watermark; degraded
// reads must stay correct at both the pinned and fresh snapshots; and
// releasing the snapshot must heal the engine through the abort-boundary
// reclamation retry, with live bytes under the soft watermark and the log
// truncated. Writes then resume, an injected ENOSPC must degrade and heal
// the same way, and crash recovery from the checkpointed log must rebuild
// exactly the acked state.
func runSnapshotPin(dev ssd.DeviceSpec, heap db.HeapKind, seed uint64) (ScenarioFingerprint, error) {
	fp := ScenarioFingerprint{Kind: snapshotPin}
	// A 16 MiB device with the watermarks at 3 and 4 MiB: far below
	// capacity, so the governor's watermarks decide, not raw ENOSPC.
	ec := db.Config{
		BufferPages:          1024,
		PartitionBufferBytes: 1 << 22,
		DeviceCapacityBytes:  16 << 20,
		SpaceSoftBytes:       3 << 20,
		SpaceHardBytes:       4 << 20,
	}
	t, err := newTable(dev, heap, ec)
	if err != nil {
		return fp, err
	}
	defer func() { t.eng.Close() }() // t is rebound to the recovered engine below
	rng := util.NewRand(seed)

	const keys = 48
	for i := 0; i < keys; i++ {
		if err := t.put(fmt.Sprintf("k%04d", i), fmt.Sprintf("seed%d", i)); err != nil {
			return fp, err
		}
		fp.Committed++
	}
	// The analytical snapshot: sees exactly the seed state, forever.
	pinned := t.eng.Begin()
	pinnedOpen := true
	defer func() {
		if pinnedOpen {
			t.eng.Abort(pinned)
		}
	}()

	const maxTx = 30000
	for i := 0; i < maxTx && !t.eng.ReadOnly(); i++ {
		key := fmt.Sprintf("k%04d", i%keys)
		if err := t.put(key, randVal(rng, 200+rng.Intn(120))); err != nil {
			if isSpacePressure(err) {
				fp.TypedErrs++
				break
			}
			return fp, err
		}
		fp.Committed++
		fp.PinTxs++
	}
	if !t.eng.ReadOnly() {
		return fp, fmt.Errorf("snapshot-pin: engine never degraded after %d churn txs (live=%d)",
			fp.PinTxs, t.eng.SpaceInfo().Live)
	}
	fp.PinnedLive = t.eng.SpaceInfo().Live
	fp.WALAtRO = t.eng.WALDeviceBytes()

	// Degraded: writes fail fast with the typed error…
	tx := t.eng.Begin()
	if _, _, err := t.tbl.Insert(tx, kvRow("nope", "x")); !errors.Is(err, db.ErrReadOnly) {
		t.eng.Abort(tx)
		return fp, fmt.Errorf("snapshot-pin: degraded insert returned %v, want db.ErrReadOnly", err)
	}
	t.eng.Abort(tx)
	fp.TypedErrs++
	// …the pinned snapshot still sees exactly the seed state…
	for i := 0; i < keys; i += 7 {
		key := fmt.Sprintf("k%04d", i)
		cur, found, err := t.tbl.LookupOne(pinned, t.ix, []byte(key), true)
		if err != nil {
			return fp, fmt.Errorf("snapshot-pin: pinned read: %w", err)
		}
		if !found || !bytes.Equal(cur.Row, kvRow(key, fmt.Sprintf("seed%d", i))) {
			return fp, fmt.Errorf("snapshot-pin: pinned snapshot drifted on %q", key)
		}
	}
	// …and a fresh snapshot sees the newest committed state.
	if _, err := t.checkState("degraded"); err != nil {
		return fp, err
	}

	// Release the snapshot: the abort boundary retries reclamation with
	// the horizon unpinned, and the engine must re-open for writes.
	pinnedOpen = false
	t.eng.Abort(pinned)
	// The governor retries reclamation at every commit/abort boundary
	// while degraded; a few no-op boundaries bound the healing time.
	for i := 0; i < 5 && t.eng.ReadOnly(); i++ {
		t.eng.Abort(t.eng.Begin())
	}
	st := t.eng.SpaceInfo()
	if st.ReadOnly || st.Live >= st.Soft {
		return fp, fmt.Errorf("snapshot-pin: snapshot release left the engine read-only or at live >= soft: %+v", st)
	}
	fp.ReleasedLive = st.Live
	fp.WALAfter = t.eng.WALDeviceBytes()
	if fp.WALAfter >= fp.WALAtRO {
		return fp, fmt.Errorf("snapshot-pin: checkpoint did not truncate the log: %d -> %d bytes", fp.WALAtRO, fp.WALAfter)
	}
	for i := 0; i < 5; i++ {
		if err := t.put(fmt.Sprintf("r%04d", i), fmt.Sprintf("resume%d", i)); err != nil {
			return fp, err
		}
		fp.Committed++
	}
	if _, err := t.checkState("resumed"); err != nil {
		return fp, err
	}

	// An injected ENOSPC: the next extent allocation fails with
	// storage.ErrNoSpace. Every probe insert rides one uncommitted
	// transaction, so no WAL flush runs while the rule is armed, and fat rows
	// force a fresh heap extent within a few inserts. Only an AnyClass rule
	// matches a fresh-frontier allocation, which has no class yet. The typed
	// error must degrade the engine, and the abort's reclamation must re-open
	// it (live is under soft).
	roEntries := t.eng.SpaceInfo().ROEntries
	rule := t.eng.Dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultNoSpace, Class: ssd.AnyClass, Ops: []uint64{1}})
	probe := t.eng.Begin()
	var nospace error
	for i := 0; i < 500 && nospace == nil; i++ {
		_, _, nospace = t.tbl.Insert(probe, kvRow(fmt.Sprintf("p%04d", i), strings.Repeat("y", 4000)))
	}
	t.eng.Dev.DisarmFault(rule)
	t.eng.Abort(probe)
	fp.NoSpaceInjected = t.eng.Dev.Stats().Faults.Injected[ssd.FaultNoSpace]
	switch {
	case !errors.Is(nospace, storage.ErrNoSpace):
		return fp, fmt.Errorf("snapshot-pin: armed FaultNoSpace surfaced as %v, want storage.ErrNoSpace", nospace)
	case fp.NoSpaceInjected == 0 || t.eng.SpaceInfo().ROEntries == roEntries:
		return fp, fmt.Errorf("snapshot-pin: injected ENOSPC went uncounted or never degraded the engine: %d injected, %+v",
			fp.NoSpaceInjected, t.eng.SpaceInfo())
	case t.eng.ReadOnly():
		return fp, errors.New("snapshot-pin: the probe's abort did not re-open the engine")
	}
	if _, err := t.checkState("enospc-probe"); err != nil {
		return fp, err
	}
	fp.captureEngine(t.eng)

	// Crash and recover from the checkpointed log: the snapshot fence plus
	// the post-checkpoint tail must rebuild exactly the acked state.
	img := t.eng.LogImage()
	t.eng.Crash()
	recovered, err := newTable(dev, heap, ec)
	if err != nil {
		return fp, fmt.Errorf("snapshot-pin: recover: %w", err)
	}
	recovered.acked, t = t.acked, recovered
	if fp.RecoveredTxs, err = t.eng.Recover(img); err != nil {
		return fp, fmt.Errorf("snapshot-pin: recover: %w", err)
	}
	fp.StateHash, err = t.checkState("recovered")
	return fp, err
}

// ---- scenario: tenant-skewed mix through the shard router ----

// tenantWeights derives a skewed tenant distribution from the seed: the
// fixed weight profile (60/25/10/5 of 100) assigned to a seed-dependent
// permutation of the four tenants, so which tenant dominates varies by
// seed but the skew shape does not.
func tenantWeights(rng *util.Rand) [4]int {
	profile := [4]int{60, 25, 10, 5}
	perm := [4]int{0, 1, 2, 3}
	for i := 3; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	var w [4]int
	for i, p := range perm {
		w[p] = profile[i]
	}
	return w
}

// runTenantSkew drives a skewed four-tenant upsert mix through a
// two-shard router whose engines sit on a tight space budget, in BURSTS
// separated by off-peak maintenance windows (each tenant expires its
// oldest keys, then every shard runs its reclamation pass). The admission
// model mirrors the TCP front-end's policy deterministically: an op
// arriving while any shard is past its soft watermark is QUEUED; a queued
// op waits bounded "ticks" — each tick gives the overloaded shards a
// reclamation pass, mirroring the governor's pass at a commit boundary — and is
// REJECTED (load shed) if the overload outlasts the queue. Each burst
// runs under a tenant's pinned analytical snapshot, so mid-burst
// reclamation is structurally impotent (the checkpoint skips while the
// snapshot lives) and pressure genuinely accumulates until the window.
// The invariants: the soft-watermark gate must engage under the bursts,
// commits must resume after the first load-shed (a maintenance window
// genuinely reopened the gate), and minority tenants must not starve.
func runTenantSkew(dev ssd.DeviceSpec, seed uint64) (ScenarioFingerprint, error) {
	fp := ScenarioFingerprint{Kind: tenantSkew}
	r, err := shard.New(shard.Config{
		Shards: 2,
		Engine: db.Config{
			BufferPages:          512,
			PartitionBufferBytes: 96 << 10,
			Device:               dev,
			EnableWAL:            true,
			DeviceCapacityBytes:  12 << 20,
			// The soft watermark sits inside the envelope the bursts
			// oscillate through: below the crests the analytical pin
			// forces (the WAL cannot checkpoint while the snapshot is
			// live; with partitions packed into shared extents, live
			// bytes crest between 1 500 and 1 600 KiB) and above the
			// maintenance floors, so the gate engages under burst
			// pressure and commits resume once a window reclaims below
			// it. 1 300 to 1 500 KiB run identically; at 1 200 most of
			// the run is shed, and at 900 commits never resume.
			// Deliberately NOT a multiple of the 256 KiB extent size:
			// live bytes are extent-quantized, and a watermark on the
			// grid can be hit exactly by a settled floor, pinning
			// `live >= soft` true forever.
			SpaceSoftBytes: 1400 << 10,
			SpaceHardBytes: 10 << 20,
		},
		// A bounded partition count makes merges (and with them garbage
		// collection of overwritten versions) actually due when the
		// governor's reclamation pass asks for them.
		KVOptions: db.MVPBTKVOptions{BloomBits: 10, MaxPartitions: 4},
	})
	if err != nil {
		return fp, err
	}
	defer r.Close()
	rng := util.NewRand(seed)
	weights := tenantWeights(rng)
	acked := expect{}

	pickTenant := func() int {
		roll := rng.Intn(100)
		for t, w := range weights {
			if roll < w {
				return t
			}
			roll -= w
		}
		return 3
	}

	// reclaimOverloaded gives every shard past its soft watermark one
	// reclamation pass — the deterministic stand-in for the governor's
	// pass at the commit boundaries of a threaded deployment.
	reclaimOverloaded := func() error {
		for s := 0; s < r.NumShards(); s++ {
			eng := r.Shard(s).Engine
			if sp := eng.SpaceInfo(); sp.Soft > 0 && sp.Live >= sp.Soft {
				if err := eng.ReclaimNow(); err != nil {
					return fmt.Errorf("tenant-skew: reclaim: %w", err)
				}
			}
		}
		return nil
	}

	const bursts = 5
	const queueTicks = 3
	const opsPerBurst = 600
	for b := 0; b < bursts; b++ {
		// Each burst runs under a tenant's analytical snapshot: a read
		// transaction pinned on every shard for the burst's duration. The
		// pin is what makes the burst hostile — while it lives, the WAL
		// checkpoint skips (transactions active) and the GC horizon is
		// stuck, so the governor's pass cannot reclaim mid-burst
		// and pressure genuinely accumulates until the off-peak window.
		pins := make([]*txn.Tx, r.NumShards())
		for s := range pins {
			pins[s] = r.Shard(s).Engine.Begin()
		}
		unpin := func() {
			for s, tx := range pins {
				if tx != nil {
					r.Shard(s).Engine.Abort(tx)
					pins[s] = nil
				}
			}
		}
		for i := 0; i < opsPerBurst; i++ {
			ten := pickTenant()
			key := fmt.Sprintf("t%d-k%04d", ten, rng.Intn(192))
			val := randVal(rng, 700+rng.Intn(300))
			if r.PastSoftWatermark() {
				fp.Queued++
				for tick := 0; tick < queueTicks && r.PastSoftWatermark(); tick++ {
					// The queued session re-checks the watermark after
					// each tick, like the server's polling admit loop.
					if err := reclaimOverloaded(); err != nil {
						return fp, err
					}
				}
				if r.PastSoftWatermark() {
					fp.Rejected++
					continue
				}
			}
			if err := r.Put([]byte(key), []byte(val)); err != nil {
				if isSpacePressure(err) {
					fp.TypedErrs++
					continue
				}
				return fp, fmt.Errorf("tenant-skew: put: %w", err)
			}
			fp.Committed++
			fp.Tenants[ten]++
			if fp.Rejected > 0 {
				// Service resumed after load shedding: the proof the
				// admission gate is an oscillator, not a one-way door.
				fp.ResumedCommits++
			}
			acked.put(key, val)
		}
		// The analytical snapshot ends with the burst; only then can the
		// maintenance window's reclamation actually make progress.
		unpin()
		if b == bursts-1 {
			break
		}
		// Off-peak maintenance window: every tenant expires its oldest
		// keys (a TTL purge), then every shard runs a reclamation pass —
		// tombstone-merging GC, heap vacuum, WAL truncation — so the next
		// burst starts from a reclaimed footprint.
		for ten := 0; ten < 4; ten++ {
			prefix := fmt.Sprintf("t%d-", ten)
			mine := acked.from(prefix, len(acked)) // the tenant's keys first, in key order
			n := 0
			for n < len(mine) && strings.HasPrefix(mine[n][0], prefix) {
				n++
			}
			for _, p := range mine[:n*3/4] {
				if err := r.Delete([]byte(p[0])); err != nil {
					return fp, fmt.Errorf("tenant-skew: purge %q: %w", p[0], err)
				}
				acked.del(p[0])
			}
		}
		// Two passes per shard: the first checkpoint snapshots the dirty
		// state (briefly growing the log) before truncating, so a second
		// pass is what actually settles the footprint at its floor.
		for pass := 0; pass < 2; pass++ {
			for s := 0; s < r.NumShards(); s++ {
				if err := r.Shard(s).Engine.ReclaimNow(); err != nil {
					return fp, fmt.Errorf("tenant-skew: window reclaim: %w", err)
				}
			}
		}
	}

	// The soft-watermark gate must have engaged under the bursts, commits
	// must have resumed after the first load-shed (a maintenance window
	// genuinely reopened the gate), and no tenant may have starved.
	if fp.Queued == 0 {
		return fp, fmt.Errorf("tenant-skew: admission gate never engaged (committed=%d)", fp.Committed)
	}
	if fp.Rejected > 0 && fp.ResumedCommits == 0 {
		return fp, fmt.Errorf("tenant-skew: no commit after load shedding began (%d queued, %d rejected)",
			fp.Queued, fp.Rejected)
	}
	for t, n := range fp.Tenants {
		if n == 0 {
			return fp, fmt.Errorf("tenant-skew: tenant %d starved (weights %v)", t, weights)
		}
	}

	// Point reads of every 17th surviving key through the router, part of
	// the run the fingerprint's I/O counts measure.
	all := acked.from("", len(acked))
	for i := 0; i < len(all); i += 17 {
		k, want := all[i][0], all[i][1]
		v, ok, err := r.Get([]byte(k))
		if err != nil {
			return fp, fmt.Errorf("tenant-skew: get %q: %w", k, err)
		}
		if !ok || string(v) != want {
			return fp, fmt.Errorf("tenant-skew: key %q: got %q ok=%v, want %q", k, v, ok, want)
		}
	}
	for i := 0; i < r.NumShards(); i++ {
		fp.captureEngine(r.Shard(i).Engine)
	}
	// The whole engine against the acked state: one snapshot's scan across
	// both shards, purged keys included.
	var got [][2]string
	err = r.Scan(nil, len(acked)+16, func(k, v []byte) bool {
		got = append(got, [2]string{string(k), string(v)})
		return true
	})
	if err != nil {
		return fp, fmt.Errorf("tenant-skew: final scan: %w", err)
	}
	if fp.StateHash, err = acked.state(got); err != nil {
		return fp, fmt.Errorf("tenant-skew: final state: %w", err)
	}
	return fp, nil
}
