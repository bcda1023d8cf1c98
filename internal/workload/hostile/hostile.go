// Package hostile generates adversarial workload scenarios — the access
// patterns the paper's friendly YCSB/TPC-C mixes never produce but
// production systems do: hot-key storms that blow up one key's version
// chain, sawtooth bulk-load/delete cycles that whipsaw the space governor,
// long-running analytical snapshots that pin the GC horizon across
// maintenance cycles, and tenant-skewed mixes that drive the shard
// router's admission overload signal.
//
// Every scenario is a deterministic function of (kind, device, heap,
// seed): it runs single-threaded against engines on the virtual clock,
// with synchronous maintenance and group commit in its deterministic
// batches-of-one regime, and condenses its outcome into a comparable
// Fingerprint. Replaying the same scenario twice and comparing
// fingerprints with == is the whole determinism check, and the scenario
// campaign (internal/check) does it for every cell.
package hostile

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"mvpbt/internal/db"
	"mvpbt/internal/shard"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
	"mvpbt/internal/util"
)

// Kind names one hostile scenario.
type Kind int

// The four scenarios.
const (
	// HotKeyStorm hammers a single key with updates (version-chain
	// blowup) and measures whether unrelated-key lookups regress.
	HotKeyStorm Kind = iota
	// Sawtooth bulk-loads a keyspace and deletes it again, repeatedly —
	// the space governor must reclaim each trough instead of ratcheting.
	Sawtooth
	// SnapshotPin holds an analytical read snapshot open while update
	// churn fills the device: the pinned GC horizon must degrade the
	// engine to read-only, and releasing the snapshot must heal it.
	SnapshotPin
	// TenantSkew drives a skewed multi-tenant mix through a shard router
	// and its soft-watermark admission gate: overload must queue and shed
	// load without starving minority tenants.
	TenantSkew

	NumKinds = 4
)

var kindNames = [NumKinds]string{"hot-key-storm", "sawtooth", "snapshot-pin", "tenant-skew"}

func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return "?"
	}
	return kindNames[k]
}

// Kinds returns all scenarios in canonical order.
func Kinds() []Kind { return []Kind{HotKeyStorm, Sawtooth, SnapshotPin, TenantSkew} }

// Config parameterizes one scenario run.
type Config struct {
	// Device is the zoo device to run on (zero = enterprise-nvme).
	Device ssd.DeviceSpec
	// Seed drives every random choice in the scenario.
	Seed uint64
	// Heap is the base-table layout for the table-backed scenarios
	// (ignored by TenantSkew, which runs on the clustered KV).
	Heap db.HeapKind
}

// Fingerprint condenses one scenario run into a comparable value: two
// replays of the same (kind, device, heap, seed) must produce fingerprints
// equal under ==. Fields are scalars and fixed arrays ONLY — adding a
// slice or map here would silently break the determinism diff.
type Fingerprint struct {
	Kind Kind
	// Committed counts committed transactions; TypedErrs counts expected
	// typed failures (db.ErrReadOnly, storage.ErrNoSpace) absorbed by the
	// scenario's control flow.
	Committed int64
	TypedErrs int64
	// StateHash fingerprints the final oracle state (FNV-1a, key order).
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
func (fp Fingerprint) String() string {
	var detail string
	switch fp.Kind {
	case HotKeyStorm:
		detail = fmt.Sprintf("p99 %.0fus->%.0fus", float64(fp.BaseP99NS)/1e3, float64(fp.StormP99NS)/1e3)
	case Sawtooth:
		detail = fmt.Sprintf("live %.1fMiB->%.1fMiB", float64(fp.PeakLive)/(1<<20), float64(fp.FinalLive)/(1<<20))
	case SnapshotPin:
		detail = fmt.Sprintf("ro %d/%d pin %d tx, wal %d->%d, %d enospc, %d replayed",
			fp.ROEntries, fp.ROExits, fp.PinTxs, fp.WALAtRO, fp.WALAfter, fp.NoSpaceInjected, fp.RecoveredTxs)
	case TenantSkew:
		detail = fmt.Sprintf("queued %d shed %d resumed %d", fp.Queued, fp.Rejected, fp.ResumedCommits)
	}
	return fmt.Sprintf("%d commits, %d typed errs, io %d ops / %.1fms, %s, hash %016x",
		fp.Committed, fp.TypedErrs, fp.Reads+fp.Writes, float64(fp.IOTimeNS)/1e6, detail, fp.StateHash)
}

// Run executes one scenario and returns its fingerprint. A non-nil error
// means the scenario itself failed an invariant (not a determinism
// mismatch — that is the caller's double-replay comparison).
func Run(kind Kind, cfg Config) (Fingerprint, error) {
	switch kind {
	case HotKeyStorm:
		return runHotKey(cfg)
	case Sawtooth:
		return runSawtooth(cfg)
	case SnapshotPin:
		return runSnapshotPin(cfg)
	case TenantSkew:
		return runTenantSkew(cfg)
	}
	return Fingerprint{}, fmt.Errorf("hostile: unknown scenario kind %d", int(kind))
}

// ---- shared helpers ----

// Row builds the harness row layout [len(key)][key][val].
func Row(key, val string) []byte {
	r := make([]byte, 0, 1+len(key)+len(val))
	r = append(r, byte(len(key)))
	r = append(r, key...)
	return append(r, val...)
}

func extractKey(r []byte) []byte { return r[1 : 1+r[0]] }

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// hashState fingerprints an oracle map in key order (FNV-1a).
func hashState(expect map[string]string) uint64 {
	h := fnv.New64a()
	for _, k := range sortedKeys(expect) {
		h.Write([]byte(k))
		h.Write([]byte{0})
		h.Write([]byte(expect[k]))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// captureEngine folds one engine's device and governor counters into fp.
func (fp *Fingerprint) captureEngine(e *db.Engine) {
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

// table is the single-table oracle fixture: an engine, one table with a
// unique MV-PBT primary index, and the expected committed key → value state
// (the oracle — single-client histories make a last-committed map complete).
type table struct {
	Eng    *db.Engine
	Tbl    *db.Table
	Expect map[string]string
	ix     *db.Index
}

// newTable builds the fixture on a fresh engine configured by ec, on cfg's
// device and heap, with the WAL on, so scenarios exercise the production
// commit pipeline (single-threaded, each commit flushes its own record).
func newTable(cfg Config, ec db.Config) (*table, error) {
	ec.Device = cfg.Device
	ec.EnableWAL = true
	eng := db.NewEngine(ec)
	tbl, err := eng.NewTable("t", cfg.Heap, db.IndexDef{
		Name: "pk", Kind: db.IdxMVPBT, RefMode: db.RefPhysical, Unique: true,
		Extract: extractKey, BloomBits: 10, MaxPartitions: 6,
	})
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &table{Eng: eng, Tbl: tbl, ix: tbl.Indexes()[0], Expect: map[string]string{}}, nil
}

// put upserts key=val in one committed transaction, mirroring the oracle.
// Typed write failures (read-only degradation, exhaustion) are returned
// untouched for the caller's control flow.
func (t *table) put(key, val string) error {
	r := Row(key, val)
	tx := t.Eng.Begin()
	if _, ok := t.Expect[key]; ok {
		cur, err := t.Tbl.LookupOne(tx, t.ix, []byte(key), true)
		if err == nil && cur == nil {
			err = fmt.Errorf("hostile: committed key %q not visible", key)
		}
		if err == nil {
			_, err = t.Tbl.Update(tx, *cur, r)
		}
		if err != nil {
			t.Eng.Abort(tx)
			return err
		}
	} else if _, _, err := t.Tbl.Insert(tx, r); err != nil {
		t.Eng.Abort(tx)
		return err
	}
	if err := t.Eng.CommitDurable(tx); err != nil {
		t.Eng.Abort(tx)
		return err
	}
	t.Expect[key] = val
	return nil
}

// del removes key in one committed transaction, mirroring the oracle.
func (t *table) del(key string) error {
	tx := t.Eng.Begin()
	cur, err := t.Tbl.LookupOne(tx, t.ix, []byte(key), true)
	if err == nil && cur == nil {
		err = fmt.Errorf("hostile: committed key %q not visible for delete", key)
	}
	if err == nil {
		err = t.Tbl.Delete(tx, *cur)
	}
	if err != nil {
		t.Eng.Abort(tx)
		return err
	}
	if err := t.Eng.CommitDurable(tx); err != nil {
		t.Eng.Abort(tx)
		return err
	}
	delete(t.Expect, key)
	return nil
}

// lookupNS reads key at a fresh snapshot and returns the virtual time the
// lookup cost. The value is held to the oracle.
func (t *table) lookupNS(key string) (int64, error) {
	tx := t.Eng.Begin()
	defer t.Eng.Abort(tx)
	before := t.Eng.Clock.Now()
	cur, err := t.Tbl.LookupOne(tx, t.ix, []byte(key), true)
	elapsed := int64(t.Eng.Clock.Now() - before)
	if err != nil {
		return elapsed, err
	}
	want, ok := t.Expect[key]
	switch {
	case !ok && cur != nil:
		return elapsed, fmt.Errorf("hostile: deleted key %q still visible", key)
	case ok && cur == nil:
		return elapsed, fmt.Errorf("hostile: committed key %q not visible", key)
	case ok && string(cur.Row) != string(Row(key, want)):
		return elapsed, fmt.Errorf("hostile: key %q: got %q, want %q", key, cur.Row, Row(key, want))
	}
	return elapsed, nil
}

// checkState holds the engine to the oracle: a fresh snapshot's full scan
// over the primary index must yield exactly the expected committed rows.
func (t *table) checkState(phase string) error {
	tx := t.Eng.Begin()
	defer t.Eng.Abort(tx)
	got := map[string]string{}
	err := t.Tbl.Scan(tx, t.ix, nil, nil, true, func(rr db.RowRef) bool {
		got[string(rr.Key)] = string(rr.Row)
		return true
	})
	if err != nil {
		return fmt.Errorf("hostile: %s: scan: %w", phase, err)
	}
	if len(got) != len(t.Expect) {
		return fmt.Errorf("hostile: %s: engine has %d rows, oracle %d", phase, len(got), len(t.Expect))
	}
	for k, w := range t.Expect {
		if g, ok := got[k]; !ok || g != string(Row(k, w)) {
			return fmt.Errorf("hostile: %s: row %q: engine %q, oracle %q", phase, k, g, Row(k, w))
		}
	}
	return nil
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
func runHotKey(cfg Config) (Fingerprint, error) {
	fp := Fingerprint{Kind: HotKeyStorm}
	// A buffer pool (64 pages = 512 KiB) far smaller than the dataset, so
	// cold lookups pay device reads — the regression being measured is an
	// I/O effect, not a CPU effect.
	t, err := newTable(cfg, db.Config{BufferPages: 64, PartitionBufferBytes: 96 << 10})
	if err != nil {
		return fp, err
	}
	defer t.Eng.Close()
	rng := util.NewRand(cfg.Seed)

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
	fp.StateHash = hashState(t.Expect)
	fp.captureEngine(t.Eng)
	return fp, nil
}

// ---- scenario: sawtooth bulk-load/delete cycles ----

// runSawtooth runs load/delete cycles on a capacity-bounded engine. Each
// crest bulk-loads a keyspace of fat rows past the soft watermark; each
// trough deletes everything. The governor's reclamation (WAL truncation,
// GC, vacuum) must actually return the space: the final live bytes must
// sit well under the peak instead of ratcheting up cycle over cycle.
func runSawtooth(cfg Config) (Fingerprint, error) {
	fp := Fingerprint{Kind: Sawtooth}
	t, err := newTable(cfg, db.Config{
		BufferPages:          1024,
		PartitionBufferBytes: 96 << 10,
		DeviceCapacityBytes:  24 << 20,
		SpaceSoftBytes:       2 << 20,
		SpaceHardBytes:       20 << 20,
	})
	if err != nil {
		return fp, err
	}
	defer t.Eng.Close()
	rng := util.NewRand(cfg.Seed)

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
		if live := t.Eng.SpaceInfo().Live; live > fp.PeakLive {
			fp.PeakLive = live
		}
		// The trough: delete everything this crest loaded.
		for _, k := range sortedKeys(t.Expect) {
			if err := t.del(k); err != nil {
				return fp, err
			}
			fp.Committed++
		}
		// Each trough ends in an explicit maintenance window — the
		// governor's own reclamation pass (WAL truncation, GC, merges,
		// vacuum), run synchronously. The governor's automatic passes are
		// edge-triggered on soft-watermark crossings and so fire during
		// the crests; the window is the scheduled off-peak complement.
		if err := t.Eng.ReclaimNow(); err != nil {
			return fp, fmt.Errorf("hostile: sawtooth trough reclaim: %w", err)
		}
	}
	if err := t.checkState("after-final-trough"); err != nil {
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
	fp.FinalLive = t.Eng.SpaceInfo().Live
	if fp.PeakLive <= t.Eng.SpaceInfo().Soft {
		return fp, fmt.Errorf("hostile: sawtooth crests never crossed the soft watermark (peak=%d soft=%d)",
			fp.PeakLive, t.Eng.SpaceInfo().Soft)
	}
	if fp.FinalLive >= fp.PeakLive {
		return fp, fmt.Errorf("hostile: sawtooth ratcheted: final live %d >= peak %d", fp.FinalLive, fp.PeakLive)
	}
	fp.StateHash = hashState(t.Expect)
	fp.captureEngine(t.Eng)
	return fp, nil
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
// exactly the oracle state.
func runSnapshotPin(cfg Config) (Fingerprint, error) {
	fp := Fingerprint{Kind: SnapshotPin}
	// A 16 MiB device with the watermarks at 3 and 4 MiB: far below
	// capacity, so the governor's watermarks decide, not raw ENOSPC.
	ec := db.Config{
		BufferPages:          1024,
		PartitionBufferBytes: 1 << 22,
		DeviceCapacityBytes:  16 << 20,
		SpaceSoftBytes:       3 << 20,
		SpaceHardBytes:       4 << 20,
	}
	t, err := newTable(cfg, ec)
	if err != nil {
		return fp, err
	}
	defer func() { t.Eng.Close() }() // t is rebound to the recovered engine below
	rng := util.NewRand(cfg.Seed)

	const keys = 48
	for i := 0; i < keys; i++ {
		if err := t.put(fmt.Sprintf("k%04d", i), fmt.Sprintf("seed%d", i)); err != nil {
			return fp, err
		}
		fp.Committed++
	}
	// The analytical snapshot: sees exactly the seed state, forever.
	pinned := t.Eng.Begin()
	pinnedOpen := true
	defer func() {
		if pinnedOpen {
			t.Eng.Abort(pinned)
		}
	}()

	const maxTx = 30000
	for i := 0; i < maxTx && !t.Eng.ReadOnly(); i++ {
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
	if !t.Eng.ReadOnly() {
		return fp, fmt.Errorf("hostile: snapshot-pin: engine never degraded after %d churn txs (live=%d)",
			fp.PinTxs, t.Eng.SpaceInfo().Live)
	}
	fp.PinnedLive = t.Eng.SpaceInfo().Live
	fp.WALAtRO = t.Eng.WALDeviceBytes()

	// Degraded: writes fail fast with the typed error…
	tx := t.Eng.Begin()
	if _, _, err := t.Tbl.Insert(tx, Row("nope", "x")); !errors.Is(err, db.ErrReadOnly) {
		t.Eng.Abort(tx)
		return fp, fmt.Errorf("hostile: snapshot-pin: degraded insert returned %v, want db.ErrReadOnly", err)
	}
	t.Eng.Abort(tx)
	fp.TypedErrs++
	// …the pinned snapshot still sees exactly the seed state…
	for i := 0; i < keys; i += 7 {
		key := fmt.Sprintf("k%04d", i)
		cur, err := t.Tbl.LookupOne(pinned, t.ix, []byte(key), true)
		if err != nil {
			return fp, fmt.Errorf("hostile: snapshot-pin: pinned read: %w", err)
		}
		want := string(Row(key, fmt.Sprintf("seed%d", i)))
		if cur == nil || string(cur.Row) != want {
			return fp, fmt.Errorf("hostile: snapshot-pin: pinned snapshot drifted on %q", key)
		}
	}
	// …and a fresh snapshot sees the newest committed state.
	if err := t.checkState("degraded"); err != nil {
		return fp, err
	}

	// Release the snapshot: the abort boundary retries reclamation with
	// the horizon unpinned, and the engine must re-open for writes.
	pinnedOpen = false
	t.Eng.Abort(pinned)
	// The governor retries reclamation at every commit/abort boundary
	// while degraded; a few no-op boundaries bound the healing time.
	for i := 0; i < 5 && t.Eng.ReadOnly(); i++ {
		t.Eng.Abort(t.Eng.Begin())
	}
	st := t.Eng.SpaceInfo()
	if st.ReadOnly || st.Live >= st.Soft {
		return fp, fmt.Errorf("hostile: snapshot-pin: snapshot release left the engine read-only or at live >= soft: %+v", st)
	}
	fp.ReleasedLive = st.Live
	fp.WALAfter = t.Eng.WALDeviceBytes()
	if fp.WALAfter >= fp.WALAtRO {
		return fp, fmt.Errorf("hostile: snapshot-pin: checkpoint did not truncate the log: %d -> %d bytes", fp.WALAtRO, fp.WALAfter)
	}
	for i := 0; i < 5; i++ {
		if err := t.put(fmt.Sprintf("r%04d", i), fmt.Sprintf("resume%d", i)); err != nil {
			return fp, err
		}
		fp.Committed++
	}
	if err := t.checkState("resumed"); err != nil {
		return fp, err
	}

	// An injected ENOSPC: the next extent allocation fails with
	// storage.ErrNoSpace. Every probe insert rides one uncommitted
	// transaction, so no WAL flush runs while the rule is armed, and fat rows
	// force a fresh heap extent within a few inserts. Only an AnyClass rule
	// matches a fresh-frontier allocation, which has no class yet. The typed
	// error must degrade the engine, and the abort's reclamation must re-open
	// it (live is under soft).
	roEntries := t.Eng.SpaceInfo().ROEntries
	rule := t.Eng.Dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultNoSpace, Class: ssd.AnyClass, Ops: []uint64{1}})
	probe := t.Eng.Begin()
	var nospace error
	for i := 0; i < 500 && nospace == nil; i++ {
		_, _, nospace = t.Tbl.Insert(probe, Row(fmt.Sprintf("p%04d", i), strings.Repeat("y", 4000)))
	}
	t.Eng.Dev.DisarmFault(rule)
	t.Eng.Abort(probe)
	fp.NoSpaceInjected = t.Eng.Dev.Stats().Faults.Injected[ssd.FaultNoSpace]
	switch {
	case !errors.Is(nospace, storage.ErrNoSpace):
		return fp, fmt.Errorf("hostile: snapshot-pin: armed FaultNoSpace surfaced as %v, want storage.ErrNoSpace", nospace)
	case fp.NoSpaceInjected == 0 || t.Eng.SpaceInfo().ROEntries == roEntries:
		return fp, fmt.Errorf("hostile: snapshot-pin: injected ENOSPC went uncounted or never degraded the engine: %d injected, %+v",
			fp.NoSpaceInjected, t.Eng.SpaceInfo())
	case t.Eng.ReadOnly():
		return fp, errors.New("hostile: snapshot-pin: the probe's abort did not re-open the engine")
	}
	if err := t.checkState("enospc-probe"); err != nil {
		return fp, err
	}
	fp.StateHash = hashState(t.Expect)
	fp.captureEngine(t.Eng)

	// Crash and recover from the checkpointed log: the snapshot fence plus
	// the post-checkpoint tail must rebuild exactly the oracle state.
	img := t.Eng.LogImage()
	t.Eng.Crash()
	recovered, err := newTable(cfg, ec)
	if err != nil {
		return fp, fmt.Errorf("hostile: snapshot-pin: recover: %w", err)
	}
	recovered.Expect, t = t.Expect, recovered
	if fp.RecoveredTxs, err = t.Eng.Recover(img); err != nil {
		return fp, fmt.Errorf("hostile: snapshot-pin: recover: %w", err)
	}
	return fp, t.checkState("recovered")
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
func runTenantSkew(cfg Config) (Fingerprint, error) {
	fp := Fingerprint{Kind: TenantSkew}
	r, err := shard.New(shard.Config{
		Shards: 2,
		Engine: db.Config{
			BufferPages:          512,
			PartitionBufferBytes: 96 << 10,
			Device:               cfg.Device,
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
	rng := util.NewRand(cfg.Seed)
	weights := tenantWeights(rng)
	expect := map[string]string{}

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
					return fmt.Errorf("hostile: tenant-skew: reclaim: %w", err)
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
				return fp, fmt.Errorf("hostile: tenant-skew: put: %w", err)
			}
			fp.Committed++
			fp.Tenants[ten]++
			if fp.Rejected > 0 {
				// Service resumed after load shedding: the proof the
				// admission gate is an oscillator, not a one-way door.
				fp.ResumedCommits++
			}
			expect[key] = val
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
		keys := sortedKeys(expect) // per-tenant prefixes: sorted = grouped, oldest first
		for ten := 0; ten < 4; ten++ {
			prefix := fmt.Sprintf("t%d-", ten)
			var mine []string
			for _, k := range keys {
				if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
					mine = append(mine, k)
				}
			}
			for i := 0; i < len(mine)*3/4; i++ {
				if err := r.Delete([]byte(mine[i])); err != nil {
					return fp, fmt.Errorf("hostile: tenant-skew: purge %q: %w", mine[i], err)
				}
				delete(expect, mine[i])
			}
		}
		// Two passes per shard: the first checkpoint snapshots the dirty
		// state (briefly growing the log) before truncating, so a second
		// pass is what actually settles the footprint at its floor.
		for pass := 0; pass < 2; pass++ {
			for s := 0; s < r.NumShards(); s++ {
				if err := r.Shard(s).Engine.ReclaimNow(); err != nil {
					return fp, fmt.Errorf("hostile: tenant-skew: window reclaim: %w", err)
				}
			}
		}
	}

	// The soft-watermark gate must have engaged under the bursts, commits
	// must have resumed after the first load-shed (a maintenance window
	// genuinely reopened the gate), and no tenant may have starved.
	if fp.Queued == 0 {
		return fp, fmt.Errorf("hostile: tenant-skew: admission gate never engaged (committed=%d)", fp.Committed)
	}
	if fp.Rejected > 0 && fp.ResumedCommits == 0 {
		return fp, fmt.Errorf("hostile: tenant-skew: no commit after load shedding began (%d queued, %d rejected)",
			fp.Queued, fp.Rejected)
	}
	for t, n := range fp.Tenants {
		if n == 0 {
			return fp, fmt.Errorf("hostile: tenant-skew: tenant %d starved (weights %v)", t, weights)
		}
	}

	// Hold a sample of the oracle to the router's reads.
	keys := sortedKeys(expect)
	for i := 0; i < len(keys); i += 17 {
		v, ok, err := r.Get([]byte(keys[i]))
		if err != nil {
			return fp, fmt.Errorf("hostile: tenant-skew: get %q: %w", keys[i], err)
		}
		if !ok || string(v) != expect[keys[i]] {
			return fp, fmt.Errorf("hostile: tenant-skew: key %q: got %q ok=%v, want %q",
				keys[i], v, ok, expect[keys[i]])
		}
	}
	fp.StateHash = hashState(expect)
	for i := 0; i < r.NumShards(); i++ {
		fp.captureEngine(r.Shard(i).Engine)
	}
	return fp, nil
}
