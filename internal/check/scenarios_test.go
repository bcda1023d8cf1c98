package check

import (
	"slices"
	"strings"
	"testing"

	"mvpbt/internal/db"
	"mvpbt/internal/ssd"
)

// onHOT runs each scenario on the HOT heap layout (tenant-skew has none).
var onHOT = []struct {
	kind string
	run  func(ssd.DeviceSpec, uint64) (ScenarioFingerprint, error)
}{
	{hotKeyStorm, func(d ssd.DeviceSpec, s uint64) (ScenarioFingerprint, error) { return runHotKey(d, db.HeapHOT, s) }},
	{sawtooth, func(d ssd.DeviceSpec, s uint64) (ScenarioFingerprint, error) { return runSawtooth(d, db.HeapHOT, s) }},
	{snapshotPin, func(d ssd.DeviceSpec, s uint64) (ScenarioFingerprint, error) { return runSnapshotPin(d, db.HeapHOT, s) }},
	{tenantSkew, runTenantSkew},
}

// Every hostile scenario must replay byte-identically from its seed on
// every device in the zoo: run twice, demand fingerprint equality. The
// workloads are deterministic functions of (kind, device, seed), so any
// divergence is a nondeterminism bug in the engine, the device model, or
// the generator itself.
func TestScenariosReplayOnZoo(t *testing.T) {
	for _, spec := range ssd.Zoo() {
		t.Run(spec.Name, func(t *testing.T) {
			for _, sc := range onHOT {
				t.Run(sc.kind, func(t *testing.T) {
					a, err := sc.run(spec, 1)
					if err != nil {
						t.Fatalf("run 1: %v", err)
					}
					b, err := sc.run(spec, 1)
					if err != nil {
						t.Fatalf("run 2: %v", err)
					}
					if a != b {
						t.Fatalf("replay diverged:\n  run1: %+v\n  run2: %+v", a, b)
					}
					if a.Committed == 0 {
						t.Fatal("scenario committed nothing")
					}
					if a.StateHash == 0 {
						t.Fatal("scenario produced no state hash")
					}
				})
			}
		})
	}
}

// Different seeds must drive genuinely different runs — a generator that
// ignores its seed would make every "campaign over seeds" vacuous.
func TestSeedsDiverge(t *testing.T) {
	for _, sc := range onHOT {
		a, err := sc.run(ssd.DeviceSpec{}, 1)
		if err != nil {
			t.Fatalf("%s seed 1: %v", sc.kind, err)
		}
		b, err := sc.run(ssd.DeviceSpec{}, 2)
		if err != nil {
			t.Fatalf("%s seed 2: %v", sc.kind, err)
		}
		// Compare whole fingerprints, not just the final state hash:
		// sawtooth deliberately ends at a near-empty trough whose
		// contents are seed-independent, but the trajectory (I/O mix,
		// virtual time) must still differ.
		if a == b {
			t.Fatalf("%s: seeds 1 and 2 produced identical fingerprints", sc.kind)
		}
	}
}

// The campaign's kind= coordinates name every scenario, in catalogue order.
func TestScenarioNames(t *testing.T) {
	want := []string{"hot-key-storm", "sawtooth", "snapshot-pin", "tenant-skew"}
	var kinds []string
	for _, c := range scenarioCampaign.Select(Selection{Seeds: []uint64{1}}) {
		for _, co := range c.Coords {
			if co.Axis == "kind" && !slices.Contains(kinds, co.Value) {
				kinds = append(kinds, co.Value)
			}
		}
	}
	if !slices.Equal(kinds, want) {
		t.Fatalf("kinds %q, want %q", kinds, want)
	}
}

// The scenarios must exercise their device's distinguishing machinery:
// the ZNS device sees appends (and shim redirects from in-place page
// rewrites), the throttled cloud device accumulates token-bucket stalls
// under the tenant-skew bursts.
func TestScenariosExerciseDeviceModel(t *testing.T) {
	fp, err := runSawtooth(ssd.ZNSAppend, db.HeapHOT, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fp.ZNSAppends == 0 || fp.ZNSRedirects == 0 {
		t.Fatalf("sawtooth on zns: no zone activity: %+v", fp)
	}
	fp, err = runTenantSkew(ssd.CloudBlock, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fp.CloudOps == 0 {
		t.Fatalf("tenant-skew on cloud-block: no metered ops: %+v", fp)
	}
}

// TestScenarioGates holds the qualitative claims the catalogue exists to
// pin, not just "the cells ran":
//
//  1. A hot-key version storm must not regress UNRELATED-key point-lookup
//     p99 by more than a bounded factor: the storm blows up one version
//     chain, and MV-PBT's index-only visibility must keep other keys'
//     lookups from paying for it.
//  2. On the throttled-IOPS cloud device the tenant-skew burst mix must
//     drive the governor's soft-watermark admission control: sessions
//     queue, load is shed, and commits resume after a maintenance window.
//  3. With the token bucket tightened below the workload's demand the
//     same run must accumulate device-level stalls — the throttling and
//     the admission gate are distinct mechanisms and both must engage.
func TestScenarioGates(t *testing.T) {
	// Gate 1: hot-key storm, both heap layouts on the calibrated device.
	// The floor keeps the ratio meaningful when the base p99 is a handful
	// of cached microseconds.
	const p99Floor = int64(25_000) // 25us
	for _, hk := range []db.HeapKind{db.HeapHOT, db.HeapSIAS} {
		fp, err := runHotKey(ssd.EnterpriseNVMe, hk, 1)
		if err != nil {
			t.Fatalf("hot-key storm heap=%v: %v", hk, err)
		}
		bound := max(fp.BaseP99NS, p99Floor)
		if fp.StormP99NS > 8*bound {
			t.Errorf("heap=%v: storm p99 %dns vs base %dns exceeds 8x bound — hot-key chain leaked into unrelated lookups",
				hk, fp.StormP99NS, fp.BaseP99NS)
		}
		if fp.HotUpdates == 0 {
			t.Errorf("heap=%v: storm ran no hot-key updates", hk)
		}
	}

	// Gate 2: tenant-skew on the stock cloud device must engage the
	// soft-watermark admission gate and recover from it.
	fp, err := runTenantSkew(ssd.CloudBlock, 1)
	if err != nil {
		t.Fatalf("tenant-skew on cloud-block: %v", err)
	}
	if fp.Queued == 0 {
		t.Error("cloud-block tenant-skew: admission gate never queued a session")
	}
	if fp.ResumedCommits == 0 {
		t.Error("cloud-block tenant-skew: no commit resumed after load shedding")
	}
	if fp.CloudOps == 0 {
		t.Error("cloud-block tenant-skew: device metered no ops")
	}

	// Gate 3: the same scenario with the token bucket tightened below the
	// run's demand must stall at the device level. Latency cannot change
	// the single-threaded control flow, so the admission-side counters
	// must match the stock-device run exactly.
	tight := ssd.CloudBlock
	tight.BaseIOPS = 200
	tight.BurstOps = 16
	tfp, err := runTenantSkew(tight, 1)
	if err != nil {
		t.Fatalf("tenant-skew on tightened cloud: %v", err)
	}
	if tfp.CloudStalls == 0 {
		t.Error("tightened cloud tenant-skew: token bucket never stalled")
	}
	if tfp.Queued != fp.Queued || tfp.Rejected != fp.Rejected || tfp.Committed != fp.Committed {
		t.Errorf("device latency leaked into control flow: stock queued/shed/committed %d/%d/%d, tightened %d/%d/%d",
			fp.Queued, fp.Rejected, fp.Committed, tfp.Queued, tfp.Rejected, tfp.Committed)
	}
}

// An expect accepts a scan of exactly its pairs, whose hash is its state
// hash, and refuses one with a key too many, a key missing or a wrong value —
// in a full scan and in a bounded one from a key.
func TestExpectMatch(t *testing.T) {
	e := expect{}
	e.put("a", "1")
	e.put("b", "2")
	e.put("c", "3")
	e.put("d", "x")
	e.del("d")
	if v, ok := e.get("b"); !ok || v != "2" {
		t.Fatalf("get b = %q,%v", v, ok)
	}
	if _, ok := e.get("d"); ok {
		t.Fatal("deleted key still acked")
	}
	exact := [][2]string{{"a", "1"}, {"b", "2"}, {"c", "3"}}
	h, err := e.state(exact)
	if err != nil {
		t.Fatalf("exact scan refused: %v", err)
	}
	if h != stateHash(exact) || h == stateHash(exact[:2]) {
		t.Fatalf("state hash %x does not fingerprint the scan", h)
	}
	if err := e.match(exact[1:], "b", 2); err != nil {
		t.Fatalf("bounded scan from b refused: %v", err)
	}
	for name, got := range map[string][][2]string{
		"extra key":   {{"a", "1"}, {"b", "2"}, {"bb", "9"}, {"c", "3"}},
		"extra tail":  {{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "x"}},
		"missing key": {{"a", "1"}, {"c", "3"}},
		"missing end": {{"a", "1"}, {"b", "2"}},
		"wrong value": {{"a", "1"}, {"b", "22"}, {"c", "3"}},
	} {
		if _, err := e.state(got); err == nil {
			t.Errorf("%s: full scan %q accepted", name, got)
		}
	}
	if err := e.match([][2]string{{"b", "2"}}, "b", 2); err == nil || !strings.Contains(err.Error(), "1 pairs, acked 2") {
		t.Errorf("bounded scan missing c: %v", err)
	}
}
