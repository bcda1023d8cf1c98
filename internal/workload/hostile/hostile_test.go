package hostile

import (
	"testing"

	"mvpbt/internal/db"
	"mvpbt/internal/ssd"
)

// Every hostile scenario must replay byte-identically from its seed on
// every device in the zoo: run twice, demand fingerprint equality. The
// workloads are deterministic functions of (kind, device, seed), so any
// divergence is a nondeterminism bug in the engine, the device model, or
// the generator itself.
func TestScenariosReplayOnZoo(t *testing.T) {
	for _, spec := range ssd.Zoo() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, kind := range Kinds() {
				kind := kind
				t.Run(kind.String(), func(t *testing.T) {
					cfg := Config{Device: spec, Seed: 1}
					a, err := Run(kind, cfg)
					if err != nil {
						t.Fatalf("run 1: %v", err)
					}
					b, err := Run(kind, cfg)
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
	for _, kind := range Kinds() {
		a, err := Run(kind, Config{Seed: 1})
		if err != nil {
			t.Fatalf("%v seed 1: %v", kind, err)
		}
		b, err := Run(kind, Config{Seed: 2})
		if err != nil {
			t.Fatalf("%v seed 2: %v", kind, err)
		}
		// Compare whole fingerprints, not just the final state hash:
		// sawtooth deliberately ends at a near-empty trough whose
		// contents are seed-independent, but the trajectory (I/O mix,
		// virtual time) must still differ.
		if a == b {
			t.Fatalf("%v: seeds 1 and 2 produced identical fingerprints", kind)
		}
	}
}

// The registry names every scenario.
func TestKindRegistry(t *testing.T) {
	want := []string{"hot-key-storm", "sawtooth", "snapshot-pin", "tenant-skew"}
	kinds := Kinds()
	if len(kinds) != len(want) {
		t.Fatalf("got %d kinds, want %d", len(kinds), len(want))
	}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Fatalf("kind %d = %q, want %q", i, k.String(), want[i])
		}
	}
}

// The scenarios must exercise their device's distinguishing machinery:
// the ZNS device sees appends (and shim redirects from in-place page
// rewrites), the throttled cloud device accumulates token-bucket stalls
// under the tenant-skew bursts.
func TestScenariosExerciseDeviceModel(t *testing.T) {
	fp, err := Run(Sawtooth, Config{Device: ssd.ZNSAppend, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fp.ZNSAppends == 0 || fp.ZNSRedirects == 0 {
		t.Fatalf("sawtooth on zns: no zone activity: %+v", fp)
	}
	fp, err = Run(TenantSkew, Config{Device: ssd.CloudBlock, Seed: 1})
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
		fp, err := Run(HotKeyStorm, Config{Device: ssd.EnterpriseNVMe, Seed: 1, Heap: hk})
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
	fp, err := Run(TenantSkew, Config{Device: ssd.CloudBlock, Seed: 1})
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
	tfp, err := Run(TenantSkew, Config{Device: tight, Seed: 1})
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
