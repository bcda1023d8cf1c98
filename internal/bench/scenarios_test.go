package bench

import (
	"testing"

	"mvpbt/internal/db"
	"mvpbt/internal/ssd"
	"mvpbt/internal/workload/hostile"
)

// TestScenarioMatrix gates the cross-product shapes of the hostile
// scenario matrix — not just "the cells ran" but the qualitative claims
// the matrix exists to pin:
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
func TestScenarioMatrix(t *testing.T) {
	// Gate 1: hot-key storm, both heap layouts on the calibrated device.
	// The floor keeps the ratio meaningful when the base p99 is a handful
	// of cached microseconds.
	const p99Floor = int64(25_000) // 25us
	for _, hk := range []db.HeapKind{db.HeapHOT, db.HeapSIAS} {
		fp, err := hostile.Run(hostile.HotKeyStorm, hostile.Config{
			Device: ssd.EnterpriseNVMe, Seed: 1, Heap: hk,
		})
		if err != nil {
			t.Fatalf("hot-key storm heap=%v: %v", hk, err)
		}
		bound := fp.BaseP99NS
		if bound < p99Floor {
			bound = p99Floor
		}
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
	fp, err := hostile.Run(hostile.TenantSkew, hostile.Config{Device: ssd.CloudBlock, Seed: 1})
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
	tfp, err := hostile.Run(hostile.TenantSkew, hostile.Config{Device: tight, Seed: 1})
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

// The matrix experiment itself must cover the full zoo cross-product and
// render one row per cell.
func TestScenarioMatrixExperiment(t *testing.T) {
	res := cachedQ(t, "scenarios") // every cell replays: any run will do
	// 4 devices x (3 table scenarios x 2 heaps + tenant-skew once).
	want := len(ssd.Zoo()) * (3*2 + 1)
	if len(res.Rows) != want {
		t.Fatalf("matrix has %d rows, want %d", len(res.Rows), want)
	}
	hashes, err := res.Column("hash")
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hashes {
		if h == label("0000000000000000") {
			t.Errorf("row %d has a zero state hash", i)
		}
	}
}
