package bench

import (
	"fmt"

	"mvpbt/internal/db"
	"mvpbt/internal/ssd"
	"mvpbt/internal/workload/hostile"
)

// runScenarioMatrix runs the hostile-workload catalogue (hot-key version
// storms, sawtooth bulk load/delete cycles, GC-horizon-pinning analytical
// snapshots, tenant-skewed admission-controlled mixes) across every device
// in the zoo and both heap layouts, one row per cell. The tenant-skew
// scenario drives a shard router over clustered MV-PBT KVs, so the heap
// layout does not apply ("-" row, run once per device). Every cell is a
// deterministic function of (device, scenario, heap, seed); the state
// hash column is the replay contract — rerunning the experiment must
// reproduce every hash bit-for-bit (make check-scenarios double-replays
// the same cells and diffs full fingerprints).
func runScenarioMatrix(s Scale) (*Result, error) {
	seed := uint64(1)
	scale := s.pick(1, 2)
	res := &Result{
		ID:    "scenarios",
		Title: "Hostile-workload scenario matrix",
		Header: []string{"device", "scenario", "heap", "commits", "typed",
			"io ops", "io ms", "detail", "hash"},
	}
	var commits int64
	heapName := map[db.HeapKind]string{db.HeapHOT: "hot", db.HeapSIAS: "sias"}
	for _, dev := range ssd.Zoo() {
		for _, kind := range hostile.Kinds() {
			heaps := []db.HeapKind{db.HeapHOT, db.HeapSIAS}
			if kind == hostile.TenantSkew {
				heaps = []db.HeapKind{db.HeapHOT} // router KVs are heapless
			}
			for _, hk := range heaps {
				fp, err := hostile.Run(kind, hostile.Config{
					Device: dev, Seed: seed, Heap: hk, Scale: scale,
				})
				if err != nil {
					return nil, fmt.Errorf("%s on %s (heap %s): %w", kind, dev.Name, heapName[hk], err)
				}
				hn := heapName[hk]
				if kind == hostile.TenantSkew {
					hn = "-"
				}
				res.Add(label(dev.Name), label(kind.String()), label(hn),
					count(fp.Committed, 0), count(fp.TypedErrs, 0),
					count(fp.Reads+fp.Writes, 0), count(float64(fp.IOTimeNS)/1e6, 1),
					label(scenarioDetail(fp)), label(fmt.Sprintf("%016x", fp.StateHash)))
				commits += fp.Committed
			}
		}
	}
	res.Note("seed %d, scale %d; every cell replays byte-identically from its seed (go run ./cmd/mvpbt-check scenarios)", seed, scale)
	res.Note("detail: hot-key p99 unrelated-key lookup before->during storm; sawtooth live-bytes peak->final; snapshot-pin read-only entries/exits under the pin; tenant-skew admission queued/shed/resumed")
	res.Headline("cells", "count", float64(len(res.Rows)))
	res.Headline("commits", "count", float64(commits))
	return res, nil
}

// scenarioDetail renders the scenario-specific shape evidence for a cell.
func scenarioDetail(fp hostile.Fingerprint) string {
	switch fp.Kind {
	case hostile.HotKeyStorm:
		return fmt.Sprintf("p99 %.0fus->%.0fus", float64(fp.BaseP99NS)/1e3, float64(fp.StormP99NS)/1e3)
	case hostile.Sawtooth:
		return fmt.Sprintf("live %.1fMiB->%.1fMiB", float64(fp.PeakLive)/(1<<20), float64(fp.FinalLive)/(1<<20))
	case hostile.SnapshotPin:
		return fmt.Sprintf("ro %d/%d pin %d tx", fp.ROEntries, fp.ROExits, fp.PinTxs)
	case hostile.TenantSkew:
		return fmt.Sprintf("queued %d shed %d resumed %d", fp.Queued, fp.Rejected, fp.ResumedCommits)
	}
	return ""
}
