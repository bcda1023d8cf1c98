package check

import (
	"mvpbt/internal/db"
	"mvpbt/internal/ssd"
	"mvpbt/internal/workload/hostile"
)

// The hostile-scenario campaign: every scenario in the hostile generator's
// catalogue — hot-key version storms, sawtooth bulk load/delete cycles,
// GC-horizon-pinning analytical snapshots that also fill the device to
// read-only, inject ENOSPC and crash-recover, tenant-skewed
// admission-controlled mixes — must run to completion on every device in the
// zoo and hold its own embedded invariants (those are errors inside
// hostile.Run). The three table scenarios run on both heap layouts; the
// tenant-skew scenario drives a router over heapless clustered KVs and runs
// once. The scenarios are deterministic functions of (device, kind, heap,
// seed), so any divergence on replay is a nondeterminism bug.
var scenarioCampaign = &Campaign{
	Name:  "scenarios",
	Seeds: 2,
	Cells: func(seeds []uint64, _ Size) []Cell {
		var cells []Cell
		for _, dev := range ssd.Zoo() {
			for _, kind := range hostile.Kinds() {
				for _, hk := range []db.HeapKind{db.HeapHOT, db.HeapSIAS} {
					if kind == hostile.TenantSkew && hk != db.HeapHOT {
						continue
					}
					for _, seed := range seeds {
						coords := []Coord{{"device", dev.Name}, {"kind", kind.String()}}
						if kind != hostile.TenantSkew {
							coords = append(coords, Coord{"heap", hk.String()})
						}
						cells = append(cells, Cell{
							Coords: append(coords, seedCoord(seed)),
							Run: func() (Fingerprint, error) {
								return hostile.Run(kind, hostile.Config{Device: dev, Seed: seed, Heap: hk})
							},
						})
					}
				}
			}
		}
		return cells
	},
}
