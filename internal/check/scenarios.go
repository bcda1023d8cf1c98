package check

import (
	"mvpbt/internal/ssd"
	"mvpbt/internal/workload/hostile"
)

// The hostile-scenario campaign: every scenario in the hostile generator's
// catalogue — hot-key version storms, sawtooth bulk load/delete cycles,
// GC-horizon-pinning analytical snapshots, tenant-skewed admission-controlled
// mixes — must run to completion on every device in the zoo and hold its own
// embedded invariants (those are errors inside hostile.Run). The scenarios
// are deterministic functions of (device, kind, seed), so any divergence on
// replay is a nondeterminism bug.
var scenarioCampaign = &Campaign{
	Name:  "scenarios",
	Seeds: 2,
	Cells: func(seeds []uint64, _ Size) []Cell {
		var cells []Cell
		for _, dev := range ssd.Zoo() {
			for _, kind := range hostile.Kinds() {
				for _, seed := range seeds {
					cells = append(cells, Cell{
						Coords: []Coord{{"device", dev.Name}, {"kind", kind.String()}, seedCoord(seed)},
						Run: func() (Fingerprint, error) {
							return hostile.Run(kind, hostile.Config{Device: dev, Seed: seed})
						},
					})
				}
			}
		}
		return cells
	},
}
