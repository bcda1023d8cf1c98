package check

import (
	"fmt"

	"mvpbt/internal/db"
)

// The fault campaign: for every heap layout × seed, a fault-punctuated
// history (read errors, write errors, torn commit flushes, bit rot) must hold
// lockstep with the oracle under every injected fault — masked or recovered,
// never silent corruption — and both runs must observe byte-for-byte
// identical fault behaviour.
var faultCampaign = &Campaign{
	Name:  "faults",
	Seeds: 8,
	Size:  Size{Ops: 1500, Clients: 4, Keys: 200, Crashes: 3},
	Cells: func(seeds []uint64, sz Size) []Cell {
		var cells []Cell
		for _, hk := range []db.HeapKind{db.HeapHOT, db.HeapSIAS} {
			for _, seed := range seeds {
				rc := RunConfig{
					Heap: hk, Seed: seed, Ops: sz[Ops], Clients: sz[Clients],
					Keys: sz[Keys], Crashes: sz[Crashes], Faults: true,
				}
				cells = append(cells, Cell{
					Coords: []Coord{{"heap", hk.String()}, seedCoord(seed)},
					Run:    func() (Fingerprint, error) { return faultCell(rc) },
				})
			}
		}
		return cells
	},
	Totals: func(cells []CellResult) string {
		sum := sumFaults(cells)
		return fmt.Sprintf("injected: %v across %d runs; %d fault recoveries, %d quarantine-rebuilds",
			sum.Faults, len(cells), sum.FaultRecoveries, sum.Rebuilds)
	},
}

// faultCell generates rc's history and runs it.
func faultCell(rc RunConfig) (Fingerprint, error) {
	r := Run(rc)
	if r.Violation != nil {
		return r.Counters, r.Violation
	}
	return r.Counters, nil
}

// sumFaults adds up the injection and recovery counters of a campaign.
func sumFaults(cells []CellResult) (sum Counters) {
	for _, c := range cells {
		f := c.Fp.(Counters)
		for i, n := range f.Faults.Injected {
			sum.Faults.Injected[i] += n
		}
		sum.FaultRecoveries += f.FaultRecoveries
		sum.Rebuilds += f.Rebuilds
	}
	return sum
}
