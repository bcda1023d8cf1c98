package check

import (
	"fmt"

	"mvpbt/internal/db"
)

// The two campaigns of the differential harness. Both run, for every heap
// layout × seed, a generated history in lockstep with the oracle, and both
// runs of a cell must agree on every counter and on the oracle's final state.

// faultCampaign punctuates the history with deterministic device faults
// (read errors, write errors, torn commit flushes, bit rot): lockstep must
// hold under every injected fault — masked or recovered, never silent
// corruption — and both runs must observe identical fault behaviour.
var faultCampaign = &Campaign{
	Name:  "faults",
	Seeds: 8,
	Size:  Size{Ops: 1500, Clients: 4, Keys: 200, Crashes: 3},
	Cells: harnessCells(true),
	Totals: func(cells []CellResult) string {
		sum := sumCounters(cells)
		return fmt.Sprintf("injected: %v across %d runs; %d fault recoveries, %d quarantine-rebuilds",
			sum.Faults, len(cells), sum.FaultRecoveries, sum.Rebuilds)
	},
}

// diffCampaign runs a longer fault-free history, crash-restarts included:
// every read on every index and snapshot must equal the oracle's.
var diffCampaign = &Campaign{
	Name:  "diff",
	Seeds: 1,
	Size:  Size{Ops: 6000, Clients: 4, Keys: 200, Crashes: 2},
	Cells: harnessCells(false),
	Totals: func(cells []CellResult) string {
		sum := sumCounters(cells)
		return fmt.Sprintf("injected: %d crashes into %d ops across %d runs; %d audits, %d write conflicts",
			sum.Crashes, sum.Ops, len(cells), sum.Audits, sum.Conflicts)
	},
}

// harnessCells builds the heap × seed grid of harness runs.
func harnessCells(faults bool) func(seeds []uint64, sz Size) []Cell {
	return func(seeds []uint64, sz Size) []Cell {
		var cells []Cell
		for _, hk := range []db.HeapKind{db.HeapHOT, db.HeapSIAS} {
			for _, seed := range seeds {
				rc := RunConfig{
					Heap: hk, Seed: seed, Ops: sz[Ops], Clients: sz[Clients],
					Keys: sz[Keys], Crashes: sz[Crashes], Faults: faults,
				}
				cells = append(cells, Cell{
					Coords: []Coord{{"heap", hk.String()}, seedCoord(seed)},
					Run:    func() (Fingerprint, error) { return harnessCell(rc) },
				})
			}
		}
		return cells
	}
}

// harnessCell generates rc's history and runs it; a violation comes back
// shrunk.
func harnessCell(rc RunConfig) (Fingerprint, error) {
	r := Run(rc)
	if r.Violation != nil {
		return r.Counters, r.Violation
	}
	return r.Counters, nil
}

// sumCounters adds up the counters of a campaign's cells.
func sumCounters(cells []CellResult) (sum Counters) {
	for _, c := range cells {
		f := c.Fp.(Counters)
		sum.Ops += f.Ops
		sum.Audits += f.Audits
		sum.Crashes += f.Crashes
		sum.Conflicts += f.Conflicts
		for i, n := range f.Faults.Injected {
			sum.Faults.Injected[i] += n
		}
		sum.FaultRecoveries += f.FaultRecoveries
		sum.Rebuilds += f.Rebuilds
	}
	return sum
}
