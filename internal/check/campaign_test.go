package check

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mvpbt/internal/ssd"
)

// TestCampaignSmoke is the tier-1 slice of every registered campaign
// (`mvpbt-check <name>` runs each at more seeds): every cell holds its
// invariants and replays byte-identically, and each campaign actually
// exercised what it exists to exercise — a campaign that injects nothing
// proves nothing. A campaign registered without a slice here fails the test.
func TestCampaignSmoke(t *testing.T) {
	type smokeSlice struct {
		sel   Selection
		long  bool // skipped under -short
		check func(t *testing.T, cells []CellResult)
	}
	slices := map[string]smokeSlice{
		// Fault-punctuated histories on both heap layouts: every injected
		// read error, write error, torn commit flush and bit rot either
		// masked (retry, checksum quarantine-rebuild) or absorbed by a
		// crash-recovery, never silent corruption.
		"faults": {
			sel: Selection{Seeds: []uint64{1, 2, 3}, Size: Size{Ops: 700, Clients: 3, Keys: 60, Crashes: 1}},
			check: func(t *testing.T, cells []CellResult) {
				sum := sumCounters(cells)
				for k := 0; k < ssd.NumFaultKinds; k++ {
					if ssd.FaultKind(k) == ssd.FaultNoSpace {
						continue // ENOSPC is exercised by the snapshot-pin scenario
					}
					if sum.Faults.Injected[k] == 0 {
						t.Errorf("fault kind %v never injected: [%v]", ssd.FaultKind(k), sum.Faults)
					}
				}
				if sum.FaultRecoveries == 0 {
					t.Error("no fault ever escalated to a crash-recovery")
				}
				if sum.Rebuilds == 0 {
					t.Error("no index rot was ever quarantined and rebuilt")
				}
			},
		},
		"scenarios": {
			sel:  Selection{Seeds: []uint64{1}, Filter: map[string][]string{"device": {ssd.ZNSAppend.Name}}},
			long: true,
			check: func(t *testing.T, cells []CellResult) {
				for _, c := range cells {
					if fp := c.Fp.(ScenarioFingerprint); fp.Committed == 0 || fp.StateHash == 0 {
						t.Errorf("%v committed nothing or hashed nothing: %+v", c.Cell, fp)
					}
				}
				if want := 3*2 + 1; len(cells) != want {
					t.Errorf("%d cells, want %d (table scenarios on both heaps, tenant-skew once)", len(cells), want)
				}
			},
		},
		"chaos": {
			sel:  Selection{Seeds: []uint64{1, 2}, Size: Size{Ops: 120, Keys: 60}},
			long: true,
			check: func(t *testing.T, cells []CellResult) {
				var injected, reconnects uint64
				for _, c := range cells {
					fp := c.Fp.(ChaosFingerprint)
					injected += fp.Chaos.Cuts + fp.Chaos.Truncations + fp.Chaos.Stalls
					reconnects += fp.Client.Reconnects
				}
				if injected == 0 {
					t.Error("no chaos was injected across the whole campaign")
				}
				if reconnects == 0 {
					t.Error("client never reconnected: cuts were not exercised")
				}
			},
		},
		"2pc": {
			sel:  Selection{Seeds: []uint64{2}},
			long: true,
			check: func(t *testing.T, cells []CellResult) {
				if fp := cells[0].Fp.(TwoPCFingerprint); fp.GroupsApplied == 0 || fp.GroupsAborted == 0 || fp.CoordCrashes == 0 {
					t.Errorf("plan not exercised: %+v", fp)
				}
			},
		},
		// Fault-free histories with crash-restarts on both heap layouts:
		// lockstep with the oracle at every audit.
		"diff": {
			sel: Selection{Seeds: []uint64{1}, Size: Size{Ops: 800, Clients: 3, Keys: 60, Crashes: 2}},
			check: func(t *testing.T, cells []CellResult) {
				if sum := sumCounters(cells); sum.Audits == 0 || sum.Crashes == 0 {
					t.Errorf("history exercised nothing: %d audits, %d crashes", sum.Audits, sum.Crashes)
				}
			},
		},
	}
	// The former exhaust campaign's assertions, held by the snapshot-pin
	// scenario on both heap layouts and every device: degrade to read-only
	// under the pinning snapshot, recover the soft-watermark headroom and
	// truncate the log on release, resume, degrade and heal again on an
	// injected ENOSPC, recover from the checkpointed log.
	exhaust := smokeSlice{
		sel: Selection{Seeds: []uint64{1}, Filter: map[string][]string{"kind": {snapshotPin}}},
		check: func(t *testing.T, cells []CellResult) {
			heaps := map[string]int{}
			for _, c := range cells {
				for _, co := range c.Cell.Coords {
					if co.Axis == "heap" {
						heaps[co.Value]++
					}
				}
				fp := c.Fp.(ScenarioFingerprint)
				if fp.NoSpaceInjected == 0 {
					t.Errorf("%v: FaultNoSpace never injected: %+v", c.Cell, fp)
				}
				// One read-only entry from the pin, one from the ENOSPC probe.
				if fp.ROEntries < 2 || fp.ROExits < 2 {
					t.Errorf("%v: read-only entry/exit counters too low: %+v", c.Cell, fp)
				}
				if fp.PinTxs == 0 {
					t.Errorf("%v: churn committed no transactions: %+v", c.Cell, fp)
				}
				if fp.WALAfter >= fp.WALAtRO {
					t.Errorf("%v: WAL never truncated: %d -> %d", c.Cell, fp.WALAtRO, fp.WALAfter)
				}
				if fp.RecoveredTxs == 0 || fp.StateHash == 0 {
					t.Errorf("%v: recovery fingerprint empty: %+v", c.Cell, fp)
				}
			}
			if n := len(ssd.Zoo()); heaps["hot"] != n || heaps["sias"] != n {
				t.Errorf("cells per heap %v, want %d on each (the zoo)", heaps, n)
			}
		},
	}
	run := func(t *testing.T, c *Campaign, slice smokeSlice) {
		if slice.long && testing.Short() {
			t.Skip("seconds-long")
		}
		var out strings.Builder
		results, failed := c.Run(slice.sel, &out)
		if failed {
			t.Fatalf("campaign failed:\n%s", out.String())
		}
		slice.check(t, results)
	}
	for _, c := range Campaigns {
		t.Run(c.Name, func(t *testing.T) {
			slice, ok := slices[c.Name]
			if !ok {
				t.Fatal("registered campaign has no smoke slice")
			}
			run(t, c, slice)
		})
	}
	t.Run("exhaust", func(t *testing.T) { run(t, scenarioCampaign, exhaust) })
}

// The scenario campaign's grid is the zoo × catalogue cross-product — the
// three table scenarios on both heap layouts, tenant-skew once — at every
// seed (TestReproSelectsOneCell in cmd/mvpbt-check holds each cell
// selectable alone).
func TestScenarioCampaignGrid(t *testing.T) {
	cells := scenarioCampaign.Select(Selection{})
	if want := len(ssd.Zoo()) * (3*2 + 1) * scenarioCampaign.Seeds; len(cells) != want {
		t.Fatalf("%d cells, want %d", len(cells), want)
	}
}

type testFingerprint int

func (fp testFingerprint) String() string { return fmt.Sprint(int(fp)) }

// TestRunnerVerdicts drives the runner with synthetic cells, one per verdict:
// a deterministic cell passes; a fingerprint that differs on replay is a
// mismatch; an error in the first run is a violation and skips the replay; an
// error in the replay alone is a violation too. Each failing cell, and only
// those, gets a reproduce command made of its own coordinates.
func TestRunnerVerdicts(t *testing.T) {
	runs := map[string]int{}
	cell := func(kind string, run func(n int) (Fingerprint, error)) Cell {
		return Cell{Coords: []Coord{{"kind", kind}, seedCoord(7)}, Run: func() (Fingerprint, error) {
			runs[kind]++
			return run(runs[kind])
		}}
	}
	c := &Campaign{
		Name: "synthetic", Seeds: 1, Size: Size{Ops: 10},
		Cells: func([]uint64, Size) []Cell {
			return []Cell{
				cell("steady", func(int) (Fingerprint, error) { return testFingerprint(1), nil }),
				cell("drifting", func(n int) (Fingerprint, error) { return testFingerprint(n), nil }),
				cell("broken", func(int) (Fingerprint, error) { return testFingerprint(0), errors.New("boom") }),
				cell("flaky", func(n int) (Fingerprint, error) {
					if n == 2 {
						return testFingerprint(1), errors.New("late boom")
					}
					return testFingerprint(1), nil
				}),
			}
		},
	}
	var out strings.Builder
	results, failed := c.Run(Selection{Size: Size{Ops: 20}}, &out)
	if !failed {
		t.Fatalf("campaign with failing cells passed:\n%s", out.String())
	}
	want := []struct {
		kind                string
		runs                int
		violation, mismatch bool
	}{{"steady", 2, false, false}, {"drifting", 2, false, true}, {"broken", 1, true, false}, {"flaky", 2, true, false}}
	for i, w := range want {
		r := results[i]
		if runs[w.kind] != w.runs || (r.Violation != nil) != w.violation || (r.Mismatch != "") != w.mismatch {
			t.Errorf("%s: %d runs, violation %v, mismatch %q; want %d runs, violation=%v mismatch=%v",
				w.kind, runs[w.kind], r.Violation, r.Mismatch, w.runs, w.violation, w.mismatch)
		}
		repro := fmt.Sprintf("  reproduce: go run ./cmd/mvpbt-check synthetic -kinds %s -seed 7 -seeds 1 -ops 20\n", w.kind)
		if got := strings.Contains(out.String(), repro); got != (w.violation || w.mismatch) {
			t.Errorf("%s: reproduce line present=%v:\n%s", w.kind, got, out.String())
		}
	}
	if !strings.Contains(out.String(), "FAIL: 2 violations, 1 nondeterministic replays\n") {
		t.Errorf("summary miscounts:\n%s", out.String())
	}
	if _, failed := c.Run(Selection{Filter: map[string][]string{"kind": {"steady"}}}, &out); failed {
		t.Errorf("the one steady cell failed:\n%s", out.String())
	}
	if _, failed := c.Run(Selection{Filter: map[string][]string{"heap": {"hot"}}}, &out); !failed {
		t.Error("a selection that matches no cell passed")
	}
}
