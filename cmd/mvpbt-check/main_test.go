package main

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"mvpbt/internal/check"
)

// reproArgs extracts the arguments of the one "reproduce:" command in out.
func reproArgs(t *testing.T, out string) []string {
	t.Helper()
	const prefix = "  reproduce: go run ./cmd/mvpbt-check "
	var found []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, prefix) {
			found = append(found, strings.TrimPrefix(line, prefix))
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d reproduce lines, want 1:\n%s", len(found), out)
	}
	return strings.Fields(found[0])
}

// TestReproSelectsOneCell: the command the runner prints for a cell, fed back
// through the subcommand's own flag parsing, selects that cell and no other —
// for every cell of every registered campaign's default grid.
func TestReproSelectsOneCell(t *testing.T) {
	for _, c := range check.Campaigns {
		for _, cell := range c.Select(check.Selection{}) {
			sel, ok := selection(c, strings.Fields(cell.Args()), io.Discard)
			if !ok {
				t.Fatalf("%s: %q does not parse", c.Name, cell.Args())
			}
			if got := c.Select(sel); len(got) != 1 || got[0].String() != cell.String() {
				t.Errorf("%s: %q selects %v, want only [%v]", c.Name, cell.Args(), got, cell)
			}
		}
	}
}

type noFp struct{}

func (noFp) String() string { return "-" }

// TestFailingCellRepro runs a campaign with one failing cell end to end: the
// exit code is 1, and rerunning the printed command runs that cell alone.
func TestFailingCellRepro(t *testing.T) {
	failing := &check.Campaign{
		Name: "failing", Seeds: 2,
		Cells: func(seeds []uint64, _ check.Size) []check.Cell {
			var cells []check.Cell
			for _, heap := range []string{"hot", "sias"} {
				for _, kind := range []string{"a", "b"} {
					for _, seed := range seeds {
						cell := check.Cell{Coords: []check.Coord{
							{Axis: "heap", Value: heap}, {Axis: "kind", Value: kind}, {Axis: "seed", Value: fmt.Sprint(seed)},
						}}
						cell.Run = func() (check.Fingerprint, error) {
							if cell.String() == "heap=sias kind=b seed=2" {
								return noFp{}, errors.New("injected")
							}
							return noFp{}, nil
						}
						cells = append(cells, cell)
					}
				}
			}
			return cells
		},
	}
	check.Campaigns = append(check.Campaigns, failing)
	defer func() { check.Campaigns = check.Campaigns[:len(check.Campaigns)-1] }()

	var out strings.Builder
	if code := run([]string{"failing"}, &out, io.Discard); code != 1 {
		t.Fatalf("exit code %d, want 1:\n%s", code, out.String())
	}
	if n := strings.Count(out.String(), "\n  heap="); n != 8 {
		t.Fatalf("%d cells ran, want 8:\n%s", n, out.String())
	}
	var again strings.Builder
	if code := run(reproArgs(t, out.String()), &again, io.Discard); code != 1 {
		t.Fatalf("repro exit code %d, want 1:\n%s", code, again.String())
	}
	if strings.Count(again.String(), "\n  heap=") != 1 ||
		!strings.Contains(again.String(), "\n  heap=sias kind=b seed=2: - — VIOLATION: injected\n") {
		t.Fatalf("the repro command did not run exactly the failing cell:\n%s", again.String())
	}
}
