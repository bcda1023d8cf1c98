package check

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// The campaign runner. A campaign is a named grid of CELLS; a cell is one
// seeded run of a system under test that holds its own invariants and
// condenses what it did into a Fingerprint. The runner owns everything the
// campaigns have in common: every cell is run twice from scratch, a
// violation in either run fails it (a first-run violation skips the replay —
// there is nothing left to compare), two clean runs must produce fingerprints
// equal under ==, and a failing cell prints the command that reruns that cell
// and nothing else.

// Fingerprint is what two runs of one cell must agree on. It must be a
// comparable value (scalars and fixed arrays only — == is the whole diff) and
// a pure function of the cell's coordinates: no wall clock, no port numbers,
// no syscall or retry counts. String is its one-line rendering.
type Fingerprint interface{ String() string }

// Coord is one coordinate of a cell on a campaign's grid.
type Coord struct{ Axis, Value string }

// AxisFlags names, for each grid axis a selection can filter on, the
// mvpbt-check list flag that does it. The seed axis is not filtered but
// generated, by -seed and -seeds.
var AxisFlags = map[string]string{"device": "devices", "heap": "heap", "kind": "kinds"}

// Cell is one point of a campaign's grid and the function that runs it.
type Cell struct {
	Coords []Coord
	Run    func() (Fingerprint, error)
}

func seedCoord(seed uint64) Coord { return Coord{"seed", fmt.Sprint(seed)} }

// String renders the coordinates, e.g. "heap=hot seed=3".
func (c Cell) String() string {
	parts := make([]string, len(c.Coords))
	for i, co := range c.Coords {
		parts[i] = co.Axis + "=" + co.Value
	}
	return strings.Join(parts, " ")
}

// Args renders the flags that select exactly this cell of its campaign.
func (c Cell) Args() string {
	parts := make([]string, len(c.Coords))
	for i, co := range c.Coords {
		if co.Axis == "seed" {
			parts[i] = "-seed " + co.Value + " -seeds 1"
		} else {
			parts[i] = "-" + AxisFlags[co.Axis] + " " + co.Value
		}
	}
	return strings.Join(parts, " ")
}

// Size is the history size of the campaigns that generate one, indexed by
// Ops, Clients, Keys and Crashes; SizeFlags names each field's flag.
type Size [4]int

const (
	Ops = iota
	Clients
	Keys
	Crashes
)

var SizeFlags = [len(Size{})]string{"ops", "clients", "keys", "crashes"}

// Selection is everything a caller can set about a campaign run; the zero
// value runs the campaign's default grid (what `make check-<name>` runs).
type Selection struct {
	// Seeds replaces the default seed list.
	Seeds []uint64
	// Filter, per axis of AxisFlags, keeps only the cells that have a
	// coordinate on that axis with one of the listed values.
	Filter map[string][]string
	// Size replaces the campaign's default history size (nil = the default).
	Size *Size
}

// Campaign is one registered verification campaign.
type Campaign struct {
	Name string // the mvpbt-check subcommand
	// Seeds is the default seed count (seeds 1..Seeds); Size the default
	// history size, zero in the fields the campaign has no use for.
	Seeds int
	Size  Size
	// Cells enumerates the grid over seeds in run order.
	Cells func(seeds []uint64, sz Size) []Cell
	// Totals, when set, renders the campaign-wide "injected:" line from the
	// first-run fingerprints: a campaign that injects nothing proves nothing.
	Totals func(cells []CellResult) string
}

// Campaigns is the registry, in `mvpbt-check all` order.
var Campaigns = []*Campaign{faultCampaign, scenarioCampaign, chaosCampaign, diffCampaign}

// CampaignByName resolves a registered campaign.
func CampaignByName(name string) *Campaign {
	for _, c := range Campaigns {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// size is the history size sel runs c at.
func (c *Campaign) size(sel Selection) Size {
	if sel.Size != nil {
		return *sel.Size
	}
	return c.Size
}

// Select returns the cells sel picks, in run order.
func (c *Campaign) Select(sel Selection) []Cell {
	seeds := sel.Seeds
	if seeds == nil {
		for s := 1; s <= c.Seeds; s++ {
			seeds = append(seeds, uint64(s))
		}
	}
	var out []Cell
	for _, cell := range c.Cells(seeds, c.size(sel)) {
		if cell.passes(sel.Filter) {
			out = append(out, cell)
		}
	}
	return out
}

// passes reports whether the cell has, on every filtered axis, a coordinate
// with one of the wanted values.
func (c Cell) passes(filter map[string][]string) bool {
	for axis, want := range filter {
		if !slices.ContainsFunc(c.Coords, func(co Coord) bool { return co.Axis == axis && slices.Contains(want, co.Value) }) {
			return false
		}
	}
	return true
}

// CellResult is the outcome of one cell: its first run's fingerprint and,
// when it failed, how.
type CellResult struct {
	Cell      Cell
	Fp        Fingerprint
	Violation error  // an invariant broke, in the first run or in the replay
	Mismatch  string // both runs held but their fingerprints differ
}

// replay runs a cell twice and compares the fingerprints.
func replay(cell Cell) CellResult {
	res := CellResult{Cell: cell}
	fp1, err := cell.Run()
	res.Fp = fp1
	if err != nil {
		res.Violation = err
		return res
	}
	fp2, err := cell.Run()
	switch {
	case err != nil:
		res.Violation = fmt.Errorf("(replay) %w", err)
	case fp1 != fp2:
		res.Mismatch = fmt.Sprintf("%+v vs %+v", fp1, fp2)
	}
	return res
}

func (r CellResult) status() string {
	switch {
	case r.Violation != nil:
		return "VIOLATION: " + r.Violation.Error()
	case r.Mismatch != "":
		return "NONDETERMINISTIC: " + r.Mismatch
	}
	return "ok"
}

// Run replays every selected cell and reports to w: a header, one status
// line per cell, the campaign's totals, and either the pass verdict or FAIL
// with one reproduce command per failing cell. It returns the cell results
// and whether the campaign failed (which includes selecting no cell at all).
func (c *Campaign) Run(sel Selection, w io.Writer) ([]CellResult, bool) {
	cells := c.Select(sel)
	fmt.Fprintf(w, "%s campaign: %d cells, each run twice\n", c.Name, len(cells))
	if len(cells) == 0 {
		fmt.Fprintln(w, "FAIL: the selection matches no cell of this campaign")
		return nil, true
	}
	results := make([]CellResult, 0, len(cells))
	var failed []CellResult
	violations := 0
	for _, cell := range cells {
		r := replay(cell)
		results = append(results, r)
		if r.Violation != nil || r.Mismatch != "" {
			failed = append(failed, r)
		}
		if r.Violation != nil {
			violations++
		}
		fmt.Fprintf(w, "  %s: %s — %s\n", cell, r.Fp, r.status())
	}
	if c.Totals != nil {
		fmt.Fprintln(w, c.Totals(results))
	}
	if len(failed) == 0 {
		fmt.Fprintln(w, "OK: every cell held its invariants and replayed byte-identically")
		return results, false
	}
	fmt.Fprintf(w, "FAIL: %d violations, %d nondeterministic replays\n", violations, len(failed)-violations)
	for _, r := range failed {
		fmt.Fprintf(w, "  reproduce: go run ./cmd/mvpbt-check %s %s", c.Name, r.Cell.Args())
		for i, v := range c.size(sel) {
			if v != c.Size[i] {
				fmt.Fprintf(w, " -%s %d", SizeFlags[i], v)
			}
		}
		fmt.Fprintln(w)
	}
	return results, true
}
