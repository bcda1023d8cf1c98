// Package bench reproduces every table and figure of the paper's
// evaluation (§2 Figure 3, §3.7 Figure 8, §5 Figures 12–15). Each
// experiment is registered under the paper's figure id and prints the same
// rows/series the paper reports.
//
// Throughput and latency are reported in COMPOSITE time: measured CPU time
// plus the simulated I/O time charged by the flash device model (see
// DESIGN.md §4 "Virtual time"). Absolute numbers therefore differ from the
// paper's testbed; the shapes — who wins, by what factor, where curves
// cross — are the reproduction target recorded in EXPERIMENTS.md.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"mvpbt/internal/db"
	"mvpbt/internal/simclock"
	"mvpbt/internal/ssd"
)

// Scale selects experiment sizing.
type Scale int

// Experiment scales.
const (
	// Quick runs in seconds (unit tests, testing.B smoke runs).
	Quick Scale = iota
	// Full runs the EXPERIMENTS.md configuration (minutes).
	Full
)

// pick returns q under Quick and f under Full.
func (s Scale) pick(q, f int) int {
	if s == Full {
		return f
	}
	return q
}

// Kind says what a cell holds, and with it how far two runs may differ.
type Kind string

// Cell kinds.
const (
	// Label is text: an engine name, a "-" for not applicable, a state hash.
	Label Kind = "label"
	// Count is a count of events, or a value computed from counts and
	// VIRTUAL time alone (device IOPS, simulated I/O ms): a single-goroutine
	// experiment reproduces it to its printed precision.
	Count Kind = "count"
	// Clock is a value computed from a wall-clock reading — wall time or
	// composite time (DESIGN.md "Measurement") — and varies run to run.
	Clock Kind = "clock"
)

// Cell is one table cell: a label, or a number with its display precision.
// Numbers stay float64 until a renderer prints them; nothing parses a
// rendered cell back.
type Cell struct {
	Kind  Kind    `json:"kind"`
	Text  string  `json:"text,omitempty"`
	Value float64 `json:"value,omitempty"`
	Prec  int     `json:"prec,omitempty"` // digits after the decimal point
}

func label(s string) Cell { return Cell{Kind: Label, Text: s} }

func count[T int | int64 | uint64 | float64](v T, prec int) Cell {
	return Cell{Kind: Count, Value: float64(v), Prec: prec}
}

func timed(v float64, prec int) Cell { return Cell{Kind: Clock, Value: v, Prec: prec} }

// String renders the cell as every text output prints it.
func (c Cell) String() string {
	if c.Kind == Label {
		return c.Text
	}
	return strconv.FormatFloat(c.Value, 'f', c.Prec, 64)
}

// Metric is a headline number of an experiment: what its testing.B
// benchmark reports and what a program tracking the figure reads first.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// Result is an experiment outcome: a table of typed cells, free-form notes
// and the headline metrics. String and JSON are the only places a number
// becomes text.
type Result struct {
	ID        string   `json:"id"`
	Title     string   `json:"title"`
	Header    []string `json:"header"`
	Rows      [][]Cell `json:"rows"`
	Notes     []string `json:"notes"`
	Headlines []Metric `json:"headlines"`
}

// Add appends a row: one cell under every header.
func (r *Result) Add(cells ...Cell) {
	if len(cells) != len(r.Header) {
		panic(fmt.Sprintf("%s: a row of %d cells under %d headers", r.ID, len(cells), len(r.Header)))
	}
	r.Rows = append(r.Rows, cells)
}

// Note appends a free-form annotation.
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Headline declares a headline metric.
func (r *Result) Headline(name, unit string, v float64) {
	r.Headlines = append(r.Headlines, Metric{name, unit, v})
}

// must unwraps a lookup an experiment makes into the table it has just
// built: a miss there is a bug in the experiment, not an input.
func must(v float64, err error) float64 {
	if err != nil {
		panic(err)
	}
	return v
}

// Column returns the cells under the named header, top to bottom.
func (r *Result) Column(col string) ([]Cell, error) {
	j := slices.Index(r.Header, col)
	if j < 0 {
		return nil, fmt.Errorf("%s: no column %q (have %q)", r.ID, col, r.Header)
	}
	cells := make([]Cell, len(r.Rows))
	for i, row := range r.Rows {
		cells[i] = row[j]
	}
	return cells, nil
}

// num reads a looked-up cell as a number; a label is an error, never 0.
func (r *Result) num(c Cell, row, col string) (float64, error) {
	if c.Kind == Label {
		return 0, fmt.Errorf("%s: %s / %s is text (%q), not a number", r.ID, row, col, c.Text)
	}
	return c.Value, nil
}

// Val returns the number under the header col in the row labelled row. A
// row's label is its leading cells as printed, joined by spaces, as many as
// it takes to tell it apart: "MV-PBT", "on 64". No such row, more than one,
// no such column and a text cell are all errors.
func (r *Result) Val(row, col string) (float64, error) {
	cells, err := r.Column(col)
	if err != nil {
		return 0, err
	}
	at := -1
	for i, cs := range r.Rows {
		if !labelled(cs, row) {
			continue
		}
		if at >= 0 {
			return 0, fmt.Errorf("%s: rows %d and %d are both labelled %q", r.ID, at, i, row)
		}
		at = i
	}
	if at < 0 {
		return 0, fmt.Errorf("%s: no row %q", r.ID, row)
	}
	return r.num(cells[at], row, col)
}

// labelled reports whether the row's leading cells, as printed and joined
// by spaces, read want.
func labelled(cells []Cell, want string) bool {
	got := ""
	for _, c := range cells {
		if got += c.String(); got == want {
			return true
		}
		got += " "
	}
	return false
}

// Last returns the number in the last row of the named column (the end of
// a sweep: the longest chain, the largest dataset).
func (r *Result) Last(col string) (float64, error) {
	cells, err := r.Column(col)
	if err != nil {
		return 0, err
	}
	if len(cells) == 0 {
		return 0, fmt.Errorf("%s: no rows", r.ID)
	}
	return r.num(cells[len(cells)-1], "last row", col)
}

// String renders the result as an aligned text table, the notes as
// trailing comment lines.
func (r *Result) String() string {
	lines := [][]string{r.Header}
	for _, row := range r.Rows {
		line := make([]string, len(row))
		for j, c := range row {
			line[j] = c.String()
		}
		lines = append(lines, line)
	}
	widths := make([]int, len(r.Header))
	for _, line := range lines {
		for j, c := range line {
			widths[j] = max(widths[j], len(c))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, line := range lines {
		for j, c := range line {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], c)
		}
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// JSON renders the result as one JSON object on one line — every cell with
// its value, precision and kind, the notes, the headline metrics with their
// units — for programs that diff figures across commits or devices.
func (r *Result) JSON() (string, error) {
	b, err := json.Marshal(r)
	return string(b), err
}

// Experiment is one registered figure/table reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(s Scale) (*Result, error)
}

// experiments is the registry: the paper's figures in the paper's order,
// then the experiments beyond it. The title is what -list prints.
var experiments = []Experiment{
	{ID: "fig3", Title: "Throughput vs version-chain length (YCSB-style mix + point query on a growing chain; B-Tree vs PBT vs MV-PBT)", Run: runFig3},
	{ID: "fig8", Title: "I/O characteristics of the simulated Intel DC P3600 SSD (IOPS and MB/s; seq/rand x read/write x 8K/64K)", Run: runFig8},
	{ID: "fig12a", Title: "CH-benchmark mixed-workload throughput (OLTP tx/min + OLAP queries/min) for B-Tree, PBT, MV-PBT and the MV-PBT ablation without GC and index-only visibility check", Run: runFig12a},
	{ID: "fig12b", Title: "Standard vs index-only visibility check: analytical scan time vs simulated query pause (version-chain build-up)", Run: runFig12b},
	{ID: "fig12c", Title: "Sequential write pattern of a single MV-PBT partition eviction (LBA trace)", Run: runFig12c},
	{ID: "fig12d", Title: "Buffer requests and cache hit-rate on index vs base-table nodes (HOT, logical and physical references, PBT, MV-PBT)", Run: runFig12d},
	{ID: "fig13", Title: "Effectiveness and size of MV-PBT partition filters (bloom and prefix-bloom)", Run: runFig13},
	{ID: "fig14a", Title: "TPC-C throughput vs dataset size: B-Tree(PG/HOT) vs B-Tree(SIAS, physical) vs B-Tree(SIAS, indirection)", Run: runFig14a},
	{ID: "fig14b", Title: "TPC-C throughput vs dataset size: B-Tree(indirection) vs PBT(PR) vs PBT(LR) vs MV-PBT", Run: runFig14b},
	{ID: "fig14c", Title: "Influence of partition filters on MV-PBT TPC-C throughput (none, bloom, bloom+prefix)", Run: runFig14c},
	{ID: "fig14d", Title: "MV-PBT partition garbage collection on/off under TPC-C", Run: runFig14d},
	{ID: "fig15a", Title: "YCSB workloads A/B/D/E: B-Tree vs LSM-Tree vs MV-PBT (thousand ops/s)", Run: runFig15a},
	{ID: "fig15b", Title: "YCSB workload A throughput over time vs number of MV-PBT partitions", Run: runFig15b},
	{ID: "extra-wa", Title: "Write amplification under YCSB A: device bytes written / logical bytes (paper contribution: MV-PBT has much lower write amplification than LSM-Trees)", Run: runExtraWA},
	{ID: "extra-merge", Title: "Ablation: on-line partition merging — point-lookup and scan cost vs partition count (merging off / on)", Run: runExtraMerge},
	{ID: "parallel", Title: "Concurrent read path: lookup/scan throughput vs client goroutines (one background writer)", Run: runParallel},
	{ID: "commit", Title: "Commit pipeline: WAL group commit, batching window 0 vs 50µs (closed-loop committers)", Run: runCommit},
	{ID: "net", Title: "Sharded network front-end: clients x shards scaling, admission control under overload", Run: runNet},
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// All returns every experiment sorted by id.
func All() []Experiment {
	out := slices.Clone(experiments)
	slices.SortFunc(out, func(a, b Experiment) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// measure runs work and returns composite elapsed time (CPU + simulated
// I/O) via the engine's clock.
func measure(clock *simclock.Clock, work func() error) (time.Duration, error) {
	sw := simclock.StartStopwatch(clock)
	err := work()
	return sw.Elapsed(), err
}

// drive is the one closed-loop client driver: clients goroutines, each
// running per operations back to back and stopping at its first error. prep
// (nil for none) runs untimed before each op — formatting a key, opening a
// session — and op is timed on the wall clock. drive returns the latency of
// every completed op, merged and ascending; the time the whole run took on a
// stopwatch over clocks (wall time alone if none); and the clients' errors.
func drive(clients, per int, prep, op func(client, i int) error, clocks ...*simclock.Clock) ([]time.Duration, time.Duration, error) {
	lats := make([][]time.Duration, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	sw := simclock.StartStopwatch(clocks...)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := make([]time.Duration, 0, per)
			var err error
			for i := 0; i < per && err == nil; i++ {
				if prep != nil {
					err = prep(c, i)
				}
				st := time.Now()
				if err == nil {
					err = op(c, i)
				}
				if err == nil {
					l = append(l, time.Since(st))
				}
			}
			lats[c], errs[c] = l, err
		}(c)
	}
	wg.Wait()
	el := sw.Elapsed()
	if err := errors.Join(errs...); err != nil {
		return nil, 0, err
	}
	all := slices.Concat(lats...)
	slices.Sort(all)
	return all, el, nil
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// perMinute converts an op count over a duration into ops/minute.
func perMinute(ops int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Minutes()
}

// perSecond converts an op count over a duration into ops/second.
func perSecond(ops int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Seconds()
}

// Device is the device-zoo spec every engine-backed experiment runs on.
// The zero value is the calibrated default (the paper's enterprise NVMe);
// mvpbt-bench -device sets it from a zoo name so any figure can be
// re-measured on consumer flash, a ZNS part, or throttled cloud storage.
var Device ssd.DeviceSpec

// engineConfig builds the standard experiment engine sizing.
func engineConfig(bufferPages, pbufBytes int) db.Config {
	return db.Config{BufferPages: bufferPages, PartitionBufferBytes: pbufBytes, Device: Device}
}
