// Command benchmarks is the repository's benchmark: four named workloads
// against the real stack, end-to-end metrics from an untraced run and
// per-layer metrics from a traced one, every output checked against a
// model. See README.md in this directory.
//
//	sh benchmarks/run.sh --workload kv_ingest --seed 1 --seconds 10 --trace 0
//	go run ./benchmarks -all -seed 1
//	go run ./benchmarks -all -repeat 2 -check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// moreSetups decides how often a run builds its system, given the builds
// done and the time they took: an untraced run reports the median of three
// builds, and of up to 33 while they are so quick that half a second has
// not gone by; a traced run, which does not report set-up time, builds once.
func moreSetups(done int, spent time.Duration, trace bool) bool {
	if trace {
		return done < 1
	}
	return done < 3 || (spent < 500*time.Millisecond && done < 33)
}

// runResult is one run of one workload.
type runResult struct {
	workload  string
	attempted int
	bad       violations
	metrics   metricSet
	notes     []string // phase timings, for the human reading stderr
}

// correct: every operation succeeded and every check passed.
func (r *runResult) correct() bool { return r.bad.n == 0 }

func (r *runResult) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// runConfig is what one run of one workload is asked for.
type runConfig struct {
	seed    uint64
	seconds int     // run length the op counts are sized for
	scale   float64 // multiplies op counts and, below 1, key counts
	trace   bool
	outDir  string // where a traced run writes trace-<workload>.jsonl
}

func runWorkload(name string, c runConfig) (*runResult, error) {
	if name == wHTAP {
		return runHTAP(c)
	}
	return runKV(name, c)
}

// contractLine renders r as the driver expects it: with trace off every
// end-to-end metric, with trace on every per-layer metric. A per-layer
// metric that is not measured on this workload reads 0; anything else
// missing or not finite is an error, and so, at full size, is an end-to-end
// metric that reads 0 (at the smoke test's size the data fits the pool and
// reads cost no device time).
func contractLine(r *runResult, trace, fullSize bool) ([]byte, error) {
	defs := endToEndDefs
	if trace {
		defs = perLayerDefs
	}
	have := r.metrics.byName()
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		m, ok := have[d.Name]
		switch {
		case !ok && (!trace || d.on(r.workload)):
			return nil, fmt.Errorf("%s: metric %s was not measured", r.workload, d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return nil, fmt.Errorf("%s: metric %s is %v", r.workload, d.Name, m.Value)
		case !trace && fullSize && m.Value == 0:
			return nil, fmt.Errorf("%s: end-to-end metric %s is 0", r.workload, d.Name)
		}
		out[d.Name] = value{m.Value, d.Unit}
		delete(have, d.Name)
	}
	for name := range have {
		return nil, fmt.Errorf("%s: metric %s measured but not asked for", r.workload, name)
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.bad.n, out})
}

func report(r *runResult) {
	for _, m := range r.metrics.list {
		fmt.Fprintln(os.Stderr, " ", fmtMetric(m))
	}
	for _, note := range r.notes {
		fmt.Fprintln(os.Stderr, "  note:", note)
	}
	for _, msg := range r.bad.msgs {
		fmt.Fprintln(os.Stderr, "  VIOLATION:", msg)
	}
	fmt.Fprintf(os.Stderr, "  %s: attempted %d, failed %d, correct %v\n", r.workload, r.attempted, r.bad.n, r.correct())
}

func main() {
	var (
		c        runConfig
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		all      = flag.Bool("all", false, "run every workload, untraced and traced, and print one JSON document")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		repeat   = flag.Int("repeat", 0, "repeatability mode: run the untraced workloads this many times and print the spread of every end-to-end metric")
		seedStep = flag.Uint64("seed-step", 0, "repeatability mode: add this to the seed from one repetition to the next")
		check    = flag.Bool("check", false, "repeatability mode: fail if a spread exceeds the metric's bound")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json as the catalogue defines it and exit")
		list     = flag.Bool("list", false, "print the metric catalogue as a Markdown table and exit")
	)
	flag.Uint64Var(&c.seed, "seed", 1, "workload seed: the only source of randomness")
	flag.IntVar(&c.seconds, "seconds", runSeconds, "run length the op counts are sized for")
	flag.Float64Var(&c.scale, "scale", 1, "multiplies op counts (and, below 1, key counts); the smoke test uses 0.01")
	flag.StringVar(&c.outDir, "out", "benchmarks/out", "directory for trace-<workload>.jsonl")
	flag.Parse()
	c.trace = *trace == 1

	var err error
	names := workloadNames()
	if !*all {
		names = []string{*workload}
	}
	_, isKV := kvSpecs[*workload]
	switch {
	case *spec:
		var b []byte
		if b, err = benchmarkSpec(); err == nil {
			_, err = os.Stdout.Write(b)
		}
	case *list:
		printCatalogue()
	case c.seconds < 1 || c.scale <= 0 || *trace < 0 || *trace > 1:
		err = fmt.Errorf("need -seconds >= 1, -scale > 0 and -trace 0 or 1")
	case !*all && !isKV && *workload != wHTAP:
		err = fmt.Errorf("need -all or -workload, one of %s", strings.Join(workloadNames(), ", "))
	case *repeat > 0:
		err = repeatability(names, c, *seedStep, *repeat, *check)
	case *all:
		err = runAll(names, c)
	default:
		err = runOne(*workload, c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}

// runOne is what the driver asks for: one workload, and the result as the
// last line of stdout.
func runOne(workload string, c runConfig) error {
	r, err := runWorkload(workload, c)
	if err != nil {
		return err
	}
	report(r)
	line, err := contractLine(r, c.trace, c.scale >= 1)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !r.correct() {
		return fmt.Errorf("%s: %d of %d operations or checks failed", workload, r.bad.n, r.attempted)
	}
	return nil
}

// runAll runs every workload untraced and traced and prints every metric
// that applies, by name with its unit, as one JSON document.
func runAll(names []string, c runConfig) error {
	type section struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		EndToEnd  map[string]metric `json:"end_to_end"`
		PerLayer  map[string]metric `json:"per_layer"`
	}
	doc := struct {
		Seed      uint64             `json:"seed"`
		Seconds   int                `json:"seconds"`
		Scale     float64            `json:"scale"`
		Workloads map[string]section `json:"workloads"`
	}{c.seed, c.seconds, c.scale, map[string]section{}}
	failed := 0
	for _, name := range names {
		s := section{Correct: true}
		for _, c.trace = range []bool{false, true} {
			fmt.Fprintf(os.Stderr, "%s, trace %v\n", name, c.trace)
			r, err := runWorkload(name, c)
			if err != nil {
				return err
			}
			report(r)
			if _, err := contractLine(r, c.trace, c.scale >= 1); err != nil {
				return err
			}
			s.Correct = s.Correct && r.correct()
			s.Attempted += r.attempted
			s.Failed += r.bad.n
			if c.trace {
				s.PerLayer = r.metrics.byName()
			} else {
				s.EndToEnd = r.metrics.byName()
			}
		}
		failed += s.Failed
		doc.Workloads[name] = s
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	if failed > 0 {
		return fmt.Errorf("%d operations or checks failed", failed)
	}
	return nil
}

// repeatability runs the untraced workloads n times and prints, for every
// end-to-end metric, median, quartiles and spread. The spread is the
// driver's for four runs or more (interquartile range over median) and
// (max-min)/median below that. With check it fails when a spread exceeds
// the metric's bound.
func repeatability(names []string, c runConfig, seedStep uint64, n int, check bool) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs")
	}
	var over []string
	fmt.Printf("%-10s %-18s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			ci := c
			ci.seed, ci.trace = c.seed+uint64(i)*seedStep, false
			fmt.Fprintf(os.Stderr, "%s, seed %d, run %d of %d\n", name, ci.seed, i+1, n)
			r, err := runWorkload(name, ci)
			if err != nil {
				return err
			}
			if _, err := contractLine(r, false, c.scale >= 1); err != nil {
				return err
			}
			if !r.correct() {
				report(r)
				return fmt.Errorf("%s: %d of %d operations or checks failed", name, r.bad.n, r.attempted)
			}
			for _, m := range r.metrics.list {
				values[m.Name] = append(values[m.Name], m.Value)
			}
		}
		for _, d := range endToEndDefs {
			xs := sorted(values[d.Name])
			q1, q2, q3 := quartiles(xs)
			iqr, rng := (q3-q1)/q2, (xs[len(xs)-1]-xs[0])/q2
			spread := rng
			if n >= 4 {
				spread = iqr
			}
			mark := ""
			if spread > d.Bound && d.Name != "setup_s" {
				mark = "  OVER"
				over = append(over, name+"."+d.Name)
			}
			fmt.Printf("%-10s %-18s %12.4f %12.4f %12.4f %8.4f %8.4f %6.2f%s\n", name, d.Name, q2, q1, q3, iqr, rng, d.Bound, mark)
		}
	}
	if check && len(over) > 0 {
		return fmt.Errorf("spread over bound: %s", strings.Join(over, ", "))
	}
	return nil
}

func printCatalogue() {
	fmt.Println("| metric | unit | better | bound | measured on | should move | definition |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, d := range endToEndDefs {
		fmt.Printf("| `%s` | %s | %s | %.2f | all | | %s |\n", d.Name, d.Unit, d.Better, d.Bound, d.Doc)
	}
	for _, d := range perLayerDefs {
		on := d.On
		if on == "" {
			on = "all"
		}
		fmt.Printf("| `%s` | %s | %s | | %s | %s | %s |\n", d.Name, d.Unit, d.Better, on, d.Moves, d.Doc)
	}
}
