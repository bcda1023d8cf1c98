package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The smoke test runs every workload, untraced and traced (ladder, probes
// and open loop included), at a hundredth of the benchmark's size. It
// checks the shape of the output, never a timing.

const smokeScale = 0.01

func smokeRun(t *testing.T, name string, trace bool) *runResult {
	t.Helper()
	r, err := runWorkload(name, runConfig{seed: 1, seconds: runSeconds, scale: smokeScale, trace: trace, outDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s, trace %v: %v", name, trace, err)
	}
	if !r.correct() || r.attempted < 1 {
		t.Fatalf("%s, trace %v: attempted %d, failed %d: %v", name, trace, r.attempted, r.bad.n, r.bad.msgs)
	}
	return r
}

func TestCatalogue(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(endToEndDefs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	for _, w := range workloadDefs {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or used twice", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	haveSetup := false
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != higher && d.Better != lower {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		for _, w := range strings.Fields(d.On) {
			if _, ok := kvSpecs[w]; !ok && w != wHTAP {
				t.Errorf("metric %s: measured on unknown workload %q", d.Name, w)
			}
		}
		haveSetup = haveSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	for _, d := range endToEndDefs {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v, want within (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !haveSetup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}

	want, err := benchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the catalogue: regenerate it with go run ./benchmarks -spec > BENCHMARK.json")
	}
}

// TestSmoke checks that every workload emits, once and with a finite value,
// every metric the catalogue says it measures, and nothing else; and that
// the contract line carries exactly the catalogue's names.
func TestSmoke(t *testing.T) {
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			r := smokeRun(t, w.Name, trace)
			defs := endToEndDefs
			if trace {
				defs = perLayerDefs
			}
			have := r.metrics.byName()
			for _, d := range defs {
				m, ok := have[d.Name]
				if !d.on(w.Name) {
					if ok {
						t.Errorf("%s: %s measured, but the catalogue says it is not", w.Name, d.Name)
					}
					continue
				}
				if !ok {
					t.Errorf("%s: %s not measured", w.Name, d.Name)
				} else if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
					t.Errorf("%s: %s = %v %s, want a finite value in %s", w.Name, d.Name, m.Value, m.Unit, d.Unit)
				}
			}
			line, err := contractLine(r, trace, false)
			if err != nil {
				t.Fatalf("%s, trace %v: %v", w.Name, trace, err)
			}
			var out struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatalf("%s, trace %v: %v in %s", w.Name, trace, err, line)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted != r.attempted || len(out.Metrics) != len(defs) {
				t.Errorf("%s, trace %v: contract line %s", w.Name, trace, line)
			}
			for _, d := range defs {
				if m, ok := out.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s, trace %v: contract line lacks %s in %s", w.Name, trace, d.Name, d.Unit)
				}
			}
			if trace {
				checkLedger(t, w.Name, r)
			}
		}
	}
}

// checkLedger checks the identities the ladder holds by construction: the
// four self times and the stalled difference sum to the client span, and the
// two device-byte ledger entries to the engine rung's write amplification.
func checkLedger(t *testing.T, workload string, r *runResult) {
	t.Helper()
	if _, ok := kvSpecs[workload]; !ok {
		return
	}
	get := func(name string) float64 {
		v, ok := r.metrics.get(name)
		if !ok {
			t.Errorf("%s: %s not measured", workload, name)
		}
		return v
	}
	near := func(what string, sum, whole float64) {
		if math.Abs(sum-whole) > 1e-6*math.Max(math.Abs(whole), 1) {
			t.Errorf("%s: %s: parts sum to %v, whole is %v", workload, what, sum, whole)
		}
	}
	near("ladder self times",
		get("server.self_us_per_op")+get("shard.self_us_per_op")+get("wal.self_us_per_op")+get("mvpbt.self_us_per_op")+
			get("trace.stalled_diff_us_per_op"),
		get("trace.client_us_per_op"))
	if kvSpecs[workload].setPct > 0 {
		near("device byte ledger",
			get("wal.dev_bytes_per_user_byte")+get("mvpbt.dev_bytes_per_user_byte"),
			get("trace.engine_write_amp"))
	}
}

// TestDeterminism runs the single-goroutine paths twice from one seed: the
// device and index counters of htap, and the leaf probes' device counts,
// must repeat exactly.
func TestDeterminism(t *testing.T) {
	a, b := smokeRun(t, wHTAP, true), smokeRun(t, wHTAP, true)
	for _, m := range a.metrics.list {
		if strings.HasPrefix(m.Name, "ssd.") || m.Name == "mvpbt.evictions" || m.Name == "mvpbt.merges" {
			if v, _ := b.metrics.get(m.Name); v != m.Value {
				t.Errorf("htap: %s is %v in one run and %v in the next", m.Name, m.Value, v)
			}
		}
	}

	w, err := newKVWorkload(wIngest, runConfig{seed: 1, seconds: runSeconds, scale: smokeScale})
	if err != nil {
		t.Fatal(err)
	}
	in := probeInput{keys: w.distinctKeys(), val: make([]byte, kvValueBytes), scale: smokeScale}
	var pa, pb metricSet
	if err := leafProbesKV(in, &pa); err != nil {
		t.Fatal(err)
	}
	if err := leafProbesKV(in, &pb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"mvpbt.evict_dev_writes", "mvpbt.evict_virtual_ms", "mvpbt.evict_seq_write_share",
		"mvpbt.merge_dev_reads", "mvpbt.merge_dev_writes", "mvpbt.merge_virtual_ms",
		"wal.flush_virtual_us", "wal.bytes_per_record",
	} {
		va, _ := pa.get(name)
		vb, ok := pb.get(name)
		if !ok || va != vb {
			t.Errorf("probes: %s is %v in one run and %v in the next", name, va, vb)
		}
	}
	if v, _ := pa.get("mvpbt.evict_seq_write_share"); v != 1 {
		t.Errorf("probes: mvpbt.evict_seq_write_share = %v, want 1 (an eviction writes one sequential run)", v)
	}
}
