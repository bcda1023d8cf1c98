package mvpbt_test

// The paper's evaluation as testing.B benchmarks. BenchmarkExperiment runs
// every experiment of internal/bench at Quick scale under its id and reports
// the headline metrics the experiment declares (bench.Result.Headlines),
// printing the full paper-style table in verbose mode. Regenerate everything
// with:
//
//	go test -bench=. -benchmem
//
// one figure with -bench 'BenchmarkExperiment/fig12a$', or run individual
// experiments at full scale with cmd/mvpbt-bench.

import (
	"testing"

	"mvpbt/internal/bench"
)

func BenchmarkExperiment(b *testing.B) {
	for _, e := range bench.All() {
		b.Run(e.ID, func(b *testing.B) {
			var res *bench.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = e.Run(bench.Quick); err != nil {
					b.Fatal(err)
				}
			}
			b.Log("\n" + res.String())
			for _, m := range res.Headlines {
				b.ReportMetric(m.Value, m.Name)
			}
		})
	}
}

// parallelHarness builds the shared read-path scaling fixture once per
// benchmark (outside the timed region) and starts the background writer.
func parallelHarness(b *testing.B) (*bench.ParallelHarness, func() int) {
	b.Helper()
	h, err := bench.NewParallelHarness(bench.Quick)
	if err != nil {
		b.Fatal(err)
	}
	return h, h.StartWriter()
}

// BenchmarkParallelLookup drives point lookups from GOMAXPROCS goroutines
// (override with -cpu) against a buffer-resident MV-PBT while one writer
// goroutine churns versions. Compare -cpu 1 vs -cpu 8 ops/s; the numbers
// are tracked in EXPERIMENTS.md.
func BenchmarkParallelLookup(b *testing.B) {
	h, stop := parallelHarness(b)
	defer stop()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := h.NewClient()
		defer c.Close()
		for pb.Next() {
			if err := c.Lookup(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkParallelScan is the short-range-scan variant of
// BenchmarkParallelLookup (50 entries per scan).
func BenchmarkParallelScan(b *testing.B) {
	h, stop := parallelHarness(b)
	defer stop()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := h.NewClient()
		defer c.Close()
		for pb.Next() {
			if err := c.Scan(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
