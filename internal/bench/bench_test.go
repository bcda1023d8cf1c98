package bench

import (
	"flag"
	"fmt"
	"strconv"
	"testing"
)

// benchGates enables the gates that compare wall-clock measurements between
// two runs. They depend on the box being quiet (and fail deterministically
// under -race), so `go test ./...` skips them; `make bench-gates` runs them.
var benchGates = flag.Bool("bench-gates", false, "run the wall-clock comparison gates")

// The experiments ARE the reproduction; these tests pin the paper's
// qualitative claims — who wins, in which direction — at Quick scale, so
// a regression in any engine shows up as a failed shape, not just a
// changed number.

func runQ(t *testing.T, id string) *Result {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	res, err := e.Run(Quick)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	t.Logf("\n%s", res)
	return res
}

func num(t *testing.T, res *Result, row, col int) float64 {
	t.Helper()
	if row >= len(res.Rows) || col >= len(res.Rows[row]) {
		t.Fatalf("no cell %d/%d in %s", row, col, res.ID)
	}
	v, err := strconv.ParseFloat(res.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell %d/%d of %s: %v", row, col, res.ID, err)
	}
	return v
}

// checkShape runs the experiment and applies the assertions; because the
// workloads are statistical (map iteration order and scheduling perturb
// partition boundaries between runs), a failed shape is retried once
// before the test fails.
func checkShape(t *testing.T, id string, assert func(res *Result) error) {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		res, err := e.Run(Quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if lastErr = assert(res); lastErr == nil {
			if attempt > 0 {
				t.Logf("%s shape held on retry", id)
			}
			return
		}
		t.Logf("\n%s", res)
	}
	t.Fatal(lastErr)
}

// cellOf parses a numeric cell without failing the test (for assert funcs).
func cellOf(res *Result, row, col int) float64 {
	if row >= len(res.Rows) || col >= len(res.Rows[row]) {
		return 0
	}
	v, _ := strconv.ParseFloat(res.Rows[row][col], 64)
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig3", "fig8", "fig12a", "fig12b", "fig12c", "fig12d",
		"fig13", "fig14a", "fig14b", "fig14c", "fig14d", "fig15a", "fig15b",
		"extra-wa", "extra-merge", "parallel", "maint", "commit", "net",
		"scenarios"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	checkShape(t, "fig3", func(res *Result) error {
		last := len(res.Rows) - 1
		btree1, btree50 := cellOf(res, 0, 1), cellOf(res, last, 1)
		pbt50 := cellOf(res, last, 2)
		mvpbt1, mvpbt50 := cellOf(res, 0, 3), cellOf(res, last, 3)
		switch {
		case btree50 > 0.92*btree1:
			return fmt.Errorf("B-Tree did not degrade with chain length: %f -> %f", btree1, btree50)
		case mvpbt50 < 0.5*mvpbt1:
			return fmt.Errorf("MV-PBT not robust across chain growth: %f -> %f", mvpbt1, mvpbt50)
		case !(mvpbt50 > pbt50 && pbt50 > btree50):
			return fmt.Errorf("ordering at chain 50 wrong: mvpbt=%f pbt=%f btree=%f", mvpbt50, pbt50, btree50)
		}
		return nil
	})
}

func TestFig8MatchesPaperIOPS(t *testing.T) {
	res := runQ(t, "fig8")
	want := map[int]float64{ // row -> paper IOPS
		0: 122382, 1: 24180, 2: 112479, 3: 23631,
		4: 11104, 5: 1343, 6: 7185, 7: 56,
	}
	for row, iops := range want {
		got := num(t, res, row, 3)
		if got < iops*0.9 || got > iops*1.1 {
			t.Errorf("row %d: IOPS %f, paper %f", row, got, iops)
		}
	}
}

func TestFig12aShape(t *testing.T) {
	checkShape(t, "fig12a", func(res *Result) error {
		pbtOLAP, pbtOLTP := cellOf(res, 1, 2), cellOf(res, 1, 1)
		mvOLTP, mvOLAP := cellOf(res, 2, 1), cellOf(res, 2, 2)
		ablOLAP := cellOf(res, 3, 2)
		switch {
		case mvOLAP < 1.3*pbtOLAP:
			return fmt.Errorf("MV-PBT OLAP advantage missing: %f vs PBT %f", mvOLAP, pbtOLAP)
		case ablOLAP > 0.8*mvOLAP:
			return fmt.Errorf("ablation did not hurt OLAP: %f vs %f", ablOLAP, mvOLAP)
		case mvOLTP < 0.7*pbtOLTP:
			return fmt.Errorf("MV-PBT OLTP collapsed: %f vs PBT %f", mvOLTP, pbtOLTP)
		}
		return nil
	})
}

func TestFig12bShape(t *testing.T) {
	checkShape(t, "fig12b", func(res *Result) error {
		last := len(res.Rows) - 1
		pbtGrowth := cellOf(res, last, 1) / cellOf(res, 0, 1)
		if pbtGrowth < 1.5 {
			return fmt.Errorf("PBT+VC did not degrade with pause: growth %f", pbtGrowth)
		}
		if mvGC, pbt := cellOf(res, last, 3), cellOf(res, last, 1); mvGC > pbt {
			return fmt.Errorf("MV-PBT w/ GC slower than PBT+VC at max pause: %f vs %f ms", mvGC, pbt)
		}
		return nil
	})
}

func TestFig12cSequential(t *testing.T) {
	res := runQ(t, "fig12c")
	// The note records the sequential percentage; re-derive from rows: all
	// sample rows after the first must be sequential.
	seq := 0
	for i, row := range res.Rows {
		if i == 0 {
			continue
		}
		if row[4] == "true" {
			seq++
		}
	}
	if seq < len(res.Rows)-2 {
		t.Errorf("eviction trace not sequential: %d/%d sample rows", seq, len(res.Rows)-1)
	}
}

func TestFig12dShape(t *testing.T) {
	checkShape(t, "fig12d", func(res *Result) error {
		btreePRTbl, mvTbl := cellOf(res, 2, 3), cellOf(res, 4, 3)
		if mvTbl > 0.8*btreePRTbl {
			return fmt.Errorf("MV-PBT base-table requests not reduced: %f vs %f", mvTbl, btreePRTbl)
		}
		if cellOf(res, 4, 1) <= 0 {
			return fmt.Errorf("MV-PBT issued no index-node requests")
		}
		return nil
	})
}

func TestFig13Shape(t *testing.T) {
	checkShape(t, "fig13", func(res *Result) error {
		bloomNeg, bloomFP := cellOf(res, 0, 1), cellOf(res, 0, 3)
		pNeg := cellOf(res, 1, 1)
		switch {
		case bloomNeg < 20:
			return fmt.Errorf("bloom filters skip too little: %f%% negatives", bloomNeg)
		case bloomFP > 5:
			return fmt.Errorf("bloom false positives too high: %f%%", bloomFP)
		case pNeg < 40:
			return fmt.Errorf("prefix bloom skips too little: %f%% negatives", pNeg)
		}
		return nil
	})
}

func TestFig14aShape(t *testing.T) {
	checkShape(t, "fig14a", func(res *Result) error {
		last := len(res.Rows) - 1
		pr, lr := cellOf(res, last, 2), cellOf(res, last, 3)
		// Paper: +30% for the indirection layer (EXPERIMENTS.md asserts ≈2x
		// at full scale); quick-scale datasets can fit the buffer, where the
		// two converge.
		if lr < 0.8*pr {
			return fmt.Errorf("logical references far slower than physical: %f vs %f", lr, pr)
		}
		return nil
	})
}

func TestFig14cShape(t *testing.T) {
	checkShape(t, "fig14c", func(res *Result) error {
		none := cellOf(res, 0, 1)
		best := cellOf(res, 1, 1)
		if b := cellOf(res, 2, 1); b > best {
			best = b
		}
		// +10%/+10% is asserted at full scale; here filters must at least
		// not be catastrophic.
		if best < 0.75*none {
			return fmt.Errorf("filters regressed throughput badly: none=%f best=%f", none, best)
		}
		return nil
	})
}

func TestFig15aShape(t *testing.T) {
	checkShape(t, "fig15a", func(res *Result) error {
		lsmA, mvA := cellOf(res, 0, 2), cellOf(res, 0, 3)
		if mvA < lsmA {
			return fmt.Errorf("workload A: MV-PBT %f did not beat LSM %f", mvA, lsmA)
		}
		lsmE, mvE := cellOf(res, 3, 2), cellOf(res, 3, 3)
		if mvE < lsmE*0.6 {
			return fmt.Errorf("workload E: MV-PBT %f far below LSM %f", mvE, lsmE)
		}
		return nil
	})
}

func TestFig15bShape(t *testing.T) {
	checkShape(t, "fig15b", func(res *Result) error {
		first := cellOf(res, 0, 2)
		last := cellOf(res, len(res.Rows)-1, 2)
		if last < first || last < 2 {
			return fmt.Errorf("partition count did not grow: %f -> %f", first, last)
		}
		t0 := cellOf(res, 0, 1)
		tN := cellOf(res, len(res.Rows)-1, 1)
		if tN < t0/5 {
			return fmt.Errorf("throughput collapsed as partitions grew: %f -> %f", t0, tN)
		}
		return nil
	})
}

func TestResultRendering(t *testing.T) {
	r := &Result{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	r.Add("1", "2")
	r.Note("note %d", 7)
	s := r.String()
	for _, want := range []string{"== x: t ==", "a", "bb", "# note 7"} {
		if !contains(s, want) {
			t.Errorf("rendering missing %q in %q", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestExtraWAShape(t *testing.T) {
	checkShape(t, "extra-wa", func(res *Result) error {
		btree, lsm, mv := cellOf(res, 0, 3), cellOf(res, 1, 3), cellOf(res, 2, 3)
		if mv > lsm*1.2 {
			return fmt.Errorf("MV-PBT write amp %f above LSM %f", mv, lsm)
		}
		if btree < 2*lsm {
			return fmt.Errorf("B-Tree write amp %f not clearly above LSM %f", btree, lsm)
		}
		return nil
	})
}

func TestExtraMergeShape(t *testing.T) {
	checkShape(t, "extra-merge", func(res *Result) error {
		offParts, onParts := cellOf(res, 0, 1), cellOf(res, 1, 1)
		offScan, onScan := cellOf(res, 0, 3), cellOf(res, 1, 3)
		if onParts >= offParts {
			return fmt.Errorf("merging did not reduce partitions: %f vs %f", onParts, offParts)
		}
		if onScan > offScan {
			return fmt.Errorf("merging did not speed scans: %f vs %f us", onScan, offScan)
		}
		return nil
	})
}

// TestMaintShape holds the count gates of the maint experiment: both modes
// evicted, and the background run closed clean (maintRun fails the
// experiment on any error out of Engine.Close).
func TestMaintShape(t *testing.T) {
	checkShape(t, "maint", func(res *Result) error {
		if syncEv, bgEv := cellOf(res, 0, 6), cellOf(res, 1, 6); syncEv == 0 || bgEv == 0 {
			return fmt.Errorf("maintenance never triggered: sync=%f bg=%f evictions", syncEv, bgEv)
		}
		return nil
	})
}

// TestMaintWallClockGates is the experiment's actual claim — background
// maintenance takes the pauses off the writer — as a wall-clock comparison.
func TestMaintWallClockGates(t *testing.T) {
	if !*benchGates {
		t.Skip("wall-clock comparison; run with -bench-gates (make bench-gates)")
	}
	checkShape(t, "maint", func(res *Result) error {
		syncOps, bgOps := cellOf(res, 0, 1), cellOf(res, 1, 1)
		syncP99, bgP99 := cellOf(res, 0, 3), cellOf(res, 1, 3)
		switch {
		case bgP99 >= syncP99:
			return fmt.Errorf("background p99 %fus did not beat sync %fus", bgP99, syncP99)
		case bgOps <= syncOps:
			return fmt.Errorf("background throughput %f did not beat sync %f", bgOps, syncOps)
		}
		return nil
	})
}

// TestNetShape holds the count gate of the net experiment: with admission
// control on, the overload phase queued sessions. (Rows 0..8 are the scale
// phase, shards {1,2,4} x clients {1,8,32}; rows 9..10 the overload phase,
// admission off, then on.)
func TestNetShape(t *testing.T) {
	checkShape(t, "net", func(res *Result) error {
		if queued := cellOf(res, 10, 6); queued == 0 {
			return fmt.Errorf("admission-on run never queued a session")
		}
		return nil
	})
}

// TestNetWallClockGates is the experiment's two claims — shards scale the
// I/O-bound write path, admission control bounds p99 under overload — as
// comparisons of composite (wall + virtual) rates and wall-clock
// percentiles.
func TestNetWallClockGates(t *testing.T) {
	if !*benchGates {
		t.Skip("wall-clock comparison; run with -bench-gates (make bench-gates)")
	}
	checkShape(t, "net", func(res *Result) error {
		rate1x32, rate4x32 := cellOf(res, 2, 4), cellOf(res, 8, 4)
		if rate4x32 < 2.5*rate1x32 {
			return fmt.Errorf("4 shards at 32 clients only %.2fx over 1 shard (%f vs %f ops/s), want >=2.5x",
				rate4x32/rate1x32, rate4x32, rate1x32)
		}
		offP99, onP99 := cellOf(res, 9, 5), cellOf(res, 10, 5)
		if onP99 >= offP99 {
			return fmt.Errorf("admission control did not improve p99 under overload: on=%.1fus off=%.1fus", onP99, offP99)
		}
		return nil
	})
}

func TestResultCSV(t *testing.T) {
	r := &Result{ID: "x", Title: "t", Header: []string{"a", "b"}}
	r.Add("1", "has,comma")
	r.Note("n")
	got := r.CSV()
	want := "a,b\n1,\"has,comma\"\n# n\n"
	if got != want {
		t.Fatalf("CSV=%q want %q", got, want)
	}
}
