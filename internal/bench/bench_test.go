package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"reflect"
	"strings"
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

// firstRun keeps each experiment's first Quick result of this test binary,
// so TestDeterministicExperimentsReplay compares a second run against the
// one a shape test already paid for.
var firstRun = map[string]*Result{}

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
	if firstRun[id] == nil {
		firstRun[id] = res
	}
	return res
}

// cachedQ returns the experiment's first result, running it if no test has.
func cachedQ(t *testing.T, id string) *Result {
	t.Helper()
	if res := firstRun[id]; res != nil {
		return res
	}
	return runQ(t, id)
}

// shape reads one run's cells for an assertion, by row label and column
// name. A lookup that misses is recorded, not read as 0: checkShape fails
// the test on it whatever the assertion made of the number.
type shape struct {
	res   *Result
	err   error // the first failed lookup
	clock bool  // a column holding clock-derived cells was read
}

func (s *shape) read(col string, v float64, err error) float64 {
	if err != nil && s.err == nil {
		s.err = err
	}
	cells, _ := s.res.Column(col)
	for _, c := range cells {
		s.clock = s.clock || c.Kind == Clock
	}
	return v
}

func (s *shape) val(row, col string) float64 {
	v, err := s.res.Val(row, col)
	return s.read(col, v, err)
}

func (s *shape) last(col string) float64 {
	v, err := s.res.Last(col)
	return s.read(col, v, err)
}

// checkShape runs the experiment and applies the assertion. An assertion
// over counts is pinned: those cells replay exactly
// (TestDeterministicExperimentsReplay), so a failure is a failure. One that
// read a clock-derived cell compares measurements that scheduling and the
// wall clock perturb, and is retried once before the test fails.
func checkShape(t *testing.T, id string, assert func(s *shape) error) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		s := &shape{res: runQ(t, id)}
		err := assert(s)
		if s.err != nil {
			t.Fatal(s.err)
		}
		if err == nil {
			return
		}
		if !s.clock || attempt == 1 {
			t.Fatal(err)
		}
		t.Logf("%s: clock-derived shape failed, retrying once: %v", id, err)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig3", "fig8", "fig12a", "fig12b", "fig12c", "fig12d",
		"fig13", "fig14a", "fig14b", "fig14c", "fig14d", "fig15a", "fig15b",
		"extra-wa", "extra-merge", "parallel", "commit", "net"}
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
	checkShape(t, "fig3", func(s *shape) error {
		btree1, btree50 := s.val("1", "BTree"), s.last("BTree")
		pbt50 := s.last("PBT")
		mvpbt1, mvpbt50 := s.val("1", "MVPBT"), s.last("MVPBT")
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
	checkShape(t, "fig8", func(s *shape) error {
		for row, iops := range map[string]float64{ // paper IOPS
			"sequential read 8K": 122382, "sequential read 64K": 24180,
			"random read 8K": 112479, "random read 64K": 23631,
			"sequential write 8K": 11104, "sequential write 64K": 1343,
			"random write 8K": 7185, "random write 64K": 56,
		} {
			if got := s.val(row, "IOPS"); got < iops*0.9 || got > iops*1.1 {
				return fmt.Errorf("%s: IOPS %f, paper %f", row, got, iops)
			}
		}
		return nil
	})
}

func TestFig12aShape(t *testing.T) {
	checkShape(t, "fig12a", func(s *shape) error {
		pbtOLAP, pbtOLTP := s.val("PBT", "OLAP q/min"), s.val("PBT", "OLTP tx/min")
		mvOLTP, mvOLAP := s.val("MV-PBT", "OLTP tx/min"), s.val("MV-PBT", "OLAP q/min")
		ablOLAP := s.val("MV-PBT w/o GC+idxVC", "OLAP q/min")
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
	checkShape(t, "fig12b", func(s *shape) error {
		pbtGrowth := s.last("PBT+VC ms") / s.val("30", "PBT+VC ms")
		if pbtGrowth < 1.5 {
			return fmt.Errorf("PBT+VC did not degrade with pause: growth %f", pbtGrowth)
		}
		if mvGC, pbt := s.last("MV-PBT w/ GC ms"), s.last("PBT+VC ms"); mvGC > pbt {
			return fmt.Errorf("MV-PBT w/ GC slower than PBT+VC at max pause: %f vs %f ms", mvGC, pbt)
		}
		return nil
	})
}

func TestFig12cSequential(t *testing.T) {
	res := runQ(t, "fig12c")
	// The note records the sequential percentage; re-derive from rows: all
	// sample rows after the first must be sequential.
	cells, err := res.Column("seq")
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	for i, c := range cells {
		if i > 0 && c == label("true") {
			seq++
		}
	}
	if seq < len(cells)-2 {
		t.Errorf("eviction trace not sequential: %d/%d sample rows", seq, len(cells)-1)
	}
}

func TestFig12dShape(t *testing.T) {
	checkShape(t, "fig12d", func(s *shape) error {
		btreePRTbl, mvTbl := s.val("BTree(SIAS/PR)", "tbl req"), s.val("MV-PBT", "tbl req")
		if mvTbl > 0.8*btreePRTbl {
			return fmt.Errorf("MV-PBT base-table requests not reduced: %f vs %f", mvTbl, btreePRTbl)
		}
		if s.val("MV-PBT", "idx req") <= 0 {
			return fmt.Errorf("MV-PBT issued no index-node requests")
		}
		return nil
	})
}

func TestFig13Shape(t *testing.T) {
	checkShape(t, "fig13", func(s *shape) error {
		bloomNeg, bloomFP := s.val("bloom", "negatives%"), s.val("bloom", "false-pos%")
		pNeg := s.val("prefix-bloom", "negatives%")
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
	checkShape(t, "fig14a", func(s *shape) error {
		pr, lr := s.last("BTree(SIAS/PR)"), s.last("BTree(SIAS/LR)")
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
	checkShape(t, "fig14c", func(s *shape) error {
		none := s.val("none", "tx/min")
		best := max(s.val("bloom", "tx/min"), s.val("bloom+prefix", "tx/min"))
		// +10%/+10% is asserted at full scale; here filters must at least
		// not be catastrophic.
		if best < 0.75*none {
			return fmt.Errorf("filters regressed throughput badly: none=%f best=%f", none, best)
		}
		return nil
	})
}

func fig15aShape(s *shape) error {
	lsmA, mvA := s.val("A", "LSM"), s.val("A", "MV-PBT")
	if mvA < lsmA {
		return fmt.Errorf("workload A: MV-PBT %f did not beat LSM %f", mvA, lsmA)
	}
	lsmE, mvE := s.val("E", "LSM"), s.val("E", "MV-PBT")
	if mvE < lsmE*0.6 {
		return fmt.Errorf("workload E: MV-PBT %f far below LSM %f", mvE, lsmE)
	}
	return nil
}

func TestFig15aShape(t *testing.T) { checkShape(t, "fig15a", fig15aShape) }

func TestFig15bShape(t *testing.T) {
	checkShape(t, "fig15b", func(s *shape) error {
		first, last := s.val("0", "partitions"), s.last("partitions")
		if last < first || last < 2 {
			return fmt.Errorf("partition count did not grow: %f -> %f", first, last)
		}
		t0, tN := s.val("0", "ops/s"), s.last("ops/s")
		if tN < t0/5 {
			return fmt.Errorf("throughput collapsed as partitions grew: %f -> %f", t0, tN)
		}
		return nil
	})
}

func TestExtraWAShape(t *testing.T) {
	checkShape(t, "extra-wa", func(s *shape) error {
		btree, lsm, mv := s.val("btree", "write amp"), s.val("lsm", "write amp"), s.val("mvpbt", "write amp")
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
	checkShape(t, "extra-merge", func(s *shape) error {
		offParts, onParts := s.val("false", "partitions"), s.val("true", "partitions")
		offScan, onScan := s.val("false", "scan us/op"), s.val("true", "scan us/op")
		if onParts >= offParts {
			return fmt.Errorf("merging did not reduce partitions: %f vs %f", onParts, offParts)
		}
		if onScan > offScan {
			return fmt.Errorf("merging did not speed scans: %f vs %f us", onScan, offScan)
		}
		return nil
	})
}

// TestNetShape holds the count gate of the net experiment: with admission
// control on, the overload phase queued sessions. (Net rows are labelled
// phase, shards, clients, admission.)
func TestNetShape(t *testing.T) {
	checkShape(t, "net", func(s *shape) error {
		if queued := s.val("overload 1 48 on", "queued"); queued == 0 {
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
	checkShape(t, "net", func(s *shape) error {
		rate1x32, rate4x32 := s.val("scale 1 32", "ops/s"), s.val("scale 4 32", "ops/s")
		if rate4x32 < 2.5*rate1x32 {
			return fmt.Errorf("4 shards at 32 clients only %.2fx over 1 shard (%f vs %f ops/s), want >=2.5x",
				rate4x32/rate1x32, rate4x32, rate1x32)
		}
		offP99, onP99 := s.val("overload 1 48 off", "p99_us"), s.val("overload 1 48 on", "p99_us")
		if onP99 >= offP99 {
			return fmt.Errorf("admission control did not improve p99 under overload: on=%.1fus off=%.1fus", onP99, offP99)
		}
		return nil
	})
}

// TestShapeLookupIsLoud pins what makes the shape tests able to fail: a
// table whose column was renamed, whose row is gone or whose cell is text
// gives the lookup — and through it the assertion — an error, never a 0
// that every inequality happens to accept.
func TestShapeLookupIsLoud(t *testing.T) {
	fig15a := func(mvCol string, mvA Cell) *Result {
		r := &Result{ID: "fig15a", Header: []string{"workload", "BTree", "LSM", mvCol}}
		r.Add(label("A"), timed(1, 2), timed(2, 2), mvA)
		r.Add(label("E"), timed(1, 2), timed(2, 2), timed(3, 2))
		return r
	}
	good := fig15a("MV-PBT", timed(3, 2))
	if v, err := good.Val("A", "MV-PBT"); err != nil || v != 3 {
		t.Fatalf("Val on an intact table = %v, %v; want 3", v, err)
	}
	if s := (&shape{res: good}); fig15aShape(s) != nil || s.err != nil {
		t.Fatalf("fig15a assertion rejects an intact table: %v", s.err)
	}
	missingRow := fig15a("MV-PBT", timed(3, 2))
	missingRow.Rows = missingRow.Rows[1:]
	twice := fig15a("MV-PBT", timed(3, 2))
	twice.Add(twice.Rows[0]...)
	if v, err := twice.Val("A 1.00 2.00", "MV-PBT"); err == nil {
		t.Errorf("Val over two identical rows = %v, want an error", v)
	}
	for name, res := range map[string]*Result{
		"column renamed": fig15a("MVPBT", timed(3, 2)),
		"row missing":    missingRow,
		"row ambiguous":  twice,
		"text cell":      fig15a("MV-PBT", label("-")),
	} {
		if v, err := res.Val("A", "MV-PBT"); err == nil {
			t.Errorf("%s: Val = %v, want an error", name, v)
		}
		s := &shape{res: res}
		fig15aShape(s)
		if s.err == nil {
			t.Errorf("%s: the fig15a assertion read the table without a lookup error", name)
		}
	}
	if v, err := fig15a("MVPBT", timed(3, 2)).Last("MV-PBT"); err == nil {
		t.Errorf("Last on a renamed column = %v, want an error", v)
	}
	if v, err := good.Last("workload"); err == nil {
		t.Errorf("Last on a text column = %v, want an error", v)
	}
	if v, err := (&Result{ID: "empty", Header: []string{"a"}}).Last("a"); err == nil {
		t.Errorf("Last on an empty table = %v, want an error", v)
	}
}

// concurrent names the experiments whose clients run on several goroutines:
// scheduling decides their counts (batch sizes, evictions, queued sessions).
var concurrent = map[string]bool{"commit": true, "net": true, "parallel": true}

// TestDeterministicExperimentsReplay pins, by running twice, what the shape
// tests over counts rely on. fig8, fig12c, fig12d, fig13 and extra-wa hold
// no clock-derived cell and print byte-identical tables; in every other
// single-goroutine experiment each cell not marked Clock prints the same in
// both runs. Cells are compared as printed: fig12d's hit rates
// move by one hit in 25 000 with the Go map order TPC-C's Stock-Level
// iterates in, far below their one decimal.
func TestDeterministicExperimentsReplay(t *testing.T) {
	pinned := map[string]bool{"fig8": true, "fig12c": true, "fig12d": true,
		"fig13": true, "extra-wa": true}
	for _, e := range All() {
		if concurrent[e.ID] {
			continue
		}
		a := cachedQ(t, e.ID)
		// Count cells right of the row label are what a second run can
		// contradict; a table of labels and clock cells has none.
		counts, clocks := 0, 0
		for _, h := range a.Header[1:] {
			cells, err := a.Column(h)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cells {
				switch c.Kind {
				case Count:
					counts++
				case Clock:
					clocks++
				}
			}
		}
		if pinned[e.ID] && clocks > 0 {
			t.Errorf("%s is pinned as deterministic but holds %d clock-derived cells", e.ID, clocks)
		}
		if counts == 0 {
			continue
		}
		b := runQ(t, e.ID)
		if pinned[e.ID] && a.String() != b.String() {
			t.Errorf("%s printed two different tables:\n%s\n%s", e.ID, a, b)
		}
		for _, h := range a.Header {
			ca, _ := a.Column(h)
			cb, err := b.Column(h)
			if err != nil || len(ca) != len(cb) {
				t.Fatalf("%s: column %q has %d cells, then %d (%v)", e.ID, h, len(ca), len(cb), err)
			}
			for i := range ca {
				if ca[i].Kind != Clock && ca[i].String() != cb[i].String() {
					t.Errorf("%s: row %d column %q replayed as %v, then %v", e.ID, i, h, ca[i], cb[i])
				}
			}
		}
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{ID: "x", Title: "t", Header: []string{"a", "bb", "ccc"}}
	r.Add(label("one"), count(1234, 0), timed(1.26, 1))
	r.Note("note %d", 7)
	want := "== x: t ==\na    bb    ccc\none  1234  1.3\n# note 7\n"
	if got := r.String(); got != want {
		t.Errorf("String=%q want %q", got, want)
	}
}

// TestResultJSON decodes a rendered result back: every cell's value,
// precision and kind, the notes and the headline metrics with their units
// survive.
func TestResultJSON(t *testing.T) {
	r := &Result{ID: "x", Title: "t", Header: []string{"mode", "n", "ops/s"}}
	r.Add(label("on"), count(64, 0), timed(1234.5678, 1))
	r.Add(label("off"), count(0, 0), timed(0.25, 2))
	r.Note("n")
	r.Headline("on_ops/s@64", "1/s", 1234.5678)
	doc, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal([]byte(doc), &back); err != nil {
		t.Fatalf("%v in %s", err, doc)
	}
	if !reflect.DeepEqual(&back, r) {
		t.Errorf("decoded %+v\nwant    %+v\nfrom    %s", &back, r, doc)
	}
	if c := back.Rows[0][2]; c.Kind != Clock || c.Value != 1234.5678 || c.Prec != 1 {
		t.Errorf("clock cell decoded as %+v", c)
	}
	if m := back.Headlines[0]; m != (Metric{"on_ops/s@64", "1/s", 1234.5678}) {
		t.Errorf("headline decoded as %+v", m)
	}
	if strings.Contains(doc, "\n") {
		t.Errorf("JSON spans lines; mvpbt-bench -json prints one result a line: %q", doc)
	}
}
