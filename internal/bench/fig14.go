package bench

import (
	"time"

	"mvpbt/internal/db"
	"mvpbt/internal/simclock"
	"mvpbt/internal/workload/tpcc"
)

// tpccThroughput loads a TPC-C database and measures the mix in tx/min
// (composite time) and in device µs per transaction (the simulated I/O
// alone, free of the wall clock). The buffer is FIXED while the dataset
// grows with the warehouse count — the paper's Figure 14a/b regime: small
// datasets fit the buffer, large ones do not.
func tpccThroughput(s Scale, warehouses int, cfg tpcc.Config) (perMin, devUs float64, err error) {
	// Average independent seeded runs: partition/eviction boundary effects
	// make single measurements noisy at these scales.
	reps := s.pick(2, 3)
	totalTx, totalTime, devTime := 0, time.Duration(0), time.Duration(0)
	for rep := 0; rep < reps; rep++ {
		eng := db.NewEngine(engineConfig(s.pick(256, 512), 512<<10))
		c := cfg
		c.Warehouses = warehouses
		if c.CustomersPerDistrict == 0 {
			c.CustomersPerDistrict = s.pick(60, 150)
		}
		if c.Items == 0 {
			c.Items = s.pick(300, 800)
		}
		c.Seed = uint64(1000 + rep)
		c.AutoVacuumEvery = 200
		b, err := tpcc.New(eng, c)
		if err != nil {
			return 0, 0, err
		}
		if err := b.Load(); err != nil {
			return 0, 0, err
		}
		// Warm-up into steady state, then measure.
		if err := b.Run(s.pick(150, 600)); err != nil {
			return 0, 0, err
		}
		txns := s.pick(400, 2500)
		sw := simclock.StartStopwatch(eng.Clock)
		if err := b.Run(txns); err != nil {
			return 0, 0, err
		}
		totalTx, totalTime, devTime = totalTx+txns, totalTime+sw.Elapsed(), devTime+sw.SimElapsed()
	}
	return perMinute(totalTx, totalTime), float64(devTime) / float64(time.Microsecond) / float64(totalTx), nil
}

func warehouseSweep(s Scale) []int {
	if s == Full {
		return []int{1, 2, 4, 8}
	}
	return []int{1, 2, 4}
}

func runFig14a(s Scale) (*Result, error) {
	res := &Result{
		ID:     "fig14a",
		Title:  "TPC-C tx/min vs warehouses (B-Tree variants)",
		Header: []string{"warehouses", "BTree(PG/HOT)", "BTree(SIAS/PR)", "BTree(SIAS/LR)"},
	}
	for _, w := range warehouseSweep(s) {
		row := []Cell{count(w, 0)}
		for _, cfg := range []tpcc.Config{
			{Heap: db.HeapHOT, Index: db.IdxBTree, RefMode: db.RefPhysical},
			{Heap: db.HeapSIAS, Index: db.IdxBTree, RefMode: db.RefPhysical},
			{Heap: db.HeapSIAS, Index: db.IdxBTree, RefMode: db.RefLogical},
		} {
			tput, _, err := tpccThroughput(s, w, cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, timed(tput, 1))
		}
		res.Add(row...)
	}
	res.Note("paper: HOT wins while the buffer holds the working set; with growing datasets the indirection layer wins (+30%% over physical refs)")
	res.Headline("sias_pr_tx/min", "tx/min", must(res.Last("BTree(SIAS/PR)")))
	res.Headline("sias_lr_tx/min", "tx/min", must(res.Last("BTree(SIAS/LR)")))
	return res, nil
}

func runFig14b(s Scale) (*Result, error) {
	res := &Result{
		ID:     "fig14b",
		Title:  "TPC-C tx/min vs warehouses (indexing approaches)",
		Header: []string{"warehouses", "BTree(LR)", "PBT(PR)", "PBT(LR)", "MV-PBT"},
	}
	for _, w := range warehouseSweep(s) {
		row := []Cell{count(w, 0)}
		for _, cfg := range []tpcc.Config{
			{Heap: db.HeapSIAS, Index: db.IdxBTree, RefMode: db.RefLogical},
			{Heap: db.HeapSIAS, Index: db.IdxPBT, RefMode: db.RefPhysical, BloomBits: 10, PrefixLen: 12},
			{Heap: db.HeapSIAS, Index: db.IdxPBT, RefMode: db.RefLogical, BloomBits: 10, PrefixLen: 12},
			{Heap: db.HeapSIAS, Index: db.IdxMVPBT, RefMode: db.RefPhysical, BloomBits: 10, PrefixLen: 12},
		} {
			tput, _, err := tpccThroughput(s, w, cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, timed(tput, 1))
		}
		res.Add(row...)
	}
	res.Note("paper: PBT robust and best; MV-PBT ~6%% below PBT under pure OLTP (short chains, larger records)")
	res.Headline("pbt_pr_tx/min", "tx/min", must(res.Last("PBT(PR)")))
	res.Headline("mvpbt_tx/min", "tx/min", must(res.Last("MV-PBT")))
	return res, nil
}

func runFig14c(s Scale) (*Result, error) {
	res := &Result{
		ID:     "fig14c",
		Title:  "MV-PBT TPC-C tx/min with partition filters off/bloom/bloom+prefix",
		Header: []string{"filters", "tx/min"},
	}
	configs := []struct {
		name string
		bits int
		plen int
	}{
		{"none", 0, 0},
		{"bloom", 10, 0},
		{"bloom+prefix", 10, 12},
	}
	w := s.pick(1, 2)
	for _, c := range configs {
		tput, _, err := tpccThroughput(s, w, tpcc.Config{
			Heap: db.HeapSIAS, Index: db.IdxMVPBT, BloomBits: c.bits, PrefixLen: c.plen,
		})
		if err != nil {
			return nil, err
		}
		res.Add(label(c.name), timed(tput, 1))
	}
	res.Note("paper: bloom filters +10%%, prefix bloom another +10%%")
	res.Headline("nofilter_tx/min", "tx/min", must(res.Val("none", "tx/min")))
	res.Headline("bloom_prefix_tx/min", "tx/min", must(res.Val("bloom+prefix", "tx/min")))
	return res, nil
}

func runFig14d(s Scale) (*Result, error) {
	res := &Result{
		ID:     "fig14d",
		Title:  "MV-PBT TPC-C tx/min with partition GC on/off",
		Header: []string{"GC", "tx/min", "device µs/tx"},
	}
	w := s.pick(1, 2)
	for _, c := range []struct {
		name string
		off  bool
	}{{"with GC", false}, {"without GC", true}} {
		tput, dev, err := tpccThroughput(s, w, tpcc.Config{
			Heap: db.HeapSIAS, Index: db.IdxMVPBT, BloomBits: 10, PrefixLen: 12, DisableGC: c.off,
		})
		if err != nil {
			return nil, err
		}
		res.Add(label(c.name), timed(tput, 1), count(dev, 2))
	}
	res.Note("paper: GC improves throughput by 5-17%% (limited by TPC-C's short chains)")
	res.Note("tx/min is composite (wall + device) time; device µs/tx is the simulated I/O alone")
	res.Headline("gc_tx/min", "tx/min", must(res.Val("with GC", "tx/min")))
	res.Headline("nogc_tx/min", "tx/min", must(res.Val("without GC", "tx/min")))
	res.Headline("gc_device_us/tx", "us", must(res.Val("with GC", "device µs/tx")))
	res.Headline("nogc_device_us/tx", "us", must(res.Val("without GC", "device µs/tx")))
	return res, nil
}
