package bench

import (
	"fmt"

	"mvpbt/internal/db"
	"mvpbt/internal/index/lsm"
	"mvpbt/internal/workload/ycsb"
)

// ycsbEngine builds a fresh KV engine of the given kind.
func ycsbEngine(s Scale, kind string) (db.KV, *db.Engine, error) {
	switch kind {
	case "btree":
		eng := db.NewEngine(engineConfig(s.pick(192, 768), 1<<20))
		kv, err := db.NewBTreeKV(eng, "ycsb")
		return kv, eng, err
	case "lsm":
		eng := db.NewEngine(engineConfig(s.pick(192, 768), 1<<20))
		kv := db.NewLSMKV(eng, "ycsb", lsm.Options{
			MemtableBytes: s.pick(256<<10, 1<<20), L0Runs: 4, LevelRatio: 6, BloomBits: 10,
		})
		return kv, eng, nil
	case "mvpbt":
		eng := db.NewEngine(engineConfig(s.pick(192, 768), s.pick(512<<10, 2<<20)))
		kv, err := db.NewMVPBTKV(eng, "ycsb", db.MVPBTKVOptions{BloomBits: 10, MaxPartitions: 10})
		return kv, eng, err
	}
	return nil, nil, fmt.Errorf("bench: unknown kv engine %q", kind)
}

func runFig15a(s Scale) (*Result, error) {
	records := s.pick(20000, 100000)
	res := &Result{
		ID:     "fig15a",
		Title:  "YCSB throughput [thousand ops/s]",
		Header: []string{"workload", "BTree", "LSM", "MV-PBT"},
	}
	// Request counts mirror the paper's proportions (A gets 3x the
	// requests of B/D; E one fifth of B/D).
	opsFor := func(w ycsb.Workload) int {
		base := s.pick(1500, 20000)
		switch w {
		case ycsb.WorkloadA:
			return 3 * base
		case ycsb.WorkloadE:
			return base / 5
		default:
			return base
		}
	}
	for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadD, ycsb.WorkloadE} {
		row := []Cell{label(string(w))}
		for _, kind := range []string{"btree", "lsm", "mvpbt"} {
			kv, eng, err := ycsbEngine(s, kind)
			if err != nil {
				return nil, err
			}
			y := ycsb.NewRunner(kv, ycsb.Config{Records: records, ValueLen: 256, Seed: 99})
			if err := y.Load(); err != nil {
				return nil, err
			}
			eng.Pool.EvictAll()
			ops := opsFor(w)
			el, err := measure(eng.Clock, func() error { return y.Run(w, ops) })
			if err != nil {
				return nil, err
			}
			row = append(row, timed(perSecond(ops, el)/1000, 2))
		}
		res.Add(row...)
	}
	res.Note("paper: A: MV-PBT ~42%% over LSM; B/D: comparable; E: MV-PBT > LSM > BTree collapse")
	res.Headline("lsm_A_kops", "kops/s", must(res.Val("A", "LSM")))
	res.Headline("mvpbt_A_kops", "kops/s", must(res.Val("A", "MV-PBT")))
	return res, nil
}

func runFig15b(s Scale) (*Result, error) {
	records := s.pick(10000, 60000)
	windows := s.pick(10, 20)
	opsPerWindow := s.pick(800, 6000)
	// No partition merging here: the figure shows the partition count
	// growing over time while throughput stays stable.
	eng := db.NewEngine(engineConfig(s.pick(192, 768), s.pick(256<<10, 1<<20)))
	kv, err := db.NewMVPBTKV(eng, "ycsb", db.MVPBTKVOptions{BloomBits: 10})
	if err != nil {
		return nil, err
	}
	mv := kv
	y := ycsb.NewRunner(kv, ycsb.Config{Records: records, ValueLen: 256, Seed: 7})
	if err := y.Load(); err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig15b",
		Title:  "YCSB A throughput vs number of MV-PBT partitions over time",
		Header: []string{"window", "ops/s", "partitions"},
	}
	for wdw := 0; wdw < windows; wdw++ {
		el, err := measure(eng.Clock, func() error { return y.Run(ycsb.WorkloadA, opsPerWindow) })
		if err != nil {
			return nil, err
		}
		parts := mv.Tree().NumPartitions()
		res.Add(count(wdw, 0), timed(perSecond(opsPerWindow, el), 1), count(parts, 0))
	}
	res.Note("paper: throughput stays stable while the number of partitions grows")
	res.Headline("partitions", "count", must(res.Last("partitions")))
	return res, nil
}
