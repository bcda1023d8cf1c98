package bench

import (
	"fmt"

	"mvpbt/internal/db"
	"mvpbt/internal/workload/ycsb"
)

// runExtraWA quantifies the §1 contribution bullet "MV-PBT supports
// append-based write-behavior and exhibits much lower write-amplification
// compared to LSM-Trees": run the same update-heavy workload on all three
// engines and compare device traffic to the logical write volume.
func runExtraWA(s Scale) (*Result, error) {
	records := s.pick(8000, 50000)
	ops := s.pick(8000, 50000)
	const valueLen = 256
	res := &Result{
		ID:     "extra-wa",
		Title:  "Write amplification under YCSB A",
		Header: []string{"engine", "logical MiB", "device MiB", "write amp", "seq%"},
	}
	for _, kind := range []string{"btree", "lsm", "mvpbt"} {
		kv, eng, err := ycsbEngine(s, kind)
		if err != nil {
			return nil, err
		}
		y := ycsb.NewRunner(kv, ycsb.Config{Records: records, ValueLen: valueLen, Seed: 5})
		if err := y.Load(); err != nil {
			return nil, err
		}
		eng.Pool.FlushAll()
		before := eng.Dev.Stats()
		if err := y.Run(ycsb.WorkloadA, ops); err != nil {
			return nil, err
		}
		eng.Pool.FlushAll()
		// Force the MV-PBT main-memory partition out so its write cost is
		// charged like the LSM's memtable flushes.
		if mv, ok := kv.(*db.MVPBTKV); ok {
			if err := mv.Tree().EvictPN(); err != nil {
				return nil, err
			}
		}
		if l, ok := kv.(*db.LSMKV); ok {
			if err := l.Tree().Flush(); err != nil {
				return nil, err
			}
		}
		d := eng.Dev.Stats().Sub(before)
		logical := float64(y.Updates+y.Inserts) * (valueLen + 24) / (1 << 20)
		device := float64(d.BytesWritten) / (1 << 20)
		seq := 100 * float64(d.SeqWrites) / float64(max64(d.Writes, 1))
		wa := device / logical
		res.Add(label(kind), count(logical, 2), count(device, 2), count(wa, 2), count(seq, 1))
	}
	res.Note("logical = updated keys x (value + record header); write amp = device/logical")
	res.Note("the B-Tree pays in-place page writes, the LSM pays compaction rewrites, MV-PBT writes each record once per eviction (plus rare merges)")
	res.Headline("lsm_write_amp", "ratio", must(res.Val("lsm", "write amp")))
	res.Headline("mvpbt_write_amp", "ratio", must(res.Val("mvpbt", "write amp")))
	return res, nil
}

// runExtraMerge isolates the partition-merging design choice: identical
// update-heavy histories with merging off and on, then measured point
// lookups and scans.
func runExtraMerge(s Scale) (*Result, error) {
	records := s.pick(4000, 20000)
	churn := s.pick(20000, 80000)
	res := &Result{
		ID:     "extra-merge",
		Title:  "Partition merging ablation",
		Header: []string{"merging", "partitions", "lookup us/op", "scan us/op"},
	}
	for _, merging := range []bool{false, true} {
		eng := db.NewEngine(engineConfig(s.pick(256, 1024), 64<<10))
		maxParts := 0
		if merging {
			maxParts = 8
		}
		kv, err := db.NewMVPBTKV(eng, "m", db.MVPBTKVOptions{BloomBits: 10, MaxPartitions: maxParts})
		if err != nil {
			return nil, err
		}
		y := ycsb.NewRunner(kv, ycsb.Config{Records: records, ValueLen: 128, Seed: 9})
		if err := y.Load(); err != nil {
			return nil, err
		}
		if err := y.Run(ycsb.WorkloadA, churn); err != nil {
			return nil, err
		}
		parts := kv.Tree().NumPartitions()

		lookups := s.pick(2000, 10000)
		el, err := measure(eng.Clock, func() error {
			for i := 0; i < lookups; i++ {
				if _, _, err := kv.Get(ycsb.Key(uint64(i % records))); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		lookupUS := el.Seconds() * 1e6 / float64(lookups)

		scans := s.pick(200, 1000)
		el, err = measure(eng.Clock, func() error {
			for i := 0; i < scans; i++ {
				err := kv.Scan(ycsb.Key(uint64((i*37)%records)), 50, func(k, v []byte) bool { return true })
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		scanUS := el.Seconds() * 1e6 / float64(scans)
		res.Add(label(fmt.Sprintf("%v", merging)), count(parts, 0), timed(lookupUS, 2), timed(scanUS, 2))
	}
	res.Note("merging bounds the partitions a scan must merge and garbage-collects across partition boundaries")
	res.Headline("partitions_no_merge", "count", must(res.Val("false", "partitions")))
	res.Headline("partitions_merged", "count", must(res.Val("true", "partitions")))
	return res, nil
}
