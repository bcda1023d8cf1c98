// Package ycsb implements the Yahoo! Cloud Serving Benchmark core
// workloads the paper uses (§2 motivation experiment and §5 Figure 15):
// A (50/50 read/update, zipfian), B (95/5 read/update, zipfian), D (95/5
// read/insert, latest) and E (95/5 scan/insert, zipfian start, uniform
// scan length).
package ycsb

import (
	"fmt"

	"mvpbt/internal/db"
	"mvpbt/internal/util"
)

// Workload identifies a YCSB core workload.
type Workload byte

// The core workloads used in the paper.
const (
	WorkloadA Workload = 'A'
	WorkloadB Workload = 'B'
	WorkloadD Workload = 'D'
	WorkloadE Workload = 'E'
)

// maxScanLen bounds workload E scans, as YCSB's default does.
const maxScanLen = 100

// Config scales the benchmark.
type Config struct {
	// Records is the initial dataset size (the paper loads 100M keys ≈
	// 100 GB; scaled down here — see EXPERIMENTS.md).
	Records int
	// ValueLen is the value size in bytes (the paper's 10×100 B fields,
	// scaled).
	ValueLen int
	Seed     uint64
}

func (c Config) withDefaults() Config {
	if c.Records <= 0 {
		c.Records = 10000
	}
	if c.ValueLen <= 0 {
		c.ValueLen = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Runner drives one KV engine with YCSB operations.
type Runner struct {
	kv       db.KV
	cfg      Config
	r        *util.Rand
	zipf     *util.ScrambledZipfian
	latest   *util.Latest
	inserted uint64
	val      []byte
	// Ops counts executed operations by kind.
	Reads, Updates, Inserts, Scans int64
}

// NewRunner wraps kv; call Load before Run.
func NewRunner(kv db.KV, cfg Config) *Runner {
	cfg = cfg.withDefaults()
	r := util.NewRand(cfg.Seed)
	return &Runner{
		kv:   kv,
		cfg:  cfg,
		r:    r,
		val:  make([]byte, cfg.ValueLen),
		zipf: util.NewScrambledZipfian(util.NewRand(cfg.Seed+1), uint64(cfg.Records)),
	}
}

// Key renders the i-th key in insertion order (YCSB with ordered
// inserts: workload D's "latest" reads then target recently written key
// ranges, as the paper's caching discussion assumes). Request
// distributions still scramble ranks, so zipfian hot spots stay spread.
func Key(i uint64) []byte {
	return []byte(fmt.Sprintf("user%016d", i))
}

// Load inserts the initial dataset.
func (y *Runner) Load() error {
	for i := 0; i < y.cfg.Records; i++ {
		y.r.Letters(y.val)
		if err := y.kv.Put(Key(uint64(i)), y.val); err != nil {
			return err
		}
	}
	y.inserted = uint64(y.cfg.Records)
	y.latest = util.NewLatest(util.NewRand(y.cfg.Seed+2), y.inserted)
	return nil
}

func (y *Runner) nextKeyZipf() []byte { return Key(y.zipf.Next()) }

func (y *Runner) nextKeyLatest() []byte { return Key(y.latest.Next()) }

func (y *Runner) read(key []byte) error {
	_, _, err := y.kv.Get(key)
	y.Reads++
	return err
}

func (y *Runner) update(key []byte) error {
	y.r.Letters(y.val)
	y.Updates++
	return y.kv.Put(key, y.val)
}

func (y *Runner) insert() error {
	k := Key(y.inserted)
	y.inserted++
	if y.latest != nil {
		y.latest.SetMax(y.inserted)
	}
	y.r.Letters(y.val)
	y.Inserts++
	return y.kv.Put(k, y.val)
}

func (y *Runner) scan(start []byte) error {
	n := 1 + y.r.Intn(maxScanLen)
	y.Scans++
	return y.kv.Scan(start, n, func(k, v []byte) bool { return true })
}

// Op executes one operation of workload w.
func (y *Runner) Op(w Workload) error {
	switch w {
	case WorkloadA:
		if y.r.Intn(2) == 0 {
			return y.read(y.nextKeyZipf())
		}
		return y.update(y.nextKeyZipf())
	case WorkloadB:
		if y.r.Intn(100) < 95 {
			return y.read(y.nextKeyZipf())
		}
		return y.update(y.nextKeyZipf())
	case WorkloadD:
		if y.r.Intn(100) < 95 {
			return y.read(y.nextKeyLatest())
		}
		return y.insert()
	case WorkloadE:
		if y.r.Intn(100) < 95 {
			return y.scan(y.nextKeyZipf())
		}
		return y.insert()
	default:
		return fmt.Errorf("ycsb: unknown workload %c", w)
	}
}

// Run executes n operations of workload w.
func (y *Runner) Run(w Workload, n int) error {
	for i := 0; i < n; i++ {
		if err := y.Op(w); err != nil {
			return err
		}
	}
	return nil
}
