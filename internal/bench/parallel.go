package bench

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mvpbt/internal/db"
	"mvpbt/internal/index"
	"mvpbt/internal/index/mvpbt"
	"mvpbt/internal/sfile"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
	"mvpbt/internal/util"
)

// ParallelHarness is a preloaded clustered MV-PBT (the KV shape of §5:
// unique index, inline values, blind writes) shared by the concurrent
// read-path benchmarks: the "parallel" experiment table and the
// BenchmarkParallelLookup / BenchmarkParallelScan wrappers in
// bench_test.go. The dataset is sized to stay buffer-resident so the
// measurement exposes lock/latch scaling, not device latency.
type ParallelHarness struct {
	Eng     *db.Engine
	Tree    *mvpbt.Tree
	Records int
	ValLen  int

	rid  atomic.Uint64
	seed atomic.Uint64
}

// NewParallelHarness builds and loads the tree: Records keys, several
// persisted partitions (the partition buffer is deliberately small during
// the load), bloom filters on.
func NewParallelHarness(s Scale) (*ParallelHarness, error) {
	h := &ParallelHarness{
		Eng:     db.NewEngine(engineConfig(s.pick(4096, 16384), s.pick(256<<10, 1<<20))),
		Records: s.pick(20000, 200000),
		ValLen:  64,
	}
	h.Tree = mvpbt.New(h.Eng.Pool, h.Eng.FM.Create("parallel", sfile.ClassIndex), h.Eng.PBuf,
		h.Eng.Mgr, mvpbt.Options{Name: "parallel", Unique: true, BloomBits: 10, MaxPartitions: 8})
	val := make([]byte, h.ValLen)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := 0; i < h.Records; i++ {
		tx := h.Eng.Mgr.Begin()
		if err := h.Tree.InsertRegularVal(tx, h.key(i), h.nextRef(), val); err != nil {
			h.Eng.Mgr.Abort(tx)
			return nil, err
		}
		h.Eng.Mgr.Commit(tx)
	}
	return h, nil
}

func (h *ParallelHarness) key(i int) []byte {
	return []byte(fmt.Sprintf("user%08d", i))
}

// nextRef fabricates a synthetic version identity (file id 0xFFFFFF is
// never dereferenced), like the YCSB KV engine.
func (h *ParallelHarness) nextRef() index.Ref {
	return index.Ref{RID: storage.RecordID{Page: storage.NewPageID(0xFFFFFF, h.rid.Add(1)), Slot: 0}}
}

// NewRand hands out a distinct deterministic RNG per client goroutine.
func (h *ParallelHarness) NewRand() *util.Rand {
	return util.NewRand(0xC0FFEE + h.seed.Add(1)*0x9E3779B97F4A7C15)
}

// txBatch is the number of operations served under one snapshot before the
// client renews its transaction (keeps the GC horizon moving while not
// hammering the transaction manager once per op).
const txBatch = 128

// Client is one benchmark client: a reusable transaction renewed every
// txBatch operations.
type Client struct {
	h   *ParallelHarness
	r   *util.Rand
	tx  *txn.Tx
	ops int
}

// NewClient returns a fresh client with its own RNG.
func (h *ParallelHarness) NewClient() *Client {
	return &Client{h: h, r: h.NewRand()}
}

func (c *Client) renew() {
	if c.tx == nil || c.ops%txBatch == 0 {
		if c.tx != nil {
			c.h.Eng.Mgr.Commit(c.tx)
		}
		c.tx = c.h.Eng.Mgr.Begin()
	}
	c.ops++
}

// Close commits the client's open transaction.
func (c *Client) Close() {
	if c.tx != nil {
		c.h.Eng.Mgr.Commit(c.tx)
		c.tx = nil
	}
}

// Lookup performs one point lookup of a random existing key.
func (c *Client) Lookup() error {
	c.renew()
	key := c.h.key(c.r.Intn(c.h.Records))
	found := false
	if err := c.h.Tree.Lookup(c.tx, key, func(e index.Entry) bool {
		found = true
		return false
	}); err != nil {
		return err
	}
	_ = found // blind writers may have tombstoned the key; absence is fine
	return nil
}

// scanLimit is the number of entries a range scan consumes.
const scanLimit = 50

// Scan performs one short range scan (scanLimit entries) from a random
// start key.
func (c *Client) Scan() error {
	c.renew()
	lo := c.h.key(c.r.Intn(c.h.Records))
	n := 0
	return c.h.Tree.Scan(c.tx, lo, nil, func(e index.Entry) bool {
		n++
		return n < scanLimit
	})
}

// Put performs one blind upsert of a random existing key (the writer's
// churn: version records pile up in PN and trigger evictions/merges).
func (c *Client) Put(val []byte) error {
	c.renew()
	key := c.h.key(c.r.Intn(c.h.Records))
	return c.h.Tree.InsertRegularVal(c.tx, key, c.h.nextRef(), val)
}

// StartWriter launches the background OLTP writer goroutine; the returned
// stop function terminates it and reports how many puts it completed.
func (h *ParallelHarness) StartWriter() (stop func() int) {
	var (
		done  = make(chan struct{})
		wg    sync.WaitGroup
		puts  int
		wrVal = make([]byte, h.ValLen)
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := h.NewClient()
		defer c.Close()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := c.Put(wrVal); err != nil {
				return
			}
			puts++
		}
	}()
	return func() int {
		close(done)
		wg.Wait()
		return puts
	}
}

// runParallel measures wall-clock lookup and scan throughput at 1, 2, 4
// and 8 client goroutines, each run with one background writer churning
// versions — the HTAP read-path scaling table recorded in EXPERIMENTS.md.
// Wall-clock (not composite virtual) time is reported deliberately: the
// dataset is buffer-resident and the quantity under test is lock scaling.
func runParallel(s Scale) (*Result, error) {
	h, err := NewParallelHarness(s)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "parallel",
		Title:  "MV-PBT read-path scaling: ops/s vs client goroutines (one background writer)",
		Header: []string{"clients", "lookup_ops/s", "lookup_speedup", "scan_ops/s", "scan_speedup"},
	}
	lookupOps := s.pick(200000, 2000000)
	scanOps := s.pick(10000, 100000)
	var lookupBase, scanBase float64
	for _, clients := range []int{1, 2, 4, 8} {
		stop := h.StartWriter()
		lookupRate, err := parallelRun(h, clients, lookupOps, (*Client).Lookup)
		if err != nil {
			return nil, err
		}
		scanRate, err := parallelRun(h, clients, scanOps, (*Client).Scan)
		stop()
		if err != nil {
			return nil, err
		}
		if clients == 1 {
			lookupBase, scanBase = lookupRate, scanRate
		}
		res.Add(count(clients, 0),
			timed(lookupRate, 1), timed(lookupRate/lookupBase, 2),
			timed(scanRate, 1), timed(scanRate/scanBase, 2))
	}
	res.Note("wall-clock rates, buffer-resident dataset: measures read-path lock scaling, not device latency")
	res.Note("each run shares the tree with one full-speed blind-writing goroutine (HTAP churn)")
	res.Headline("lookup_ops/s@1", "1/s", lookupBase)
	res.Headline("lookup_speedup@8", "ratio", must(res.Val("8", "lookup_speedup")))
	res.Headline("scan_ops/s@1", "1/s", scanBase)
	res.Headline("scan_speedup@8", "ratio", must(res.Val("8", "scan_speedup")))
	return res, nil
}

// parallelRun executes totalOps operations split across clients goroutines
// and returns the aggregate ops/s (wall clock). One driver op is a batch of
// txBatch operations — a client's whole snapshot — so that reading the
// clock per op does not show in a sub-microsecond lookup's rate.
func parallelRun(h *ParallelHarness, clients, totalOps int, op func(*Client) error) (float64, error) {
	cs := make([]*Client, clients)
	for g := range cs {
		cs[g] = h.NewClient()
		defer cs[g].Close()
	}
	per := totalOps / clients / txBatch
	_, el, err := drive(clients, per, nil, func(g, _ int) error {
		for i := 0; i < txBatch; i++ {
			if err := op(cs[g]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(per*txBatch*clients) / el.Seconds(), nil
}
