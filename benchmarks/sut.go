package main

// sut.go is the single seam between the benchmark and the system under
// test: every import of mvpbt/internal/..., the frozen configurations and
// every Stats read live in this file, behind small local types. A change
// that moves a public API of the product needs a fix-up here and nowhere
// else in this directory.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"

	"mvpbt/internal/bloom"
	"mvpbt/internal/buffer"
	"mvpbt/internal/db"
	"mvpbt/internal/heap"
	"mvpbt/internal/index"
	"mvpbt/internal/index/mvpbt"
	"mvpbt/internal/index/part"
	"mvpbt/internal/server"
	"mvpbt/internal/server/shardclient"
	"mvpbt/internal/server/wire"
	"mvpbt/internal/sfile"
	"mvpbt/internal/shard"
	"mvpbt/internal/simclock"
	"mvpbt/internal/skiplist"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
	"mvpbt/internal/util"
	"mvpbt/internal/wal"
	"mvpbt/internal/workload/chbench"
	"mvpbt/internal/workload/tpcc"
	"mvpbt/internal/workload/ycsb"
)

// ---- Frozen configuration.

const (
	kvShards        = 2         // one per core of the reference box
	kvBufferPages   = 1024      // 8 MiB pool per shard (mvpbt-server default)
	kvPBufBytes     = 256 << 10 // mvpbt-server -pbuf default
	kvCapacityBytes = 256 << 20 // mvpbt-server -capacity default
	kvBloomBits     = 10        // paper Fig. 15 KV configuration
	kvMaxPartitions = 10        // paper Fig. 15 KV configuration
	// 32 MiB at the issue's 400 k ops; scaled with the op count so that a
	// run still cycles through >= 3 checkpoints per shard.
	kvCheckpointBytes = 12 << 20

	htapBufferPages = 512 // Fig. 12a full-scale cell
	htapPBufBytes   = 128 << 10
	pageSize        = storage.PageSize
)

// kvEngineConfig mirrors cmd/mvpbt-server's flag defaults; durable=false is
// the engine_nowal rung of the ladder.
func kvEngineConfig(durable bool) db.Config {
	return db.Config{
		BufferPages:          kvBufferPages,
		PartitionBufferBytes: kvPBufBytes,
		EnableWAL:            durable,
		GroupCommit:          db.GroupCommitConfig{Enabled: durable},
		DeviceCapacityBytes:  kvCapacityBytes,
		WALCheckpointBytes:   kvCheckpointBytes,
	}
}

func htapTPCCConfig(seed uint64) tpcc.Config {
	return tpcc.Config{
		Warehouses:           1,
		CustomersPerDistrict: 200,
		Items:                1000,
		Seed:                 seed,
		Heap:                 db.HeapSIAS,
		Index:                db.IdxMVPBT,
		RefMode:              db.RefPhysical,
		BloomBits:            10,
		PrefixLen:            8,
	}
}

// ---- Inputs: keys and seeded generators.

func keyOf(id uint64) []byte { return ycsb.Key(id) }

type idGen interface{ Next() uint64 }

type prng struct{ r *util.Rand }

func newPRNG(seed uint64) prng       { return prng{util.NewRand(seed)} }
func (p prng) intn(n int) int        { return p.r.Intn(n) }
func (p prng) uniform(n int) idGen   { return util.NewUniform(p.r, uint64(n)) }
func (p prng) scrambled(n int) idGen { return util.NewScrambledZipfian(p.r, uint64(n)) }

// ---- Layer counters, read through the layers' public accessors.

// layerCounters are the monotonic boundary counters the benchmark reports,
// summed over shards (or taken from the single htap engine). Every field is
// a float64: sub walks them by reflection.
type layerCounters struct {
	SessionsAdmitted, SessionsRejected float64

	TwoPCGroups, TwoPCPrepares, Restarts float64

	Commits, ReadOnlyCommits         float64
	GroupCommits, GroupBatches       float64
	Checkpoints, Reclaims, ROEntries float64

	Evictions, Merges                                   float64
	GCMarked, GCSweptPN, GCEvict                        float64
	BloomNegatives, BloomPositives, BloomFalsePositives float64

	Stalls, StallNS, NoVictims, EvictErrors float64

	IndexRequests, IndexHits, TableRequests, TableHits float64
	PoolEvictions, IORetries                           float64

	Reads, Writes, BytesRead, BytesWritten, SeqWrites float64
	ReadVirtualNS, WriteVirtualNS                     float64

	TxnAborts float64
}

// layerStats is one snapshot of every layer: the counters, the levels that
// are not counts, and each engine's virtual clock.
type layerStats struct {
	layerCounters
	InDoubt, Partitions       float64
	LiveBytes, HighWaterBytes float64
	HeapBytes                 float64 // htap: bytes of the SIAS base-table files
	ClockNS                   []int64
}

// sub returns s with o's counters and clocks subtracted; levels keep s's
// value.
func (s layerStats) sub(o layerStats) layerStats {
	d := s
	dv, ov := reflect.ValueOf(&d.layerCounters).Elem(), reflect.ValueOf(o.layerCounters)
	for i := 0; i < dv.NumField(); i++ {
		dv.Field(i).SetFloat(dv.Field(i).Float() - ov.Field(i).Float())
	}
	d.ClockNS = make([]int64, len(s.ClockNS))
	for i, c := range s.ClockNS {
		d.ClockNS[i] = c
		if i < len(o.ClockNS) {
			d.ClockNS[i] -= o.ClockNS[i]
		}
	}
	return d
}

// virtualSum and virtualMax are the summed and the slowest engine's virtual
// device time: shard devices run in parallel, so max sets composite time
// while sum is the device work done.
func (s layerStats) virtualSum() time.Duration {
	var t int64
	for _, c := range s.ClockNS {
		t += c
	}
	return time.Duration(t)
}

func (s layerStats) virtualMax() time.Duration {
	var m int64
	for _, c := range s.ClockNS {
		m = max(m, c)
	}
	return time.Duration(m)
}

// addEngine folds one engine and its MV-PBTs into s.
func (s *layerStats) addEngine(e *db.Engine, trees []*mvpbt.Tree) {
	w := e.WALStatsSnapshot()
	s.Commits += float64(w.Commits)
	s.ReadOnlyCommits += float64(w.ReadOnlyCommits)
	// Not w.Flushes: that counter lives in the wal.Writer, which every
	// checkpoint replaces, so it restarts from 0 six times a run.
	s.GroupCommits += float64(w.Group.Commits)
	s.GroupBatches += float64(w.Group.Batches)
	s.Checkpoints += float64(e.CheckpointInfo().Count)
	sp := e.SpaceInfo()
	s.Reclaims += float64(sp.Reclaims)
	s.ROEntries += float64(sp.ROEntries)
	s.LiveBytes += float64(sp.Live)
	s.HighWaterBytes += float64(sp.HighWater)
	tp := e.TwoPCInfo()
	s.TwoPCPrepares += float64(tp.Prepares)
	s.InDoubt += float64(tp.InDoubt)
	for _, t := range trees {
		ts := t.Stats()
		s.Evictions += float64(ts.Evictions)
		s.Merges += float64(ts.Merges)
		s.GCMarked += float64(ts.GCMarked)
		s.GCSweptPN += float64(ts.GCSweptPN)
		s.GCEvict += float64(ts.GCEvict)
		s.BloomNegatives += float64(ts.Bloom.Negatives)
		s.BloomPositives += float64(ts.Bloom.Positives)
		s.BloomFalsePositives += float64(ts.Bloom.FalsePositives)
		s.Partitions += float64(t.NumPartitions())
	}
	stalls, stallTime := e.PBuf.Stalls()
	s.Stalls += float64(stalls)
	s.StallNS += float64(stallTime)
	s.NoVictims += float64(e.PBuf.NoVictims())
	s.EvictErrors += float64(e.PBuf.EvictErrors())
	ps := e.Pool.Stats()
	s.IndexRequests += float64(ps[sfile.ClassIndex].Requests)
	s.IndexHits += float64(ps[sfile.ClassIndex].Hits)
	s.TableRequests += float64(ps[sfile.ClassTable].Requests)
	s.TableHits += float64(ps[sfile.ClassTable].Hits)
	s.PoolEvictions += float64(e.Pool.Evictions())
	io := e.Pool.IOStats()
	s.IORetries += float64(io.ReadRetries + io.WriteRetries)
	ds := e.Dev.Stats()
	s.Reads += float64(ds.Reads)
	s.Writes += float64(ds.Writes)
	s.BytesRead += float64(ds.BytesRead)
	s.BytesWritten += float64(ds.BytesWritten)
	s.SeqWrites += float64(ds.SeqWrites)
	s.ReadVirtualNS += float64(ds.ReadTime)
	s.WriteVirtualNS += float64(ds.WriteTime)
	s.ClockNS = append(s.ClockNS, int64(e.Clock.Now()))
}

// ---- KV system: shard.Router behind server.Server on loopback TCP.

// kvOps is one entry point into the KV stack; the ladder replays the same
// op stream through four implementations of it.
type kvOps interface {
	get(key []byte) ([]byte, bool, error)
	set(key, val []byte) error
	// scan calls fn for up to limit pairs with key >= lo in key order; the
	// slices are valid only during the call.
	scan(lo []byte, limit int, fn func(k, v []byte)) error
	// txn2 writes both pairs in one transaction.
	txn2(k1, v1, k2, v2 []byte) error
}

type kvSystem struct {
	r         *shard.Router
	srv       *server.Server
	addr      string
	serveDone chan error
}

// newKVSystem builds the frozen 2-shard system. durable=false drops the
// WAL (and with it group commit and the 2PC coordinator log); listen=false
// skips the TCP front end for the in-process rungs.
func newKVSystem(durable, listen bool) (*kvSystem, error) {
	r, err := shard.New(shard.Config{
		Shards:    kvShards,
		Engine:    kvEngineConfig(durable),
		KVOptions: db.MVPBTKVOptions{BloomBits: kvBloomBits, MaxPartitions: kvMaxPartitions},
		Supervise: true,
	})
	if err != nil {
		return nil, fmt.Errorf("sut: router: %w", err)
	}
	s := &kvSystem{r: r}
	if listen {
		s.srv = server.New(r, server.Config{Addr: "127.0.0.1:0"})
		addr, err := s.srv.Listen()
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("sut: listen: %w", err)
		}
		s.addr = addr.String()
		s.serveDone = make(chan error, 1) // one send, by the Serve goroutine
		go func() { s.serveDone <- s.srv.Serve() }()
	}
	return s, nil
}

// close drains the server (every session goroutine has exited when it
// returns) and closes the router.
func (s *kvSystem) close() error {
	var first error
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.srv.Drain(ctx); err != nil {
			first = fmt.Errorf("sut: drain: %w", err)
		}
		if err := <-s.serveDone; err != nil && first == nil {
			first = fmt.Errorf("sut: serve: %w", err)
		}
	}
	if err := s.r.Close(); err != nil && first == nil {
		first = fmt.Errorf("sut: router close: %w", err)
	}
	return first
}

func (s *kvSystem) shardOf(key []byte) int { return s.r.ShardOf(key) }

// stats snapshots every layer. It must not run while a shard restarts.
func (s *kvSystem) stats() layerStats {
	var st layerStats
	if s.srv != nil {
		m := s.srv.Metrics()
		st.SessionsAdmitted = float64(m.Admitted)
		st.SessionsRejected = float64(m.Rejected)
	}
	st.TwoPCGroups = float64(s.r.TwoPCInfo().Coordinator.Decides)
	for i := 0; i < s.r.NumShards(); i++ {
		sh := s.r.Shard(i)
		st.addEngine(sh.Engine, []*mvpbt.Tree{sh.KV.Tree()})
		st.Restarts += float64(s.r.Health(i).Restarts)
	}
	return st
}

// liveBytes, virtualNS and devBytesWritten are the cheap per-op probes
// (atomics and one device mutex) used for space sampling and span fields.
func (s *kvSystem) liveBytes() int64 {
	var n int64
	for i := 0; i < s.r.NumShards(); i++ {
		n += s.r.Shard(i).Engine.FM.LiveBytes()
	}
	return n
}

func (s *kvSystem) virtualNS() int64 {
	var n int64
	for i := 0; i < s.r.NumShards(); i++ {
		n += int64(s.r.Shard(i).Engine.Clock.Now())
	}
	return n
}

func (s *kvSystem) devBytesWritten() int64 {
	var n int64
	for i := 0; i < s.r.NumShards(); i++ {
		n += s.r.Shard(i).Engine.Dev.Stats().BytesWritten
	}
	return n
}

// failAndRecover crashes shard i and waits for the supervisor to bring it
// back through WAL recovery. It returns the wall time from FailShard to
// Healthy and the virtual device time the replay charged to the fresh
// engine (whose clock starts at zero).
func (s *kvSystem) failAndRecover(i int) (wall, virtual time.Duration, err error) {
	before := s.r.Health(i).Restarts
	start := time.Now()
	if err := s.r.FailShard(i, errors.New("benchmark: crash for the durability check")); err != nil {
		return 0, 0, err
	}
	deadline := start.Add(2 * time.Minute)
	for {
		h := s.r.Health(i)
		if h.State == shard.Healthy && h.Restarts > before {
			break
		}
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("sut: shard %d not healthy after restart: %+v", i, h)
		}
		time.Sleep(200 * time.Microsecond)
	}
	wall = time.Since(start)
	return wall, s.r.Shard(i).Engine.Clock.Now(), nil
}

// clientRung is the top rung: shardclient over loopback TCP.
type clientRung struct{ c *shardclient.Client }

func (s *kvSystem) dial() (*clientRung, error) {
	c, err := shardclient.Dial(s.addr, "bench")
	if err != nil {
		return nil, fmt.Errorf("sut: dial: %w", err)
	}
	return &clientRung{c}, nil
}

func (c *clientRung) close()                               { c.c.Close() }
func (c *clientRung) get(key []byte) ([]byte, bool, error) { return c.c.Get(0, key) }
func (c *clientRung) set(key, val []byte) error            { return c.c.Set(0, key, val) }

func (c *clientRung) scan(lo []byte, limit int, fn func(k, v []byte)) error {
	kvs, err := c.c.Scan(0, lo, limit)
	for _, kv := range kvs {
		fn(kv.Key, kv.Val)
	}
	return err
}

func (c *clientRung) txn2(k1, v1, k2, v2 []byte) error {
	tx, err := c.c.Begin()
	if err != nil {
		return err
	}
	if err := c.c.Set(tx, k1, v1); err != nil {
		c.c.Abort(tx)
		return err
	}
	if err := c.c.Set(tx, k2, v2); err != nil {
		c.c.Abort(tx)
		return err
	}
	return c.c.Commit(tx)
}

// routerRung enters at shard.Router: no TCP, wire or server session.
type routerRung struct{ r *shard.Router }

func (s *kvSystem) router() routerRung { return routerRung{s.r} }

func (r routerRung) get(key []byte) ([]byte, bool, error) { return r.r.Get(key) }
func (r routerRung) set(key, val []byte) error            { return r.r.Put(key, val) }

func (r routerRung) scan(lo []byte, limit int, fn func(k, v []byte)) error {
	return r.r.Scan(lo, limit, func(k, v []byte) bool { fn(k, v); return true })
}

func (r routerRung) txn2(k1, v1, k2, v2 []byte) error {
	tx, err := r.r.Begin()
	if err != nil {
		return err
	}
	if err := tx.Put(k1, v1); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Put(k2, v2); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// engineRung enters below the router: hash to a shard, then straight into
// that shard's db.MVPBTKV. Multi-key transactions commit per leg through
// CommitDurable: no epoch barrier, no 2PC, no coordinator log.
type engineRung struct{ r *shard.Router }

func (s *kvSystem) engine() engineRung { return engineRung{s.r} }

func (e engineRung) kv(key []byte) *db.MVPBTKV { return e.r.Shard(e.r.ShardOf(key)).KV }

func (e engineRung) get(key []byte) ([]byte, bool, error) { return e.kv(key).Get(key) }
func (e engineRung) set(key, val []byte) error            { return e.kv(key).Put(key, val) }

func (e engineRung) scan(lo []byte, limit int, fn func(k, v []byte)) error {
	type pair struct{ k, v []byte }
	streams := make([][]pair, e.r.NumShards())
	for i := range streams {
		err := e.r.Shard(i).KV.Scan(lo, limit, func(k, v []byte) bool {
			streams[i] = append(streams[i], pair{append([]byte(nil), k...), append([]byte(nil), v...)})
			return true
		})
		if err != nil {
			return err
		}
	}
	idx := make([]int, len(streams))
	for n := 0; n < limit; n++ {
		best := -1
		for i, st := range streams {
			if idx[i] < len(st) && (best < 0 || bytes.Compare(st[idx[i]].k, streams[best][idx[best]].k) < 0) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		p := streams[best][idx[best]]
		idx[best]++
		fn(p.k, p.v)
	}
	return nil
}

func (e engineRung) txn2(k1, v1, k2, v2 []byte) error {
	for _, leg := range [2][2][]byte{{k1, v1}, {k2, v2}} {
		sh := e.r.Shard(e.r.ShardOf(leg[0]))
		tx := sh.Engine.Begin()
		if err := sh.KV.PutTx(tx, leg[0], leg[1]); err != nil {
			sh.Engine.Abort(tx)
			return err
		}
		if err := sh.Engine.CommitDurable(tx); err != nil {
			sh.Engine.Abort(tx)
			return err
		}
	}
	return nil
}

// ---- HTAP system: chbench on db.Table, SIAS heap + MV-PBT indexes.

type htapSystem struct {
	eng    *db.Engine
	b      *chbench.Bench
	trees  []*mvpbt.Tree
	aborts int64
}

type htapSnapshot struct{ tx *txn.Tx }

// htapResult is an analytical query's output, comparable with ==.
type htapResult struct {
	Rows, Groups int
	Sum          int64
}

// newHTAPSystem builds the engine and loads the database.
func newHTAPSystem(seed uint64) (*htapSystem, error) {
	eng := db.NewEngine(db.Config{BufferPages: htapBufferPages, PartitionBufferBytes: htapPBufBytes})
	b, err := chbench.New(eng, htapTPCCConfig(seed))
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("sut: chbench: %w", err)
	}
	if err := b.Load(); err != nil {
		eng.Close()
		return nil, fmt.Errorf("sut: chbench load: %w", err)
	}
	h := &htapSystem{eng: eng, b: b}
	for _, t := range b.AllTables() {
		for _, ix := range t.Indexes() {
			if mv := ix.MV(); mv != nil {
				h.trees = append(h.trees, mv)
			}
		}
	}
	return h, nil
}

func (h *htapSystem) close() error { return h.eng.Close() }

func (h *htapSystem) begin() htapSnapshot    { return htapSnapshot{h.eng.Begin()} }
func (h *htapSystem) end(s htapSnapshot)     { h.eng.Commit(s.tx) }
func (h *htapSystem) virtualNS() int64       { return int64(h.eng.Clock.Now()) }
func (h *htapSystem) devBytesWritten() int64 { return h.eng.Dev.Stats().BytesWritten }
func (h *htapSystem) liveBytes() int64       { return h.eng.FM.LiveBytes() }

// The five TPC-C transaction types, in the order of the standard mix.
const (
	txNewOrder = iota
	txPayment
	txOrderStatus
	txDelivery
	txStockLevel
)

// tx runs one transaction of the given type and reports whether it
// committed. A write conflict and the rollback the specification demands of
// 1% of new-orders are aborts, not errors; tpcc keeps that second error
// value to itself, so it is recognised by its text.
func (h *htapSystem) tx(kind int) (committed bool, err error) {
	switch kind {
	case txNewOrder:
		err = h.b.NewOrderTx()
	case txPayment:
		err = h.b.PaymentTx()
	case txOrderStatus:
		err = h.b.OrderStatusTx()
	case txDelivery:
		err = h.b.DeliveryTx()
	default:
		err = h.b.StockLevelTx()
	}
	if err == nil {
		return true, nil
	}
	if errors.Is(err, heap.ErrWriteConflict) || strings.HasPrefix(err.Error(), "tpcc: intentional rollback") {
		h.aborts++
		return false, nil
	}
	return false, err
}

// query runs the i-th analytical query of the rotating CH set (Q1, Q6,
// stock, customer) under snapshot s.
func (h *htapSystem) query(s htapSnapshot, i int) (htapResult, error) {
	r, err := h.b.AnalyticalQuery(s.tx, i)
	return htapResult{Rows: r.Rows, Groups: r.Groups, Sum: r.Sum}, err
}

// addStats folds this database's counters into st.
func (h *htapSystem) addStats(st *layerStats) {
	st.addEngine(h.eng, h.trees)
	st.TxnAborts += float64(h.aborts)
	for _, t := range h.b.AllTables() {
		if sh, ok := t.Heap().(*heap.SiasHeap); ok {
			st.HeapBytes += float64(sh.File().NumPages()) * pageSize
		}
	}
}

// ---- Leaf probes: each times one public function of one leaf layer on a
// private instance, single goroutine. The timing loops are in probes.go.

// probeInput carries inputs taken from the kv_ingest op stream.
type probeInput struct {
	keys  [][]byte // distinct keys, in op-stream order
	val   []byte   // one 1 KiB value
	scale float64  // shrinks iteration counts below 1 (smoke test)
}

// iters scales an iteration count down for the smoke test.
func iters(n int, scale float64) int {
	if scale < 1 {
		n = max(int(float64(n)*scale), 64)
	}
	return n
}

func probeDevice() (*simclock.Clock, *ssd.Device, *sfile.Manager) {
	clk := simclock.New()
	dev := ssd.NewWithSpec(clk, ssd.DeviceSpec{})
	return clk, dev, sfile.NewManager(dev)
}

func leafProbesKV(in probeInput, out *metricSet) error {
	n := len(in.keys)
	if n < 64 {
		return fmt.Errorf("sut: leaf probes need >= 64 keys, have %d", n)
	}
	key := func(i int) []byte { return in.keys[i%n] }

	// wire: one SET frame written to and read back from memory.
	{
		var buf bytes.Buffer
		bw, br := bufio.NewWriter(&buf), bufio.NewReader(&buf)
		var err error
		t := timeLoop(iters(20000, in.scale), func(i int) {
			k := key(i)
			if e := wire.WriteFrame(bw, wire.OpSet, wire.U32(0), wire.U32(uint32(len(k))), k, in.val); e != nil {
				err = e
			}
			bw.Flush()
			if _, _, e := wire.ReadFrame(br); e != nil {
				err = e
			}
		})
		if err != nil {
			return fmt.Errorf("sut: wire probe: %w", err)
		}
		out.put("wire.frame_ns", t.nsPerOp)
		out.put("wire.frame_allocs", t.allocsPerOp)
	}

	// wal: Append of one KV insert record; Flush of that record plus its
	// commit record (the autocommit SET's log traffic).
	{
		clk, _, fm := probeDevice()
		w := wal.NewWriter(fm.Create("wal", sfile.ClassMeta))
		n := iters(5000, in.scale)
		var appendNS, flushNS int64
		var err error
		v0 := clk.Now()
		for i := 0; i < n; i++ {
			t0 := time.Now()
			w.Append(&wal.Record{Op: wal.OpInsert, TxID: uint64(i + 1), Table: "shard-0/kv", Key: key(i), Row: in.val})
			t1 := time.Now()
			w.Append(&wal.Record{Op: wal.OpCommit, TxID: uint64(i + 1)})
			if e := w.Flush(); e != nil {
				err = e
			}
			appendNS += int64(t1.Sub(t0))
			flushNS += int64(time.Since(t1))
		}
		if err != nil {
			return fmt.Errorf("sut: wal probe: %w", err)
		}
		out.put("wal.append_ns", float64(appendNS)/float64(n))
		out.put("wal.flush_us", float64(flushNS)/float64(n)/1e3)
		out.put("wal.flush_virtual_us", float64(clk.Now()-v0)/float64(n)/1e3)
		out.put("wal.bytes_per_record", float64(w.Written())/float64(n))
	}

	// txn: Begin + Commit of an empty transaction.
	{
		mgr := txn.NewManager()
		t := timeLoop(iters(200000, in.scale), func(int) { mgr.Commit(mgr.Begin()) })
		out.put("txn.begin_commit_ns", t.nsPerOp)
	}

	// skiplist: Set and Seek on a list the size of a full P_N.
	{
		l := skiplist.New[[]byte, []byte](bytes.Compare, func(k, v []byte) int { return len(k) + len(v) })
		m := min(n, 4096)
		t := timeLoop(m, func(i int) { l.Set(key(i), in.val) })
		out.put("skiplist.set_ns", t.nsPerOp)
		sink := 0
		t = timeLoop(iters(100000, in.scale), func(i int) {
			if it := l.Seek(key(i % m)); it.Valid() {
				sink++
			}
		})
		if sink == 0 {
			return errors.New("sut: skiplist probe found nothing")
		}
		out.put("skiplist.seek_ns", t.nsPerOp)
	}

	// bloom: Add and MayContain at the configured bits per key.
	{
		m := min(n, 4096)
		f := bloom.New(m, kvBloomBits)
		t := timeLoop(m, func(i int) { f.Add(key(i)) })
		out.put("bloom.add_ns", t.nsPerOp)
		hits, looks := 0, iters(200000, in.scale)
		t = timeLoop(looks, func(i int) {
			if f.MayContain(key(i % m)) {
				hits++
			}
		})
		if hits != looks {
			return fmt.Errorf("sut: bloom probe: %d of %d added keys found", hits, looks)
		}
		out.put("bloom.maycontain_ns", t.nsPerOp)
	}

	if err := probeTree(in, out); err != nil {
		return err
	}
	if err := probeSegment(in, out); err != nil {
		return err
	}
	return probeStorage(in.scale, out)
}

// probeTree times the MV-PBT itself: P_N insert and lookup, EvictPN of a
// full 256 KiB P_N, lookups served by partitions, MergePartitions of ten.
func probeTree(in probeInput, out *metricSet) error {
	clk, dev, fm := probeDevice()
	pool := buffer.New(kvBufferPages)
	mgr := txn.NewManager()
	// A partition buffer far above anything inserted here: eviction and
	// merging happen only where the probe calls them.
	tree := mvpbt.New(pool, fm.Create("kv", sfile.ClassIndex), part.NewPartitionBuffer(1<<30), mgr,
		mvpbt.Options{Name: "kv", Unique: true, BloomBits: kvBloomBits})
	n := len(in.keys)
	perPN := kvPBufBytes / (len(in.keys[0]) + len(in.val) + 64)
	next := 0
	var rid uint64
	fill := func() (insertNS float64, err error) {
		t := timeLoop(perPN, func(int) {
			tx := mgr.Begin()
			rid++
			ref := index.Ref{RID: storage.RecordID{Page: storage.NewPageID(0xFFFFFF, rid)}}
			if e := tree.InsertRegularVal(tx, in.keys[next%n], ref, in.val); e != nil {
				err = e
			}
			mgr.Commit(tx)
			next++
		})
		return t.nsPerOp, err
	}
	// lookup reads keys among the last `recent` inserted.
	lookup := func(count, recent int) (float64, error) {
		tx := mgr.Begin()
		defer mgr.Commit(tx)
		found := 0
		var err error
		t := timeLoop(count, func(i int) {
			e := tree.Lookup(tx, in.keys[(next-1-i%recent)%n], func(index.Entry) bool { found++; return false })
			if e != nil {
				err = e
			}
		})
		if err == nil && found != count {
			err = fmt.Errorf("sut: tree probe: %d of %d lookups found their key", found, count)
		}
		return t.nsPerOp, err
	}

	const cycles, partsPerMerge = 3, 10
	var insertNS, lookupPN, lookupPart []float64
	var evict, merge []probeCost
	for c := 0; c < cycles; c++ {
		for p := 0; p < partsPerMerge; p++ {
			ns, err := fill()
			if err != nil {
				return fmt.Errorf("sut: tree probe insert: %w", err)
			}
			insertNS = append(insertNS, ns)
			if p == 0 {
				ns, err := lookup(iters(20000, in.scale), perPN)
				if err != nil {
					return err
				}
				lookupPN = append(lookupPN, ns)
			}
			cost, err := costOf(clk, dev, tree.EvictPN)
			if err != nil {
				return fmt.Errorf("sut: tree probe evict: %w", err)
			}
			evict = append(evict, cost)
		}
		ns, err := lookup(iters(5000, in.scale), partsPerMerge*perPN)
		if err != nil {
			return err
		}
		lookupPart = append(lookupPart, ns)
		cost, err := costOf(clk, dev, tree.MergePartitions)
		if err != nil {
			return fmt.Errorf("sut: tree probe merge: %w", err)
		}
		merge = append(merge, cost)
	}
	out.put("mvpbt.insert_ns", median(insertNS))
	out.put("mvpbt.lookup_pn_ns", median(lookupPN))
	out.put("mvpbt.lookup_part_us", median(lookupPart)/1e3)
	ev := medianCost(evict)
	out.put("mvpbt.evict_ms", ev.wallMS)
	out.put("mvpbt.evict_virtual_ms", ev.virtualMS)
	out.put("mvpbt.evict_allocs", ev.allocs)
	out.put("mvpbt.evict_alloc_kb", ev.allocKB)
	out.put("mvpbt.evict_dev_writes", ev.devWrites)
	out.put("mvpbt.evict_seq_write_share", ev.seqWriteShare)
	mg := medianCost(merge)
	out.put("mvpbt.merge_ms", mg.wallMS)
	out.put("mvpbt.merge_virtual_ms", mg.virtualMS)
	out.put("mvpbt.merge_alloc_kb", mg.allocKB)
	out.put("mvpbt.merge_dev_reads", mg.devReads)
	out.put("mvpbt.merge_dev_writes", mg.devWrites)
	return nil
}

// costOf runs fn once and returns its wall, virtual, allocation and device
// cost from the probe's private clock and device.
func costOf(clk *simclock.Clock, dev *ssd.Device, fn func() error) (probeCost, error) {
	d0, v0 := dev.Stats(), clk.Now()
	a := startAllocs()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	alloc := a.stop()
	d := dev.Stats().Sub(d0)
	c := probeCost{
		wallMS:    float64(wall) / 1e6,
		virtualMS: float64(clk.Now()-v0) / 1e6,
		allocs:    alloc.mallocs,
		allocKB:   alloc.bytes / 1024,
		devReads:  float64(d.Reads),
		devWrites: float64(d.Writes),
	}
	if d.Writes > 0 {
		// The first write of a run lands wherever the allocator put it;
		// every later one must continue it.
		c.seqWriteShare = float64(d.SeqWrites+1) / float64(d.Writes)
		if c.seqWriteShare > 1 {
			c.seqWriteShare = 1
		}
	}
	return c, err
}

// probeSegment times part.Build of one P_N worth of sorted records and
// Segment.Seek into the result.
func probeSegment(in probeInput, out *metricSet) error {
	_, _, fm := probeDevice()
	pool := buffer.New(kvBufferPages)
	file := fm.Create("seg", sfile.ClassIndex)
	perPN := kvPBufBytes / (len(in.keys[0]) + len(in.val) + 64)
	sorted := append([][]byte(nil), in.keys[:min(len(in.keys), perPN)]...)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	kvs := make([]part.KV, len(sorted))
	for i, k := range sorted {
		kvs[i] = part.KV{Key: k, Body: in.val}
	}
	var seg *part.Segment
	var buildMS []float64
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		s, err := part.Build(pool, file, i, kvs, 1, 1, part.BuildOptions{BloomBitsPerKey: kvBloomBits})
		if err != nil {
			return fmt.Errorf("sut: part.Build probe: %w", err)
		}
		buildMS = append(buildMS, float64(time.Since(t0))/1e6)
		seg = s
	}
	out.put("part.build_ms", median(buildMS))
	found, seeks := 0, iters(20000, in.scale)
	t := timeLoop(seeks, func(i int) {
		if it := seg.Seek(sorted[i%len(sorted)]); it.Valid() {
			found++
		}
	})
	if found != seeks {
		return fmt.Errorf("sut: Segment.Seek probe: %d of %d seeks valid", found, seeks)
	}
	out.put("part.seek_us", t.nsPerOp/1e3)
	return nil
}

// probeStorage times buffer.Pool.Get (hit and miss), sfile page writes and
// the device simulator's own CPU cost per 8 KiB I/O.
func probeStorage(scale float64, out *metricSet) error {
	_, dev, fm := probeDevice()
	buf := make([]byte, pageSize)
	var err error
	t := timeLoop(iters(20000, scale), func(i int) {
		if e := dev.WriteAt(buf, int64(i%4096)*pageSize); e != nil {
			err = e
		}
	})
	out.put("ssd.write8k_ns", t.nsPerOp)
	t = timeLoop(iters(20000, scale), func(i int) {
		if e := dev.ReadAt(buf, int64(i*7%4096)*pageSize); e != nil {
			err = e
		}
	})
	out.put("ssd.read8k_ns", t.nsPerOp)
	if err != nil {
		return fmt.Errorf("sut: ssd probe: %w", err)
	}

	const filePages = 4 * kvBufferPages // four times the pool
	file := fm.Create("pages", sfile.ClassIndex)
	if _, err := file.AllocRun(filePages); err != nil {
		return fmt.Errorf("sut: sfile probe: %w", err)
	}
	t = timeLoop(filePages, func(i int) {
		if e := file.WritePage(uint64(i), buf); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("sut: sfile probe: %w", err)
	}
	out.put("sfile.write_page_ns", t.nsPerOp)

	pool := buffer.New(kvBufferPages)
	get := func(p uint64) {
		fr, e := pool.Get(file, p)
		if e != nil {
			err = e
			return
		}
		pool.Unpin(fr, false)
	}
	for p := uint64(0); p < 64; p++ {
		get(p)
	}
	t = timeLoop(iters(200000, scale), func(i int) { get(uint64(i % 64)) })
	out.put("buffer.get_hit_ns", t.nsPerOp)
	// A cyclic sweep over four times the pool never finds its page cached.
	t = timeLoop(iters(2*filePages, scale), func(i int) { get(uint64(64 + i%(filePages-64))) })
	out.put("buffer.get_miss_us", t.nsPerOp/1e3)
	if err != nil {
		return fmt.Errorf("sut: buffer probe: %w", err)
	}
	return nil
}

// leafProbesHeap times the SIAS heap's insert and visibility walk.
func leafProbesHeap(scale float64, out *metricSet) error {
	_, _, fm := probeDevice()
	pool := buffer.New(htapBufferPages)
	mgr := txn.NewManager()
	h := heap.NewSiasHeap(pool, fm.Create("t.heap", sfile.ClassTable), mgr)
	row := make([]byte, 96) // a TPC-C customer row is about this size
	rows := iters(20000, scale)
	rids := make([]storage.RecordID, rows)
	var err error
	tx := mgr.Begin()
	t := timeLoop(rows, func(i int) {
		rid, e := h.Insert(tx, uint64(i+1), row)
		if e != nil {
			err = e
		}
		rids[i] = rid
	})
	mgr.Commit(tx)
	if err != nil {
		return fmt.Errorf("sut: heap insert probe: %w", err)
	}
	out.put("heap.sias_insert_ns", t.nsPerOp)
	tx = mgr.Begin()
	defer mgr.Commit(tx)
	seen, reads := 0, iters(100000, scale)
	t = timeLoop(reads, func(i int) {
		v, e := h.ReadVisible(tx, rids[i*31%rows])
		if e != nil {
			err = e
		}
		if v != nil {
			seen++
		}
	})
	if err != nil || seen != reads {
		return fmt.Errorf("sut: heap read probe: %d of %d visible, err %v", seen, reads, err)
	}
	out.put("heap.sias_read_visible_ns", t.nsPerOp)
	return nil
}
