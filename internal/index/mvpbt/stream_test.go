package mvpbt

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"mvpbt/internal/index"
	"mvpbt/internal/index/part"
	"mvpbt/internal/sfile"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
	"mvpbt/internal/util"
)

// partImage is everything a persisted partition is: its device pages and
// its metadata, filter bits included.
func partImage(t *testing.T, tr *Tree, seg *part.Segment) (pages []byte, meta []any) {
	t.Helper()
	buf := make([]byte, storage.PageSize)
	for i := 0; i < seg.NumLeaves; i++ {
		if err := tr.file.ReadPage(seg.StartPage+uint64(i), buf); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, buf...)
	}
	return pages, []any{seg.No, seg.StartPage, seg.NumLeaves, seg.MinKey(), seg.MaxKey(),
		seg.MinTS, seg.MaxTS, seg.NumRecords, seg.SizeBytes, seg.Filter, seg.PFilter}
}

// sameParts fails the test unless both trees hold as many partitions, the
// newest n of them (all, if n is 0) byte-identical with equal merge-trigger
// counts, and have collected the same amount of garbage.
func sameParts(t *testing.T, when string, got, want *Tree, n int) {
	t.Helper()
	pg, pw := got.Partitions(), want.Partitions()
	if len(pg) != len(pw) {
		t.Fatalf("%s: %d partitions, reference %d", when, len(pg), len(pw))
	}
	if n == 0 {
		n = len(pg)
	}
	for i := len(pg) - n; i < len(pg); i++ {
		gotPages, gotMeta := partImage(t, got, pg[i])
		wantPages, wantMeta := partImage(t, want, pw[i])
		gotMeta, wantMeta = append(gotMeta, got.view.Load().gc[i]), append(wantMeta, want.view.Load().gc[i])
		if !bytes.Equal(gotPages, wantPages) || !reflect.DeepEqual(gotMeta, wantMeta) {
			t.Fatalf("%s: partition P%d (%d records, %d pages) differs from the reference's (%d records, %d pages)",
				when, pg[i].No, pg[i].NumRecords, pg[i].NumLeaves, pw[i].NumRecords, pw[i].NumLeaves)
		}
	}
	if g, w := got.Stats().GCEvict, want.Stats().GCEvict; g != w {
		t.Fatalf("%s: %d records collected, reference %d", when, g, w)
	}
}

// mergeSuffix is mergeBG(from) with bgMu taken, as EvictPN runs it.
func (t *Tree) mergeSuffix(from int) error {
	t.bgMu.Lock()
	defer t.bgMu.Unlock()
	return t.mergeBG(from)
}

// TestStreamingMatchesReference drives twin trees through one seeded random
// history — updates, key updates, tombstones, re-inserts into recycled
// RecordIDs, several operations on a key in one transaction, aborted
// transactions, scans that flag garbage, a long reader pinning the horizon
// on and off — evicting and merging one through the streaming path and the
// other through the materialising reference; merges take every partition or
// a random suffix of them, and each eviction runs the merge the garbage
// trigger finds due. Every partition either writes must equal the other's
// byte for byte, with the same collectable estimate.
func TestStreamingMatchesReference(t *testing.T) {
	for _, opts := range []Options{
		{Name: "non-unique", BloomBits: 10, PrefixLen: 4},
		{Name: "unique", Unique: true, BloomBits: 10},
		{Name: "non-unique-no-gc", DisableGC: true},
		{Name: "unique-no-gc", Unique: true, DisableGC: true, BloomBits: 10},
	} {
		for seed := uint64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed-%d", opts.Name, seed), func(t *testing.T) {
				envs := [2]*env{newEnv(512, 1<<30), newEnv(512, 1<<30)}
				trees := [2]*Tree{envs[0].tree(opts), envs[1].tree(opts)}
				got, want := trees[0], trees[1]
				type tuple struct {
					key []byte
					rid storage.RecordID
				}
				r := util.NewRand(seed)
				live := map[int]*tuple{}
				var recycled []storage.RecordID
				var readers [2]*txn.Tx
				merges, partial := 0, 0
				for step := 0; step < 4000; step++ {
					id := r.Intn(150)
					abort := r.Intn(10) == 0
					ops := 1 + r.Intn(8)/7 // now and then two on the same tuple
					var txs [2]*txn.Tx
					for i, e := range envs {
						txs[i] = e.mgr.Begin()
					}
					tp, isLive := live[id]
					for ; ops > 0; ops-- {
						val := make([]byte, []int{0, 0, 30, 1024}[r.Intn(4)])
						r.Letters(val)
						rid := envs[0].nextRID()
						if n := len(recycled); n > 0 && r.Intn(2) == 0 {
							rid, recycled = recycled[n-1], recycled[:n-1]
						}
						key := []byte(fmt.Sprintf("key-%03d", id))
						if !opts.Unique {
							key = []byte(fmt.Sprintf("key-%03d", r.Intn(60)))
						}
						var freed storage.RecordID
						next := &tuple{key: key, rid: rid}
						var apply func(tr *Tree, tx *txn.Tx) error
						switch ref := (index.Ref{RID: rid}); {
						case !isLive:
							apply = func(tr *Tree, tx *txn.Tx) error { return tr.InsertRegularVal(tx, key, ref, val) }
						case r.Intn(10) == 0:
							old := tp
							apply = func(tr *Tree, tx *txn.Tx) error { return tr.InsertTombstone(tx, old.key, old.rid) }
							freed, next = tp.rid, nil
						case !opts.Unique && r.Intn(5) == 0:
							old := tp
							apply = func(tr *Tree, tx *txn.Tx) error { return tr.InsertKeyUpdate(tx, old.key, key, ref, old.rid) }
							freed = tp.rid
						default:
							old := tp
							next.key = tp.key
							apply = func(tr *Tree, tx *txn.Tx) error {
								return tr.pnPut(old.key, Record{Type: Replacement, TS: tx.ID, Ref: ref, OldRID: old.rid, Val: val})
							}
							freed = tp.rid
						}
						for i, tr := range trees {
							if err := apply(tr, txs[i]); err != nil {
								t.Fatal(err)
							}
						}
						if freed.Valid() && !abort {
							recycled = append(recycled, freed)
						}
						tp, isLive = next, next != nil
					}
					for i, e := range envs {
						if abort {
							e.mgr.Abort(txs[i])
						} else {
							e.mgr.Commit(txs[i])
						}
					}
					if !abort {
						if isLive {
							live[id] = tp
						} else {
							delete(live, id)
						}
					}
					switch {
					case step%500 == 250: // a long reader arrives...
						for i, e := range envs {
							readers[i] = e.mgr.Begin()
						}
					case step%500 == 0 && readers[0] != nil: // ...and leaves
						for i, e := range envs {
							e.mgr.Commit(readers[i])
							readers[i] = nil
						}
					case r.Intn(40) == 0: // a scan flags superseded records in PN
						for i, e := range envs {
							tx := e.mgr.Begin()
							if err := trees[i].Scan(tx, nil, nil, func(index.Entry) bool { return true }); err != nil {
								t.Fatal(err)
							}
							e.mgr.Commit(tx)
						}
					}
					if r.Intn(120) == 0 {
						if err := errors.Join(got.EvictPN(), want.refEvictPN()); err != nil {
							t.Fatal(err)
						}
						sameParts(t, fmt.Sprintf("eviction at step %d", step), got, want, 1)
					}
					if r.Intn(700) == 0 && got.NumPartitions() > 1 {
						// Of every partition, or of a suffix of two or more.
						from := r.Intn(got.NumPartitions() - 1)
						if err := errors.Join(got.mergeSuffix(from), want.refMerge(from)); err != nil {
							t.Fatal(err)
						}
						sameParts(t, fmt.Sprintf("merge from P[%d] at step %d", from, step), got, want, 0)
						merges++
						if from > 0 {
							partial++
						}
					}
				}
				if err := errors.Join(got.EvictPN(), want.refEvictPN(), got.MergePartitions(), want.refMerge(0)); err != nil {
					t.Fatal(err)
				}
				sameParts(t, "final merge", got, want, 0)
				if partial == 0 || merges == partial || got.NumPartitions() != 1 || got.Partitions()[0].NumLeaves < 3 {
					t.Fatalf("%d merges (%d partial), %d partitions at the end: the history exercised too little", merges, partial, got.NumPartitions())
				}
				// Beyond the merges above and the final one, the garbage
				// trigger ran some: a non-unique history's deletes and key
				// updates make whole partitions collectable.
				if !opts.Unique && !opts.DisableGC && got.Stats().Merges <= int64(merges)+1 {
					t.Fatalf("%d merges, %d of them called: the garbage trigger never ran", got.Stats().Merges, merges)
				}
				if opts.DisableGC != (got.Stats().GCEvict == 0) {
					t.Fatalf("GCEvict = %d with DisableGC = %v", got.Stats().GCEvict, opts.DisableGC)
				}
				if envs[0].fm.LiveBytes() != envs[1].fm.LiveBytes() {
					t.Fatalf("live bytes %d, reference %d", envs[0].fm.LiveBytes(), envs[1].fm.LiveBytes())
				}
			})
		}
	}
}

// hotKeyTree builds a tree whose persisted partitions each hold, between two
// small neighbours, versions of ONE key whose 1 KiB values make them
// straddle leaf boundaries in every partition. A reader opened first pins
// the horizon, so merges keep every version.
func hotKeyTree(t *testing.T, e *env, parts, versions int) (tr *Tree, pin *txn.Tx, newest storage.RecordID) {
	t.Helper()
	tr = e.tree(Options{BloomBits: 10})
	pin = e.mgr.Begin()
	val := bytes.Repeat([]byte("v"), 1024)
	var prev storage.RecordID
	for p := 0; p < parts; p++ {
		e.commit(func(tx *txn.Tx) {
			tr.InsertRegular(tx, []byte(fmt.Sprintf("a-%d", p)), e.ref())
			tr.InsertRegular(tx, []byte(fmt.Sprintf("z-%d", p)), e.ref())
		})
		for v := 0; v < versions; v++ {
			e.commit(func(tx *txn.Tx) {
				ref := e.ref()
				var err error
				if prev.Valid() {
					err = tr.pnPut([]byte("hot"), Record{Type: Replacement, TS: tx.ID, Ref: ref, OldRID: prev, Val: val})
				} else {
					err = tr.InsertRegularVal(tx, []byte("hot"), ref, val)
				}
				if err != nil {
					t.Fatal(err)
				}
				prev = ref.RID
			})
		}
		if err := tr.EvictPN(); err != nil {
			t.Fatal(err)
		}
		if seg := tr.Partitions()[p]; seg.NumLeaves < 3 {
			t.Fatalf("P%d has %d leaves: the hot key does not straddle", seg.No, seg.NumLeaves)
		}
	}
	return tr, pin, prev
}

// TestMergeBufferReuse: a record a merge source yields is only valid until
// that source advances, and a key's versions are collected across such
// advances — here one key's versions straddle leaf boundaries in three
// sources. If the key group aliased a reader's recycled buffer the merged
// partition would silently differ from the reference's. Lookups and scans
// run on the same segments throughout (for -race: the streaming reader
// shares nothing with them).
func TestMergeBufferReuse(t *testing.T) {
	e, eRef := newEnv(64, 1<<30), newEnv(64, 1<<30)
	tr, pin, newest := hotKeyTree(t, e, 3, 20)
	ref, pinRef, _ := hotKeyTree(t, eRef, 3, 20)
	defer e.mgr.Commit(pin)
	defer eRef.mgr.Commit(pinRef)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := e.mgr.Begin()
				var rids []storage.RecordID
				collect := func(en index.Entry) bool { rids = append(rids, en.Ref.RID); return true }
				var err error
				if (g+i)%2 == 0 {
					err = tr.Lookup(tx, []byte("hot"), collect)
				} else {
					err = tr.Scan(tx, []byte("h"), []byte("i"), collect)
				}
				e.mgr.Commit(tx)
				if err != nil || len(rids) != 1 || rids[0] != newest {
					t.Errorf("reader %d during the merge: %v, err %v; want the newest version %v", g, rids, err, newest)
					return
				}
			}
		}(g)
	}
	err := tr.MergePartitions()
	close(stop)
	wg.Wait()
	if err := errors.Join(err, ref.refMerge(0)); err != nil {
		t.Fatal(err)
	}
	sameParts(t, "merge of three partitions sharing a hot key", tr, ref, 0)
	if seg := tr.Partitions()[0]; seg.NumRecords != 3*(20+2) {
		t.Fatalf("merged partition holds %d records, want every version: %d", seg.NumRecords, 3*(20+2))
	}
	if rids := lookupRIDs(t, tr, pin, []byte("hot")); len(rids) != 0 {
		t.Fatalf("the pinned reader sees %v of a key born after it", rids)
	}
}

// TestFailedBuildPublishesNothing: an eviction or a merge whose write-out
// fails for good, or whose input has rotted, returns the error with nothing
// published, nothing leaked and its inputs still in place; once the device
// behaves — or misbehaves only transiently, which the pool's counters show —
// the same call goes through.
func TestFailedBuildPublishesNothing(t *testing.T) {
	e := newEnv(64, 1<<30)
	tr, pin, newest := hotKeyTree(t, e, 2, 40)
	e.mgr.Commit(pin)
	e.commit(func(tx *txn.Tx) {
		for i := 0; i < 300; i++ {
			tr.InsertRegularVal(tx, []byte(fmt.Sprintf("m-%04d", i)), e.ref(), bytes.Repeat([]byte("w"), 1024))
		}
	})
	check := func(what string, op func() error, want error, parts int) {
		t.Helper()
		live := e.fm.LiveBytes()
		if err := op(); !errors.Is(err, want) {
			t.Fatalf("%s: %v, want %v", what, err, want)
		}
		if tr.NumPartitions() != parts || (want != nil && e.fm.LiveBytes() != live) {
			t.Fatalf("%s: %d partitions (want %d), live %d -> %d", what, tr.NumPartitions(), parts, live, e.fm.LiveBytes())
		}
		e.dev.DisarmAllFaults()
		r := e.mgr.Begin()
		defer e.mgr.Commit(r)
		if rids := lookupRIDs(t, tr, r, []byte("hot")); len(rids) != 1 || rids[0] != newest {
			t.Fatalf("%s: lookup afterwards: %v", what, rids)
		}
		if rids := lookupRIDs(t, tr, r, []byte("m-0150")); len(rids) != 1 {
			t.Fatalf("%s: lookup of an unevicted key afterwards: %v", what, rids)
		}
	}
	index := func(kind ssd.FaultKind, ops ...uint64) {
		e.dev.ArmFault(ssd.FaultRule{Kind: kind, Class: int(sfile.ClassIndex), Ops: ops, ByteOffset: 3*storage.PageSize + 77})
	}

	// A failed eviction leaves P_N as it was, records, bytes and the
	// buffer's total alike; the retry persists it whole.
	pnRecs, pnBytes := tr.view.Load().pn.Len(), tr.PNBytes()
	index(ssd.FaultWriteErr, 40, 41, 42) // the 40th page of 300 KiB: in the second extent
	check("eviction with a failing write", tr.EvictPN, storage.ErrIOFault, 2)
	if n, b := tr.view.Load().pn.Len(), tr.PNBytes(); n != pnRecs || b != pnBytes || e.pbuf.Used() != b {
		t.Fatalf("after the failed eviction: P_N holds %d records in %d bytes, before %d in %d; the buffer's total is %d",
			n, b, pnRecs, pnBytes, e.pbuf.Used())
	}
	// The retry meets one transient write fault: retried in line, and counted.
	retries, evictions := e.pool.IOStats().WriteRetries, tr.Stats().Evictions
	index(ssd.FaultWriteErr, 5)
	check("eviction retried", tr.EvictPN, nil, 3)
	if io := e.pool.IOStats(); tr.Partitions()[2].NumRecords != pnRecs || tr.PNBytes() != 0 || e.pbuf.Used() != 0 ||
		tr.Stats().Evictions != evictions+1 || io.WriteRetries != retries+1 {
		t.Fatalf("after the retry: the new partition holds %d of P_N's %d records, P_N %d bytes, the buffer's total %d, evictions %d -> %d, the pool's WriteRetries %d -> %d",
			tr.Partitions()[2].NumRecords, pnRecs, tr.PNBytes(), e.pbuf.Used(), evictions, tr.Stats().Evictions, retries, io.WriteRetries)
	}

	index(ssd.FaultWriteErr, 35, 36, 37) // in the merged run's second extent
	check("merge with a failing write", tr.MergePartitions, storage.ErrIOFault, 3)
	index(ssd.FaultReadErr, 2, 3, 4)
	check("merge with a failing read", tr.MergePartitions, storage.ErrIOFault, 3)
	index(ssd.FaultReadErr, 2)
	gc := tr.Stats().GCEvict
	check("merge with a transient read fault", tr.MergePartitions, nil, 1)
	if tr.Stats().Merges != 1 || tr.Stats().GCEvict == gc {
		t.Fatalf("after the merge: %+v", tr.Stats())
	}

	// Rot in a merge input. The media stays rotted, so only the survivors of
	// the failed merge are checked: the partition list and the space.
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("b"), e.ref()) })
	if err := tr.EvictPN(); err != nil {
		t.Fatal(err)
	}
	live := e.fm.LiveBytes()
	index(ssd.FaultBitFlip, 1)
	if err := tr.MergePartitions(); !errors.Is(err, storage.ErrCorruptPage) {
		t.Fatalf("merge of a rotted input: %v", err)
	}
	if tr.NumPartitions() != 2 || e.fm.LiveBytes() != live || tr.Stats().Merges != 1 {
		t.Fatalf("rotted merge: %d partitions, live %d -> %d, %d merges", tr.NumPartitions(), live, e.fm.LiveBytes(), tr.Stats().Merges)
	}
}

// warmDevice leaves the simulator holding n released blocks, so that what a
// measured operation allocates afterwards is the engine's and not the
// simulator's first touch of fresh device space. It keeps as many blocks
// stored: the simulator holds on to no more released blocks than that.
func warmDevice(t testing.TB, e *env, n int) {
	t.Helper()
	n = (n + sfile.ExtentPages - 1) / sfile.ExtentPages * sfile.ExtentPages
	f := e.fm.Create("warm", sfile.ClassTable)
	start, err := f.AllocRun(2 * n)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, storage.PageSize)
	for i := 0; i < 2*n; i++ {
		if err := f.WritePage(start+uint64(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	f.FreeRun(start, n)
}

// allocated runs fn and returns the heap bytes it allocated.
func allocated(t testing.TB, fn func() error) int64 {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	return int64(m1.TotalAlloc - m0.TotalAlloc)
}

// fillPN commits n fresh 1 KiB key-value pairs, the shape of the KV
// workloads' P_N. Some keys repeat across rounds, so partitions overlap and
// a merge has a little to collect.
func fillPN(t testing.TB, e *env, tr *Tree, round, n int) {
	t.Helper()
	val := bytes.Repeat([]byte{byte('a' + round%26)}, 1024)
	tx := e.mgr.Begin()
	for i := 0; i < n; i++ {
		if err := tr.InsertRegularVal(tx, []byte(fmt.Sprintf("user%012d", (i*7919+round*104729)%(32*n))), e.ref(), val); err != nil {
			t.Fatal(err)
		}
	}
	e.mgr.Commit(tx)
}

// TestBoundedMemoryGate pins what an eviction and a merge hold in memory:
// one page, the separators and filter hashes, one key's records, and for a
// merge one extent-sized read buffer per input — not the partition. Device
// blocks aside (the simulator is warmed first), an eviction of a full
// 256 KiB P_N stays under 64 KiB and a 10-way merge under its ten read
// buffers plus 1 MiB whether it merges 2.5 MiB or 10 MiB; the materialising
// build this replaced allocated about 4 bytes per input byte evicting and
// 11 merging (0.9 MiB, 28 MiB and 110 MiB here). The second 10-way merge
// borrows the read buffers the first gave back, so it stays under 1 MiB.
func TestBoundedMemoryGate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurements under -short")
	}
	const perPN = 230 // 1 KiB pairs in a 256 KiB partition buffer
	const k = 10
	for _, pnsPerPart := range []int{1, 4} { // 2.5 MiB and 10 MiB of merge input
		e := newEnv(256, 1<<30)
		tr := e.tree(Options{Unique: true, BloomBits: 10})
		warmDevice(t, e, 5*k*pnsPerPart*40)
		for merge, round := 0, 0; merge < 2; merge++ {
			for ; tr.NumPartitions() < k; round++ {
				fillPN(t, e, tr, round, pnsPerPart*perPN)
				got := allocated(t, tr.EvictPN)
				if round == k-1 {
					t.Logf("evicting a %d KiB P_N allocated %d KiB", pnsPerPart*256, got>>10)
				}
				if pnsPerPart == 1 && got > 64<<10 {
					t.Errorf("evicting a full 256 KiB P_N allocated %d KiB, want <= 64", got>>10)
				}
			}
			input := 0
			for _, seg := range tr.Partitions() {
				input += seg.NumLeaves * storage.PageSize
			}
			got := allocated(t, tr.MergePartitions)
			t.Logf("merge %d: %d partitions, %d KiB, allocated %d KiB", merge+1, k, input>>10, got>>10)
			limit := int64(k*sfile.ExtentBytes + 1<<20)
			if merge > 0 {
				limit = 1 << 20
			}
			if got > limit || tr.NumPartitions() != 1 {
				t.Errorf("merge %d: %d partitions, %d KiB, allocated %d KiB, want <= %d (%d partitions afterwards)",
					merge+1, k, input>>10, got>>10, limit>>10, tr.NumPartitions())
			}
		}
	}
}

// maintCost sums the device cost of the timed operations of a benchmark, as
// BenchmarkWriterFlush reports its own: counts, so they repeat.
type maintCost struct {
	writes, reads int64
	virtual       time.Duration
}

func (c *maintCost) add(st ssd.Stats) {
	c.writes, c.reads, c.virtual = c.writes+st.Writes, c.reads+st.Reads, c.virtual+st.IOTime()
}

func (c *maintCost) report(b *testing.B) {
	b.ReportMetric(float64(c.writes)/float64(b.N), "dev-writes/op")
	b.ReportMetric(float64(c.reads)/float64(b.N), "dev-reads/op")
	b.ReportMetric(float64(c.virtual)/float64(b.N)/1e6, "virtual-ms/op")
}

// BenchmarkEvictPN evicts a full 256 KiB P_N of 1 KiB pairs. B/op includes
// 8 KiB per device block the simulator creates, until merged-away
// partitions start feeding it recycled ones.
func BenchmarkEvictPN(b *testing.B) {
	e := newEnv(256, 1<<30)
	tr := e.tree(Options{Unique: true, BloomBits: 10})
	var c maintCost
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fillPN(b, e, tr, i, 230)
		if i%10 == 9 { // keep the partition list, and the device, bounded
			if err := tr.MergePartitions(); err != nil {
				b.Fatal(err)
			}
		}
		st := e.dev.Stats()
		b.StartTimer()
		if err := tr.EvictPN(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.add(e.dev.Stats().Sub(st))
		b.StartTimer()
	}
	c.report(b)
}

// BenchmarkMergePartitions merges ten 256 KiB partitions of 1 KiB pairs with
// overlapping keys into one.
func BenchmarkMergePartitions(b *testing.B) {
	e := newEnv(256, 1<<30)
	var c maintCost
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := e.tree(Options{Name: fmt.Sprintf("m%d", i), Unique: true, BloomBits: 10})
		for p := 0; p < 10; p++ {
			fillPN(b, e, tr, p, 230)
			if err := tr.EvictPN(); err != nil {
				b.Fatal(err)
			}
		}
		st := e.dev.Stats()
		b.StartTimer()
		if err := tr.MergePartitions(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.add(e.dev.Stats().Sub(st))
		for _, seg := range tr.Partitions() {
			seg.Free()
		}
		b.StartTimer()
	}
	c.report(b)
}
