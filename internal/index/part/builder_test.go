package part

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mvpbt/internal/buffer"
	"mvpbt/internal/page"
	"mvpbt/internal/sfile"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/util"
)

// randomKVs returns n sorted records with bodyLen-byte bodies. Every key is
// repeated 1..maxDup times (duplicates are adjacent and, with enough of
// them, span leaf boundaries).
func randomKVs(seed uint64, n, bodyLen, maxDup int) []KV {
	r := util.NewRand(seed)
	kvs := make([]KV, 0, n)
	for k := 0; len(kvs) < n; k++ {
		key := []byte(fmt.Sprintf("user%010d", k*7))
		for d := 1 + r.Intn(maxDup); d > 0 && len(kvs) < n; d-- {
			body := make([]byte, bodyLen)
			r.Letters(body)
			kvs = append(kvs, KV{Key: key, Body: body})
		}
	}
	return kvs
}

// image is everything a build leaves behind: the run's device pages and the
// segment's metadata, filter bits included, without the pool and file it
// reads through.
func image(t *testing.T, e *env, seg *Segment) (pages []byte, meta Segment) {
	t.Helper()
	buf := make([]byte, storage.PageSize)
	for i := 0; i < seg.NumLeaves; i++ {
		if err := e.file.ReadPage(seg.StartPage+uint64(i), buf); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, buf...)
	}
	meta = *seg
	meta.pool, meta.file = nil, nil
	return pages, meta
}

// TestBuilderMatchesReference: the streaming builder's device pages,
// metadata, fences and filter bits equal the materialising reference
// build's, on twin devices.
func TestBuilderMatchesReference(t *testing.T) {
	oneLeaf := randomKVs(5, 1000, 40, 1)
	for n := 1; n <= len(oneLeaf); n++ { // the longest prefix that fills one leaf and no more
		e := newEnv(16)
		if seg, err := referenceBuild(e.pool, e.file, 1, oneLeaf[:n], 0, 0, BuildOptions{}); err != nil {
			t.Fatal(err)
		} else if seg.NumLeaves > 1 {
			oneLeaf = oneLeaf[:n-1]
		}
	}
	short := []KV{{Key: []byte("a"), Body: []byte("1")}, {Key: []byte("ab"), Body: []byte("2")}, {Key: []byte("abcdef"), Body: []byte("3")}}
	for _, c := range []struct {
		name string
		kvs  []KV
		opts BuildOptions
	}{
		{"1KiB-values/multi-level", randomKVs(1, 3000, 1024, 1), BuildOptions{BloomBitsPerKey: 10}},
		{"1KiB-values/versions", randomKVs(2, 1500, 1024, 20), BuildOptions{BloomBitsPerKey: 10, PrefixLen: 8}},
		{"index-records/duplicates-span-leaves", randomKVs(3, 20000, 40, 600), BuildOptions{BloomBitsPerKey: 10, PrefixLen: 12}},
		{"index-records/no-filters", randomKVs(4, 20000, 40, 3), BuildOptions{}},
		{"index-records/7-bit-filter", randomKVs(4, 20000, 40, 3), BuildOptions{BloomBitsPerKey: 7}},
		{"one-record", randomKVs(6, 1, 1024, 1), BuildOptions{BloomBitsPerKey: 10, PrefixLen: 4}},
		{"exactly-one-leaf", oneLeaf, BuildOptions{BloomBitsPerKey: 10}},
		{"keys-shorter-than-prefix", short, BuildOptions{BloomBitsPerKey: 10, PrefixLen: 4}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ref, got := newEnv(16), newEnv(16)
			want, err := referenceBuild(ref.pool, ref.file, 7, c.kvs, 3, 9, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			b := NewBuilder(got.pool, got.file, 7, c.opts)
			var key, body []byte // recycled between Adds, as a merge's buffers are
			for _, kv := range c.kvs {
				key, body = append(key[:0], kv.Key...), append(body[:0], kv.Body...)
				if err := b.Add(key, body); err != nil {
					t.Fatal(err)
				}
			}
			seg, err := b.Finish(3, 9)
			if err != nil {
				t.Fatal(err)
			}
			wantPages, wantMeta := image(t, ref, want)
			gotPages, gotMeta := image(t, got, seg)
			if !bytes.Equal(gotPages, wantPages) {
				t.Errorf("device pages differ (%d leaves, reference %d)", seg.NumLeaves, want.NumLeaves)
			}
			if !reflect.DeepEqual(gotMeta, wantMeta) {
				t.Errorf("metadata, fences or filter bits differ: %d leaves, %d fence bytes; reference %d, %d",
					seg.NumLeaves, seg.FenceBytes(), want.NumLeaves, want.FenceBytes())
			}
			// Same space, and the next run lands on the same page: the builder
			// leaves the file at the end of its last extent, where a run
			// starts anyway.
			a, _ := ref.file.AllocRun(1)
			n, _ := got.file.AllocRun(1)
			if ref.fm.LiveBytes() != got.fm.LiveBytes() || ref.fm.HighWaterBytes() != got.fm.HighWaterBytes() || a != n {
				t.Errorf("space differs: live %d high water %d next run at %d, reference %d %d %d",
					got.fm.LiveBytes(), got.fm.HighWaterBytes(), n, ref.fm.LiveBytes(), ref.fm.HighWaterBytes(), a)
			}
			// As many leaves as once took internal levels over them.
			if c.name == "1KiB-values/multi-level" && seg.NumLeaves < 400 {
				t.Errorf("%d leaves, want more than an internal page indexed", seg.NumLeaves)
			}
		})
	}
}

// TestKVLeavesEncodeAsBefore: a leaf of 1 KiB values holds fewer records
// than the restart interval, so restart slots leave it as it was: the page
// checksums of such a segment's leaves, versions and filters included, are
// the ones recorded before leaves had restart slots, and the run ends after
// the leaves (the root recorded then, 0xb22b4eb, is gone with the internal
// levels). It is why the kv_* workloads' leaves do not move.
func TestKVLeavesEncodeAsBefore(t *testing.T) {
	want := []uint32{0xad8e3279, 0xe7d5321a, 0x99ec68e5, 0x8ecd5b71, 0x6b10337e, 0xb92be863, 0x3c1ad165, 0x2f254fc6, 0x2b66b1f5}
	e := newEnv(16)
	seg, err := Build(e.pool, e.file, 1, randomKVs(8, 60, 1024, 4), 0, 0, BuildOptions{BloomBitsPerKey: 10})
	if err != nil {
		t.Fatal(err)
	}
	pages, _ := image(t, e, seg)
	var got []uint32
	for p := 0; p < len(pages); p += storage.PageSize {
		got = append(got, page.Checksum(pages[p:p+storage.PageSize]))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("leaf checksums %#x, recorded %#x", got, want)
	}
}

// TestBuilderFailureReturnsExtents: whichever page write fails for good —
// the first, one in the middle, the last leaf — and whenever the device runs
// out of space half-way through the run, the build reports the error, gives
// back every extent it took, and the next build on the file succeeds.
func TestBuilderFailureReturnsExtents(t *testing.T) {
	kvs := randomKVs(1, 600, 1024, 1) // 86 leaves: three extents
	probe := newEnv(16)
	whole, err := Build(probe.pool, probe.file, 1, kvs, 0, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The last leaf is the run's last page: the build writes nothing else.
	if w := probe.dev.Stats().Writes; w != int64(whole.NumLeaves) || whole.NumLeaves < 2*sfile.ExtentPages {
		t.Fatalf("probe build: %d page writes, %d leaves", w, whole.NumLeaves)
	}
	for _, c := range []struct {
		name string
		arm  func(e *env)
		want error
	}{
		{"first-page", failWrite(1), storage.ErrIOFault},
		{"middle-page", failWrite(whole.NumLeaves / 2), storage.ErrIOFault},
		{"last-leaf", failWrite(whole.NumLeaves), storage.ErrIOFault},
		// The run packs behind the first build's leaves: it needs two
		// extents more than the file's open one, and gets one.
		{"no-space-mid-run", func(e *env) { e.fm.SetCapacity(e.fm.LiveBytes() + sfile.ExtentBytes) }, storage.ErrNoSpace},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv(16)
			if _, err := Build(e.pool, e.file, 1, kvs[:10], 0, 0, BuildOptions{}); err != nil { // the file is in use
				t.Fatal(err)
			}
			live := e.fm.LiveBytes()
			c.arm(e)
			seg, err := Build(e.pool, e.file, 2, kvs, 0, 0, BuildOptions{BloomBitsPerKey: 10})
			if seg != nil || !errors.Is(err, c.want) {
				t.Fatalf("Build = %v, %v; want %v", seg, err, c.want)
			}
			if e.fm.LiveBytes() != live {
				t.Fatalf("failed build holds space: live %d -> %d", live, e.fm.LiveBytes())
			}
			e.dev.DisarmAllFaults()
			e.fm.SetCapacity(0)
			seg, err = Build(e.pool, e.file, 2, kvs, 0, 0, BuildOptions{BloomBitsPerKey: 10})
			if err != nil {
				t.Fatalf("build after the failed one: %v", err)
			}
			n := 0
			for it := seg.Min(); it.Valid(); it.Next() {
				if !bytes.Equal(it.Record().Key, kvs[n].Key) || !bytes.Equal(it.Record().Body, kvs[n].Body) {
					t.Fatalf("record %d differs after the retry", n)
				}
				n++
			}
			if n != len(kvs) {
				t.Fatalf("retry holds %d of %d records", n, len(kvs))
			}
		})
	}
}

// failWrite arms a write fault on every attempt at the n-th page of the next
// build (earlier pages take one write each).
func failWrite(n int) func(*env) {
	return func(e *env) {
		ops := make([]uint64, storage.IOAttempts)
		for i := range ops {
			ops[i] = uint64(n + i)
		}
		e.dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultWriteErr, Class: ssd.AnyClass, Ops: ops})
	}
}

func TestBuilderAbort(t *testing.T) {
	e := newEnv(16)
	b := NewBuilder(e.pool, e.file, 1, BuildOptions{})
	for _, kv := range randomKVs(1, 400, 1024, 1) {
		if err := b.Add(kv.Key, kv.Body); err != nil {
			t.Fatal(err)
		}
	}
	if e.fm.LiveBytes() == 0 {
		t.Fatal("400 KiB added and nothing written yet")
	}
	b.Abort()
	b.Abort()
	if e.fm.LiveBytes() != 0 {
		t.Fatalf("abort left %d bytes live", e.fm.LiveBytes())
	}
}

// TestBuilderRefusesForeignAllocation: a page allocated in the file while a
// build is under way would leave its run with a hole. The build fails at its
// next leaf and frees every page it took — the ones before the foreign page
// and the one behind it — but not the foreign one, whose extent stays live.
func TestBuilderRefusesForeignAllocation(t *testing.T) {
	e := newEnv(16)
	b := NewBuilder(e.pool, e.file, 1, BuildOptions{})
	var err error
	var foreign uint64
	for i, kv := range randomKVs(1, 600, 1024, 1) {
		if i == 100 { // the first extent is taken, the second is not
			if e.fm.LiveBytes() != sfile.ExtentBytes {
				t.Fatalf("%d bytes live after 100 KiB", e.fm.LiveBytes())
			}
			if foreign, err = e.file.AllocRun(1); err != nil {
				t.Fatal(err)
			}
		}
		if err = b.Add(kv.Key, kv.Body); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("the build went on past a foreign allocation")
	}
	if e.fm.LiveBytes() != sfile.ExtentBytes {
		t.Fatalf("%d bytes live after the failed build, want the foreign extent only", e.fm.LiveBytes())
	}
	buf := make([]byte, storage.PageSize)
	if err := e.file.ReadPage(foreign, buf); err != nil {
		t.Fatalf("the foreign page was freed with the run: %v", err)
	}
	b.Abort()
	if e.fm.LiveBytes() != sfile.ExtentBytes {
		t.Fatal("Abort after the failure freed again")
	}
}

func TestBuilderRecordTooLarge(t *testing.T) {
	e := newEnv(16)
	b := NewBuilder(e.pool, e.file, 1, BuildOptions{})
	if err := b.Add([]byte("k"), make([]byte, storage.PageSize)); err == nil {
		t.Fatal("a page-sized record fit a leaf")
	}
	if e.fm.LiveBytes() != 0 {
		t.Fatal("the failed build holds space")
	}
}

// TestReaderMatchesIterator: the sequential reader yields what the pool-side
// iterator yields, across leaf and extent boundaries, without touching the
// pool.
func TestReaderMatchesIterator(t *testing.T) {
	e := newEnv(64)
	seg, err := Build(e.pool, e.file, 1, randomKVs(9, 40000, 40, 300), 0, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if seg.NumLeaves <= 2*sfile.ExtentPages {
		t.Fatalf("%d leaves: want more than two extents", seg.NumLeaves)
	}
	e.dev.ResetStats()
	requests := e.pool.Stats()[sfile.ClassIndex].Requests
	rd := seg.NewReader()
	var keys, bodies [][]byte
	for ; rd.Valid(); rd.Next() {
		keys, bodies = append(keys, bytes.Clone(rd.Key())), append(bodies, bytes.Clone(rd.Body()))
	}
	if rd.Err() != nil {
		t.Fatal(rd.Err())
	}
	wantReads := int64((seg.NumLeaves + sfile.ExtentPages - 1) / sfile.ExtentPages)
	if st := e.dev.Stats(); st.Reads != wantReads || st.BytesRead != int64(seg.NumLeaves)*storage.PageSize {
		t.Fatalf("%d device reads of %d bytes, want one per extent of leaves: %d of %d", st.Reads, st.BytesRead, wantReads, seg.NumLeaves*storage.PageSize)
	}
	if got := e.pool.Stats()[sfile.ClassIndex].Requests; got != requests {
		t.Fatalf("the reader made %d buffer-pool requests", got-requests)
	}
	n := 0
	for it := seg.Min(); it.Valid(); it.Next() {
		if n >= len(keys) || !bytes.Equal(it.Record().Key, keys[n]) || !bytes.Equal(it.Record().Body, bodies[n]) {
			t.Fatalf("record %d differs", n)
		}
		n++
	}
	if n != len(keys) || n != seg.NumRecords {
		t.Fatalf("reader yielded %d records, iterator %d, segment holds %d", len(keys), n, seg.NumRecords)
	}
}

// TestSegmentStartingMidExtent: a segment packed behind another starts
// inside the file's open extent and straddles its boundary. The reader reads
// each extent it touches once, and the reader, the iterator and a scan's
// read-ahead all yield every record in order.
func TestSegmentStartingMidExtent(t *testing.T) {
	e := newEnv(64)
	if _, err := Build(e.pool, e.file, 1, randomKVs(2, 10, 1024, 1), 0, 0, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	kvs := randomKVs(3, 300, 1024, 1)
	seg, err := Build(e.pool, e.file, 2, kvs, 0, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first, last := seg.StartPage/sfile.ExtentPages, (seg.StartPage+uint64(seg.NumLeaves)-1)/sfile.ExtentPages
	if seg.StartPage%sfile.ExtentPages == 0 || last != first+1 {
		t.Fatalf("segment at pages [%d,%d): want one starting mid-extent and crossing a boundary", seg.StartPage, seg.StartPage+uint64(seg.NumLeaves))
	}
	check := func(name string, n int, key, body []byte) {
		t.Helper()
		if n >= len(kvs) || !bytes.Equal(key, kvs[n].Key) || !bytes.Equal(body, kvs[n].Body) {
			t.Fatalf("%s: record %d differs", name, n)
		}
	}
	e.dev.ResetStats()
	n := 0
	rd := seg.NewReader()
	for ; rd.Valid(); rd.Next() {
		check("reader", n, rd.Key(), rd.Body())
		n++
	}
	if rd.Err() != nil || n != len(kvs) {
		t.Fatalf("reader: %d of %d records, err %v", n, len(kvs), rd.Err())
	}
	if st := e.dev.Stats(); st.Reads != int64(last-first+1) || st.BytesRead != int64(seg.NumLeaves)*storage.PageSize {
		t.Fatalf("reader: %d device reads of %d bytes, want one per extent touched: %d of %d", st.Reads, st.BytesRead, last-first+1, seg.NumLeaves*storage.PageSize)
	}
	for _, scan := range []struct {
		name       string
		hi         []byte
		rows, recs int
	}{{"iterator", nil, 0, 0}, {"bounded-scan", kvs[len(kvs)-1].Key, 0, 0}, {"sweep", nil, len(kvs), len(kvs)}} {
		var it Iterator
		n = 0
		for it.SeekScan(seg, nil, scan.hi, scan.rows, scan.recs); it.Valid(); it.Next() {
			check(scan.name, n, it.Record().Key, it.Record().Body)
			n++
		}
		if it.Err() != nil || n != len(kvs) {
			t.Fatalf("%s: %d of %d records, err %v", scan.name, n, len(kvs), it.Err())
		}
	}
}

// TestReaderFaults: a chunk read is retried like a buffer-pool page fetch,
// and what outlasts the retries, a rotted page, or a freed run surfaces as
// the error the pool would return.
func TestReaderFaults(t *testing.T) {
	drain := func(seg *Segment) (int, error) {
		n := 0
		rd := seg.NewReader()
		for ; rd.Valid(); rd.Next() {
			n++
		}
		return n, rd.Err()
	}
	for _, c := range []struct {
		name string
		rule ssd.FaultRule
		want error
	}{
		{"transient", ssd.FaultRule{Kind: ssd.FaultReadErr, Ops: []uint64{2}}, nil},
		{"persistent", ssd.FaultRule{Kind: ssd.FaultReadErr, Ops: []uint64{2, 3, 4}}, storage.ErrIOFault},
		{"bit-flip", ssd.FaultRule{Kind: ssd.FaultBitFlip, Ops: []uint64{2}, ByteOffset: 5*storage.PageSize + 100}, storage.ErrCorruptPage},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv(16)
			seg, err := Build(e.pool, e.file, 1, randomKVs(1, 400, 1024, 1), 0, 0, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			c.rule.Class = ssd.AnyClass
			e.dev.ArmFault(c.rule)
			e.dev.ResetStats()
			n, err := drain(seg)
			if !errors.Is(err, c.want) || (c.want == nil && (err != nil || n != seg.NumRecords)) {
				t.Fatalf("read %d of %d records, err %v; want %v", n, seg.NumRecords, err, c.want)
			}
			wantReads := int64(2) // two extents of leaves
			switch c.name {
			case "transient":
				wantReads = 3
			case "persistent":
				wantReads = 1 + storage.IOAttempts
			}
			if got := e.dev.Stats().Reads; got != wantReads {
				t.Fatalf("%d device reads, want %d", got, wantReads)
			}
			// The pool's counters see the reader's faults as they see its own.
			got := e.pool.IOStats()
			want := buffer.IOStats{}
			switch c.name {
			case "transient":
				want.ReadRetries = 1
			case "persistent":
				want.ReadRetries, want.ReadFailures = storage.IOAttempts-1, 1
			case "bit-flip":
				want.ChecksumFailures, want.ReadFailures = 1, 1
			}
			if got != want {
				t.Fatalf("pool I/O counters %+v, want %+v", got, want)
			}
		})
	}
	t.Run("freed", func(t *testing.T) {
		e := newEnv(16)
		seg, err := Build(e.pool, e.file, 1, randomKVs(1, 400, 1024, 1), 0, 0, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		seg.Free()
		e.dev.ResetStats()
		if _, err := drain(seg); !errors.Is(err, storage.ErrFreedPage) {
			t.Fatalf("reading a freed segment: %v", err)
		}
		if got := e.dev.Stats().Reads; got != 0 {
			t.Fatalf("%d device reads of a freed run", got)
		}
	})
}

// buildCost is one Builder run over kvs on a fresh device: what
// BenchmarkBuilder reports per op.
func buildCost(tb testing.TB, kvs []KV) ssd.Stats {
	e := newEnv(16)
	b := NewBuilder(e.pool, e.file, 1, BuildOptions{BloomBitsPerKey: 10})
	for i := range kvs {
		if err := b.Add(kvs[i].Key, kvs[i].Body); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := b.Finish(1, 1); err != nil {
		tb.Fatal(err)
	}
	return e.dev.Stats()
}

// BenchmarkBuilder streams one P_N's worth (256 KiB) of sorted 1 KiB records
// into a partition. Allocation includes the fresh device's blocks, 8 KiB per
// page written.
func BenchmarkBuilder(b *testing.B) {
	kvs := randomKVs(1, 230, 1024, 1)
	var st ssd.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = buildCost(b, kvs)
	}
	b.ReportMetric(float64(st.Writes), "dev-writes/op")
	b.ReportMetric(float64(st.Reads), "dev-reads/op")
	b.ReportMetric(float64(st.IOTime())/1e6, "virtual-ms/op")
}

// TestMaxEntryIsWhatALeafHolds: a record of MaxEntry bytes of key and body
// builds, with a short key and with one whose length takes two header
// bytes; one byte more fails with ErrEntryTooLarge, at CheckEntry and in
// the builder.
func TestMaxEntryIsWhatALeafHolds(t *testing.T) {
	for _, keyLen := range []int{8, 200} {
		key := bytes.Repeat([]byte("k"), keyLen)
		e := newEnv(16)
		b := NewBuilder(e.pool, e.file, 1, BuildOptions{})
		if err := b.Add(key, make([]byte, MaxEntry-keyLen)); err != nil {
			t.Fatalf("key of %d bytes: an entry of MaxEntry bytes: %v", keyLen, err)
		}
		if _, err := b.Finish(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := CheckEntry(MaxEntry + 1); !errors.Is(err, ErrEntryTooLarge) {
		t.Fatalf("CheckEntry(MaxEntry+1) = %v", err)
	}
	e := newEnv(16)
	b := NewBuilder(e.pool, e.file, 1, BuildOptions{})
	if err := b.Add(bytes.Repeat([]byte("k"), 200), make([]byte, MaxEntry-199)); !errors.Is(err, ErrEntryTooLarge) {
		t.Fatalf("builder took an entry of MaxEntry+1 bytes: %v", err)
	}
}
