package mvpbt

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"mvpbt/internal/buffer"
	"mvpbt/internal/index"
	"mvpbt/internal/index/part"
	"mvpbt/internal/sfile"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
)

// scanKey is key i of the read-ahead tests' trees.
func scanKey(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) }

// scanTree builds a clustered unique tree of parts persisted partitions over
// keys scanKey(0..keys): key i lies in partition i%parts under a 1 KiB value
// (seven to a leaf), so every partition spans the whole key range, as the
// served shards' do between merges.
func scanTree(t testing.TB, e *env, parts, keys int) *Tree {
	t.Helper()
	tr := e.tree(Options{Unique: true, BloomBits: 10})
	val := make([]byte, 1024)
	for p := 0; p < parts; p++ {
		tx := e.mgr.Begin()
		for i := p; i < keys; i += parts {
			if err := tr.InsertRegularVal(tx, scanKey(i), e.ref(), val); err != nil {
				t.Fatal(err)
			}
		}
		e.mgr.Commit(tx)
		if err := tr.EvictPN(); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// scanFrom is the served SCAN: limit entries from scanKey(from) on, under a
// fresh snapshot. It returns how many it got.
func scanFrom(e *env, tr *Tree, from, limit int) (int, error) {
	tx := e.mgr.Begin()
	defer e.mgr.Commit(tx)
	return scanLimit(tr, tx, scanKey(from), limit, limit)
}

// scanLimit announces a scan of limit entries from lo and stops after stop.
func scanLimit(tr *Tree, tx *txn.Tx, lo []byte, limit, stop int) (int, error) {
	n := 0
	err := tr.ScanLimit(tx, lo, nil, limit, func(index.Entry) bool {
		n++
		return n < stop
	})
	return n, err
}

// readCost is what one operation cost below the tree: device reads and the
// pages they carried, and the index pages the pool was asked for and missed.
type readCost struct {
	reads, pages, misses int64
	retries              int64
}

func measureReads(t testing.TB, e *env, fn func() error) readCost {
	t.Helper()
	d0, p0, io0 := e.dev.Stats(), e.pool.Stats()[sfile.ClassIndex], e.pool.IOStats()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	d, p, io := e.dev.Stats().Sub(d0), e.pool.Stats()[sfile.ClassIndex], e.pool.IOStats()
	misses := (p.Requests - p0.Requests) - (p.Hits - p0.Hits)
	return readCost{reads: d.Reads, pages: d.BytesRead / storage.PageSize, misses: misses, retries: io.ReadRetries - io0.ReadRetries}
}

// TestScanReadAheadGate pins the device cost of a SCAN(50) over 1 KiB values
// in counts: leaves come in by runs sized by the scan's limit.
func TestScanReadAheadGate(t *testing.T) {
	const keys, limit = 2000, 50
	for _, parts := range []int{1, 4} {
		e := newEnv(1024, 1<<30)
		tr := scanTree(t, e, parts, keys)
		segs := tr.Partitions()
		if len(segs) != parts || segs[0].NumLeaves < 2*sfile.ExtentPages {
			t.Fatalf("%d partitions, the first of %d leaves: want several extents", len(segs), segs[0].NumLeaves)
		}
		var scans, reads int64
		// Starts all over the key range, so that some scans begin just before
		// an extent boundary, and one that runs into the end of the segments.
		for from := 0; from < keys; from += 97 {
			if err := e.pool.EvictAll(); err != nil {
				t.Fatal(err)
			}
			// A scan of one entry from the far end of the key range first, so
			// that this one does not continue the last one's sweep (see
			// part.Iterator.enter): it starts about where that one's fetch
			// ended.
			if _, err := scanFrom(e, tr, (from+keys/2)%keys, 1); err != nil {
				t.Fatal(err)
			}
			want := min(limit, keys-from)
			cold := measureReads(t, e, func() error {
				n, err := scanFrom(e, tr, from, limit)
				if err == nil && n != want {
					err = fmt.Errorf("scan from %d: %d entries, want %d", from, n, want)
				}
				return err
			})
			// One run per partition, one more where the estimate fell short,
			// and one more where the leaves straddle an extent boundary.
			scans, reads = scans+1, reads+cold.reads
			if cold.reads > int64(3*parts) || cold.pages-cold.misses > int64(parts) || cold.retries != 0 {
				t.Errorf("%d partitions, cold SCAN(%d) from %d: %+v, want <= %d device reads, <= %d pages beyond the %d used, no refused run",
					parts, limit, from, cold, 3*parts, parts, cold.misses)
			}
			if warm := measureReads(t, e, func() error { _, err := scanFrom(e, tr, from, limit); return err }); warm.reads != 0 || warm.misses != 0 {
				t.Errorf("%d partitions, resident SCAN(%d) from %d: %+v, want no device read and no miss", parts, limit, from, warm)
			}
		}
		t.Logf("%d partitions: %d cold SCAN(%d) took %d device reads", parts, scans, limit, reads)
		if reads > scans*int64(2*parts) {
			t.Errorf("%d partitions: %d cold SCAN(%d) took %d device reads, want <= %d each on average", parts, scans, limit, reads, 2*parts)
		}
		// A scan that stops inside its first leaf reads that page alone.
		if err := e.pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		if one := measureReads(t, e, func() error { _, err := scanFrom(e, tr, 0, 2); return err }); one.reads != int64(parts) || one.pages != one.reads {
			t.Errorf("%d partitions, SCAN(2) from the first key: %+v, want one single-page read each", parts, one)
		}
		// A bounded scan is sized by the leaf holding hi, without a limit.
		if err := e.pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		bounded := measureReads(t, e, func() error {
			tx := e.mgr.Begin()
			defer e.mgr.Commit(tx)
			return tr.Scan(tx, scanKey(700), scanKey(700+limit), func(index.Entry) bool { return true })
		})
		if bounded.reads > int64(2*parts) || bounded.pages != bounded.misses {
			t.Errorf("%d partitions, cold Scan of %d keys to a bound: %+v, want <= %d device reads and no page unused", parts, limit, bounded, 2*parts)
		}
	}
}

// TestScanReadAheadFaults: a run read that fails costs a scan nothing but the
// single-page fetches it would have made anyway, and rot inside a run is
// reported where the scan reaches the rotted page, as without run reads.
func TestScanReadAheadFaults(t *testing.T) {
	const keys, limit = 2000, 50
	e := newEnv(1024, 1<<30)
	tr := scanTree(t, e, 1, keys)
	cold := func() {
		t.Helper()
		if err := e.pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		if _, err := scanFrom(e, tr, keys-1, 1); err != nil {
			t.Fatal(err)
		}
	}
	cold()
	// The run fails once: the leaves come in one by one, the first fetch
	// being the retry.
	e.dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultReadErr, Class: ssd.AnyClass, Ops: []uint64{1}})
	io0 := e.pool.IOStats()
	if n, err := scanFrom(e, tr, 100, limit); err != nil || n != limit {
		t.Fatalf("scan over a failed run: %d entries, %v", n, err)
	}
	if io := e.pool.IOStats(); io.ReadRetries != io0.ReadRetries+1 || io.ReadFailures != io0.ReadFailures {
		t.Fatalf("a failed run must count as one retried read: %+v after %+v", io, io0)
	}
	// Reads that keep failing surface the per-page typed error.
	cold()
	e.dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultReadErr, Class: ssd.AnyClass, Sticky: true})
	if _, err := scanFrom(e, tr, 100, limit); !errors.Is(err, storage.ErrIOFault) {
		t.Fatalf("scan over a dead device: %v, want ErrIOFault", err)
	}
	e.dev.DisarmAllFaults()
	// A bit rots in the fourth page of the run: nothing of the run is
	// installed, a scan that ends before that page succeeds, one that reaches
	// it gets ErrCorruptPage, and so does every later one.
	cold()
	e.dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultBitFlip, Class: ssd.AnyClass, Ops: []uint64{1}, ByteOffset: 3*storage.PageSize + 300, BitMask: 0x10})
	tx := e.mgr.Begin()
	defer e.mgr.Commit(tx)
	if n, err := scanLimit(tr, tx, scanKey(100), limit, 3); err != nil || n != 3 {
		t.Fatalf("scan ending before the rotted page: %d entries, %v", n, err)
	}
	if io := e.pool.IOStats(); io.ChecksumFailures != 0 {
		t.Fatalf("rot in a page no fetch asked for counted as a checksum failure: %+v", io)
	}
	for i := 0; i < 2; i++ {
		if _, err := scanFrom(e, tr, 100, limit); !errors.Is(err, storage.ErrCorruptPage) {
			t.Fatalf("scan %d across the rotted page: %v, want ErrCorruptPage", i, err)
		}
	}
}

// BenchmarkScanLimit is the served SCAN(50) over 1 KiB values against a merged
// shard's one partition: cold, through a pool an eighth of the leaves, and
// resident. The device cost is in counts, so it repeats.
func BenchmarkScanLimit(b *testing.B) {
	const keys, limit = 8000, 50
	part.SetPoison(false) // TestMain's: a fresh page buffer per leaf entered
	defer part.SetPoison(true)
	for _, c := range []struct {
		name   string
		frames int
	}{{"cold", 160}, {"resident", 2048}} {
		b.Run(c.name, func(b *testing.B) {
			e := newEnv(c.frames, 1<<30)
			tr := scanTree(b, e, 1, keys)
			tx := e.mgr.Begin()
			defer e.mgr.Commit(tx)
			for from := 0; from < keys; from += limit { // warm what fits
				if _, err := scanLimit(tr, tx, scanKey(from), limit, limit); err != nil {
					b.Fatal(err)
				}
			}
			st := e.dev.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := scanLimit(tr, tx, scanKey(i*7919%(keys-limit)), limit, limit); err != nil {
					b.Fatal(err)
				}
			}
			st = e.dev.Stats().Sub(st)
			b.ReportMetric(float64(st.Reads)/float64(b.N), "dev-reads/op")
			b.ReportMetric(float64(st.ReadTime)/float64(b.N)/1e3, "virtual-us/op")
		})
	}
}

// sweep runs successive SCAN(limit)s from scanKey(from) on, each continuing
// just after the last key of the one before, until the key range is read.
func sweep(e *env, tr *Tree, from, keys, limit int) error {
	for ; from < keys; from += limit {
		if n, err := scanFrom(e, tr, from, limit); err != nil || n != min(limit, keys-from) {
			return fmt.Errorf("scan from %d: %d entries, %v", from, n, err)
		}
	}
	return nil
}

// TestScanReadAheadSweep: a client paging through the key space with
// successive SCAN(k)s reads a cold segment in runs of MaxRun leaves — about
// one device read per MaxRun leaves, whatever k is.
func TestScanReadAheadSweep(t *testing.T) {
	const keys = 2000
	for _, limit := range []int{5, 20, 50} {
		e := newEnv(1024, 1<<30)
		tr := scanTree(t, e, 1, keys)
		leaves := tr.Partitions()[0].NumLeaves
		if err := e.pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		// The first scan's own run, then MaxRun leaves a read.
		want := int64((leaves+buffer.MaxRun-1)/buffer.MaxRun + 1)
		c := measureReads(t, e, func() error { return sweep(e, tr, 0, keys, limit) })
		if c.reads > want || c.pages != c.misses || c.retries != 0 {
			t.Errorf("SCAN(%d) sweep over %d cold leaves: %+v, want <= %d device reads and no page unused", limit, leaves, c, want)
		}
	}
}

// TestScanReadAheadSweepConcurrent: two readers paging through the same
// segments at once, through a pool that holds an eighth of the leaves, both
// see every key.
func TestScanReadAheadSweepConcurrent(t *testing.T) {
	const keys = 2000
	e := newEnv(64, 1<<30)
	tr := scanTree(t, e, 2, keys)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = sweep(e, tr, g*keys/4, keys, 20+g*30)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkScanSweep is a client paging through the key space: consecutive
// SCAN(50)s, each from just after the last key of the one before, over four
// partitions that each span the key range, through a pool an eighth of their
// leaves. The device cost is in counts, so it repeats.
func BenchmarkScanSweep(b *testing.B) {
	const keys, parts, limit, frames = 8000, 4, 50, 143
	part.SetPoison(false) // as in BenchmarkScanLimit
	defer part.SetPoison(true)
	e := newEnv(frames, 1<<30)
	tr := scanTree(b, e, parts, keys)
	leaves := 0
	for _, s := range tr.Partitions() {
		leaves += s.NumLeaves
	}
	if leaves/8 != frames {
		b.Fatalf("%d leaves, want eight times the pool's %d frames", leaves, frames)
	}
	tx := e.mgr.Begin()
	defer e.mgr.Commit(tx)
	st := e.dev.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scanLimit(tr, tx, scanKey(i*limit%keys), limit, limit); err != nil {
			b.Fatal(err)
		}
	}
	st = e.dev.Stats().Sub(st)
	b.ReportMetric(float64(st.Reads)/float64(b.N), "dev-reads/op")
	b.ReportMetric(float64(st.ReadTime)/float64(b.N)/1e3, "virtual-us/op")
}
