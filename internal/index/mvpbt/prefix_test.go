package mvpbt

import (
	"encoding/binary"
	"testing"

	"mvpbt/internal/index"
	"mvpbt/internal/index/part"
)

// olKey is an order-line key: warehouse, district, order and line number,
// four big-endian uint32s, as TPC-C's order-line primary key.
func olKey(w, d, o, line uint32) []byte {
	k := make([]byte, 16)
	for i, v := range []uint32{w, d, o, line} {
		binary.BigEndian.PutUint32(k[4*i:], v)
	}
	return k
}

// olOrders, olDistricts and olLines shape orderLineTree's partitions.
const olOrders, olDistricts, olLines = 4, 10, 10

// orderLineTree builds a unique tree of parts persisted partitions with
// prefix filters of length 8, (warehouse, district): partition p holds
// orders p*olOrders up to (p+1)*olOrders of every district of warehouse 1,
// olLines lines each, as TPC-C's order lines come in, so that every
// partition spans every district.
func orderLineTree(tb testing.TB, e *env, parts int) *Tree {
	tb.Helper()
	tr := e.tree(Options{Unique: true, BloomBits: 10, PrefixLen: 8})
	for p := 0; p < parts; p++ {
		tx := e.mgr.Begin()
		for d := uint32(1); d <= olDistricts; d++ {
			for o := p * olOrders; o < (p+1)*olOrders; o++ {
				for l := uint32(1); l <= olLines; l++ {
					if err := tr.InsertRegular(tx, olKey(1, d, uint32(o), l), e.ref()); err != nil {
						tb.Fatal(err)
					}
				}
			}
		}
		e.mgr.Commit(tx)
		if err := tr.EvictPN(); err != nil {
			tb.Fatal(err)
		}
	}
	return tr
}

// scanOrder scans one order's lines, the way Delivery and Order-Status do,
// and returns how many it got.
func scanOrder(tr *Tree, e *env, d, o uint32) (int, error) {
	return scanCount(tr, e, olKey(1, d, o, 0), olKey(1, d, o, ^uint32(0)))
}

func scanCount(tr *Tree, e *env, lo, hi []byte) (int, error) {
	tx := e.mgr.Begin()
	defer e.mgr.Commit(tx)
	n := 0
	err := tr.Scan(tx, lo, hi, func(index.Entry) bool { n++; return true })
	return n, err
}

// TestPrefixFilterSkipsOtherOrders: over partitions that each hold every
// district, a scan of one order asks the prefix filter for the order's
// 12-byte prefix, not the 8 bytes of its district, and enters at most the
// partition holding it and one false positive. A scan whose bounds share
// fewer than 8 bytes skips none, and each partition it enters is counted a
// positive when it holds a record of the range and a false positive when it
// holds none.
func TestPrefixFilterSkipsOtherOrders(t *testing.T) {
	const parts = 30
	e := newEnv(1024, 1<<30)
	tr := orderLineTree(t, e, parts)
	if n := tr.NumPartitions(); n != parts {
		t.Fatalf("%d partitions, want %d", n, parts)
	}
	delta := func(fn func() (int, error), want int) FilterStats {
		t.Helper()
		before := tr.Stats().Prefix
		n, err := fn()
		if err != nil || n != want {
			t.Fatalf("%d entries, %v; want %d", n, err, want)
		}
		after := tr.Stats().Prefix
		return FilterStats{after.Negatives - before.Negatives, after.Positives - before.Positives, after.FalsePositives - before.FalsePositives}
	}
	for _, o := range []uint32{0, 37, 77, parts*olOrders - 1} {
		st := delta(func() (int, error) { return scanOrder(tr, e, 3, o) }, olLines)
		if st.Negatives < parts-2 || st.Positives != 1 || st.Negatives+st.Positives+st.FalsePositives != parts {
			t.Errorf("scan of order %d: %+v, want at least %d of %d partitions skipped and one positive", o, st, parts-2, parts)
		}
	}
	// District 3 from order 0 to district 4: the bounds share 7 bytes.
	st := delta(func() (int, error) { return scanCount(tr, e, olKey(1, 3, 0, 0), olKey(1, 4, 0, 0)) }, parts*olOrders*olLines)
	if st != (FilterStats{Positives: parts}) {
		t.Errorf("scan of a district: %+v, want every partition entered, each a positive", st)
	}
	// The orders above the last of district 3: no record, and bounds that
	// share 7 bytes, so every partition is entered and found empty.
	st = delta(func() (int, error) { return scanCount(tr, e, olKey(1, 3, parts*olOrders, 0), olKey(1, 4, 0, 0)) }, 0)
	if st != (FilterStats{FalsePositives: parts}) {
		t.Errorf("scan past a district's last order: %+v, want every partition entered, each a false positive", st)
	}
}

// BenchmarkScanOrderLine scans one order's lines over 50 order-line
// partitions that each hold every district — Delivery's and Order-Status's
// scan on the benchmark's TPC-C indexes — through a pool a quarter of the
// partitions' pages and resident. It reports the partitions the scan enters
// and the device reads, counts that repeat.
func BenchmarkScanOrderLine(b *testing.B) {
	const parts = 50
	part.SetPoison(false) // TestMain's: a fresh page buffer per leaf entered
	defer part.SetPoison(true)
	pages := 0
	for _, seg := range orderLineTree(b, newEnv(1024, 1<<30), parts).Partitions() {
		pages += seg.NumLeaves
	}
	for _, c := range []struct {
		name   string
		frames int
	}{{"pool=pages/4", pages / 4}, {"resident", 2 * pages}} {
		b.Run(c.name, func(b *testing.B) {
			e := newEnv(c.frames, 1<<30)
			tr := orderLineTree(b, e, parts) // builds write around the pool: it starts cold
			scan := func(i int) {
				d, o := uint32(1+i%olDistricts), uint32(i*7919%(parts*olOrders))
				if n, err := scanOrder(tr, e, d, o); err != nil || n != olLines {
					b.Fatalf("order %d/%d: %d lines, %v", d, o, n, err)
				}
			}
			for i := 0; i < 2*parts*olOrders; i++ { // warm what fits
				scan(i)
			}
			st, pf := e.dev.Stats(), tr.Stats().Prefix
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scan(i)
			}
			b.StopTimer()
			st, after := e.dev.Stats().Sub(st), tr.Stats().Prefix
			b.ReportMetric(float64(after.Positives+after.FalsePositives-pf.Positives-pf.FalsePositives)/float64(b.N), "partitions/op")
			b.ReportMetric(float64(st.Reads)/float64(b.N), "dev-reads/op")
		})
	}
}
