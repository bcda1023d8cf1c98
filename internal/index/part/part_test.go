package part

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"mvpbt/internal/bloom"
	"mvpbt/internal/buffer"
	"mvpbt/internal/sfile"
	"mvpbt/internal/simclock"
	"mvpbt/internal/ssd"
	"mvpbt/internal/util"
)

type env struct {
	dev  *ssd.Device
	pool *buffer.Pool
	file *sfile.File
	fm   *sfile.Manager
}

func newEnv(frames int) *env {
	dev := ssd.New(simclock.New(), ssd.IntelP3600)
	fm := sfile.NewManager(dev)
	return &env{dev: dev, pool: buffer.New(frames), file: fm.Create("part", sfile.ClassIndex), fm: fm}
}

// Min positions a new iterator at the segment's first record.
func (s *Segment) Min() *Iterator { return s.Seek(nil) }

func sortedKVs(n int) []KV {
	kvs := make([]KV, n)
	for i := 0; i < n; i++ {
		kvs[i] = KV{
			Key:  []byte(fmt.Sprintf("key-%08d", i)),
			Body: []byte(fmt.Sprintf("body-%d", i)),
		}
	}
	return kvs
}

func TestBuildAndFullIteration(t *testing.T) {
	e := newEnv(256)
	kvs := sortedKVs(10000)
	seg, err := Build(e.pool, e.file, 1, kvs, 5, 99, BuildOptions{BloomBitsPerKey: 10})
	if err != nil {
		t.Fatal(err)
	}
	if seg.NumRecords != 10000 || seg.NumLeaves < 2 {
		t.Fatalf("meta wrong: %+v", seg)
	}
	if seg.MinTS != 5 || seg.MaxTS != 99 {
		t.Fatal("timestamp bounds lost")
	}
	i := 0
	for it := seg.Min(); it.Valid(); it.Next() {
		r := it.Record()
		if !bytes.Equal(r.Key, kvs[i].Key) || !bytes.Equal(r.Body, kvs[i].Body) {
			t.Fatalf("record %d mismatch: %q/%q", i, r.Key, r.Body)
		}
		i++
	}
	if i != 10000 {
		t.Fatalf("iterated %d records", i)
	}
}

func TestEmptyBuild(t *testing.T) {
	e := newEnv(16)
	seg, err := Build(e.pool, e.file, 1, nil, 0, 0, BuildOptions{})
	if err != nil || seg != nil {
		t.Fatalf("empty build: %v %v", seg, err)
	}
}

func TestSeek(t *testing.T) {
	e := newEnv(256)
	kvs := sortedKVs(5000)
	seg, err := Build(e.pool, e.file, 1, kvs, 0, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []int{0, 1, 499, 2500, 4999} {
		it := seg.Seek(kvs[probe].Key)
		if !it.Valid() || !bytes.Equal(it.Record().Key, kvs[probe].Key) {
			t.Fatalf("seek to %d failed", probe)
		}
	}
	// Seek between keys lands on the successor.
	it := seg.Seek([]byte("key-00000001x"))
	if !it.Valid() || !bytes.Equal(it.Record().Key, []byte("key-00000002")) {
		t.Fatalf("between-keys seek landed on %q", it.Record().Key)
	}
	// Seek past the end.
	it = seg.Seek([]byte("zzz"))
	if it.Valid() {
		t.Fatal("seek past end should be invalid")
	}
	// Seek before the start.
	it = seg.Seek([]byte("a"))
	if !it.Valid() || !bytes.Equal(it.Record().Key, kvs[0].Key) {
		t.Fatal("seek before start should land on min")
	}
}

func TestDuplicateKeysPreserveOrder(t *testing.T) {
	e := newEnv(128)
	var kvs []KV
	for i := 0; i < 100; i++ {
		kvs = append(kvs, KV{Key: []byte("same"), Body: []byte(fmt.Sprintf("b%03d", i))})
	}
	seg, err := Build(e.pool, e.file, 1, kvs, 0, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for it := seg.Seek([]byte("same")); it.Valid(); it.Next() {
		if string(it.Record().Body) != fmt.Sprintf("b%03d", i) {
			t.Fatalf("duplicate order broken at %d: %q", i, it.Record().Body)
		}
		i++
	}
	if i != 100 {
		t.Fatalf("got %d duplicates", i)
	}
}

func TestSequentialWritePattern(t *testing.T) {
	// Figure 12c: a partition write-out must be one sequential stream.
	e := newEnv(256)
	e.dev.ResetStats()
	kvs := sortedKVs(20000)
	seg, err := Build(e.pool, e.file, 1, kvs, 0, 0, BuildOptions{BloomBitsPerKey: 10})
	if err != nil {
		t.Fatal(err)
	}
	s := e.dev.Stats()
	if s.Writes < 10 {
		t.Fatalf("too few writes: %+v", s)
	}
	if float64(s.SeqWrites)/float64(s.Writes) < 0.95 {
		t.Fatalf("write-out not sequential: seq=%d total=%d", s.SeqWrites, s.Writes)
	}
	_ = seg
}

func TestDensePacking(t *testing.T) {
	e := newEnv(256)
	seg, _ := Build(e.pool, e.file, 1, sortedKVs(10000), 0, 0, BuildOptions{})
	// Records and their slots against what the leaves could hold: only the
	// last leaf and less than a record per leaf stay empty.
	if fill := float64(seg.SizeBytes+4*seg.NumRecords) / float64(seg.NumLeaves*leafBudget); fill < 0.95 {
		t.Fatalf("leaves not dense-packed: %d leaves filled to %.2f", seg.NumLeaves, fill)
	}
}

func TestPrefixTruncationSavesSpace(t *testing.T) {
	e := newEnv(256)
	// Long shared prefixes: front-coding should cut leaves substantially
	// versus the naive encoding size.
	var kvs []KV
	for i := 0; i < 5000; i++ {
		kvs = append(kvs, KV{Key: []byte(fmt.Sprintf("warehouse-0001-district-%06d", i)), Body: []byte("x")})
	}
	seg, _ := Build(e.pool, e.file, 1, kvs, 0, 0, BuildOptions{})
	rawBytes := 0
	for _, kv := range kvs {
		rawBytes += len(kv.Key) + len(kv.Body)
	}
	if seg.SizeBytes >= rawBytes*3/4 {
		t.Fatalf("front-coding ineffective: %d vs raw %d", seg.SizeBytes, rawBytes)
	}
}

// mayKey and mayRange ask seg's filters what a read asks them, hashing the
// key or the bounds' shared prefix for this one partition.
func mayKey(seg *Segment, key []byte) bool { return seg.MayContainKey(key, bloom.HashKey(key)) }

func mayRange(seg *Segment, lo, hi []byte) bool {
	return seg.MayContainRange(lo, hi, bloom.NewRangeProbe(lo, hi))
}

func TestBloomFilterSkipping(t *testing.T) {
	e := newEnv(256)
	kvs := sortedKVs(5000)
	seg, _ := Build(e.pool, e.file, 1, kvs, 0, 0, BuildOptions{BloomBitsPerKey: 10})
	for i := 0; i < 5000; i += 111 {
		if !mayKey(seg, kvs[i].Key) {
			t.Fatalf("bloom false negative on %q", kvs[i].Key)
		}
	}
	skipped := 0
	for i := 0; i < 2000; i++ {
		if !mayKey(seg, []byte(fmt.Sprintf("key-1%07d", i))) {
			skipped++
		}
	}
	if skipped < 1800 {
		t.Fatalf("bloom skipped only %d/2000 absent keys", skipped)
	}
	// Out-of-bounds keys are skipped by min/max alone.
	if mayKey(seg, []byte("aaa")) || mayKey(seg, []byte("zzz")) {
		t.Fatal("min/max key filter broken")
	}
}

func TestPrefixFilterRange(t *testing.T) {
	e := newEnv(256)
	var kvs []KV
	for i := 0; i < 1000; i++ {
		kvs = append(kvs, KV{Key: []byte(fmt.Sprintf("AAAA%06d", i)), Body: []byte("x")})
	}
	for i := 0; i < 1000; i++ {
		kvs = append(kvs, KV{Key: []byte(fmt.Sprintf("MMMM%06d", i)), Body: []byte("x")})
	}
	seg, _ := Build(e.pool, e.file, 1, kvs, 0, 0, BuildOptions{BloomBitsPerKey: 10, PrefixLen: 4})
	if !mayRange(seg, []byte("AAAA000000"), []byte("AAAA999999")) {
		t.Fatal("present prefix range skipped")
	}
	if mayRange(seg, []byte("CCCC000000"), []byte("CCCC999999")) {
		t.Fatal("absent prefix range not skipped")
	}
	// Out of min/max bounds entirely.
	if mayRange(seg, []byte("ZZZZ0"), []byte("ZZZZ9")) {
		t.Fatal("out-of-bounds range not skipped")
	}
	// Bounds sharing more than the prefix length: the filter answers for
	// all they share, and no key starts "AAAA0010".
	if mayRange(seg, []byte("AAAA001000"), []byte("AAAA001099")) {
		t.Fatal("absent longer prefix range not skipped")
	}
}

// prefixSegment builds keys, sorted, each under an empty body, into a
// segment with a prefix filter of length p.
func prefixSegment(keys [][]byte, p int) (*Segment, error) {
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	e := newEnv(16)
	b := NewBuilder(e.pool, e.file, 1, BuildOptions{BloomBitsPerKey: 10, PrefixLen: p})
	for _, k := range keys {
		if err := b.Add(k, nil); err != nil {
			return nil, err
		}
	}
	return b.Finish(0, 0)
}

// heldInRange reports whether one of keys lies in [lo, hi).
func heldInRange(keys [][]byte, lo, hi []byte) bool {
	for _, k := range keys {
		if bytes.Compare(lo, k) <= 0 && bytes.Compare(k, hi) < 0 {
			return true
		}
	}
	return false
}

// TestPrefixFilterHoldsEveryKeyInRange: keys over a two-letter alphabet that
// share prefixes of every length, are prefixes of one another, repeat (a
// key's versions) and are shorter than the prefix length, for prefix lengths
// 1 to 6. Whenever brute force finds a key in [lo, hi), the filter says the
// range may hold one: for bounds where lo is a prefix of hi, for bounds
// sharing fewer than p bytes (always true), and for random ones. Ranges it
// skips exist too.
func TestPrefixFilterHoldsEveryKeyInRange(t *testing.T) {
	r := util.NewRand(11)
	word := func(n int) []byte {
		w := make([]byte, n)
		for i := range w {
			w[i] = "ab"[r.Intn(2)]
		}
		return w
	}
	for p := 1; p <= 6; p++ {
		var keys [][]byte
		for i := 0; i < 300; i++ {
			k := word(r.Intn(10))
			for v := r.Intn(3); v >= 0; v-- {
				keys = append(keys, k)
			}
		}
		seg, err := prefixSegment(keys, p)
		if err != nil {
			t.Fatal(err)
		}
		held, skipped := 0, 0
		for probe := 0; probe < 3000; probe++ {
			lo := word(r.Intn(10))
			var hi []byte
			switch probe % 3 {
			case 0: // lo a prefix of hi
				hi = append(bytes.Clone(lo), word(1+r.Intn(4))...)
			case 1: // bounds sharing fewer than p bytes
				hi = append(bytes.Clone(lo[:min(len(lo), r.Intn(p))]), 'c')
			default:
				hi = word(r.Intn(10))
			}
			may := seg.PFilter.MayContainRange(bloom.NewRangeProbe(lo, hi))
			switch {
			case heldInRange(keys, lo, hi) && (!may || !mayRange(seg, lo, hi)):
				t.Fatalf("p=%d: [%q, %q) holds a key and is skipped", p, lo, hi)
			case util.CommonPrefix(lo, hi) < p && !may:
				t.Fatalf("p=%d: [%q, %q) shares fewer than p bytes and is skipped", p, lo, hi)
			case may && util.CommonPrefix(lo, hi) >= p:
				held++
			case !may:
				skipped++
			}
		}
		if held == 0 || skipped == 0 {
			t.Fatalf("p=%d: %d ranges the filter was asked about and let in, %d skipped; want some of both", p, held, skipped)
		}
	}
}

// FuzzPrefixFilter: any key set (the first input split at zero bytes), any
// bounds and prefix length: a range [lo, hi) that holds a key is never
// skipped.
//
//	go test -fuzz=FuzzPrefixFilter -fuzztime=30s ./internal/index/part/
func FuzzPrefixFilter(f *testing.F) {
	f.Add([]byte("ab\x00abc\x00abc\x00abd\x00b"), []byte("abc"), []byte("abc\x00"), byte(2))
	f.Add([]byte("ab\x00abc\x00abc\x00abd\x00b"), []byte("ab"), []byte("abcd"), byte(2))
	f.Add([]byte("a\x00aaaa\x00aaab\x00ab"), []byte("aaa"), []byte("aab"), byte(4))
	f.Add([]byte("w1d1o1l1\x00w1d1o1l2\x00w1d1o2l1\x00w1d2o1l1"), []byte("w1d1o2"), []byte("w1d1o3"), byte(4))
	f.Add([]byte{}, []byte{}, []byte{}, byte(0))
	f.Fuzz(func(t *testing.T, keys, lo, hi []byte, p byte) {
		set := bytes.Split(keys, []byte{0})
		seg, err := prefixSegment(set, 1+int(p%8))
		if err != nil {
			return // a key too large for a leaf
		}
		if heldInRange(set, lo, hi) && (!seg.PFilter.MayContainRange(bloom.NewRangeProbe(lo, hi)) || !mayRange(seg, lo, hi)) {
			t.Fatalf("[%q, %q) holds a key and is skipped, prefix length %d", lo, hi, 1+int(p%8))
		}
	})
}

func TestFreeReleasesExtents(t *testing.T) {
	e := newEnv(256)
	kvs := sortedKVs(10000)
	seg, _ := Build(e.pool, e.file, 1, kvs, 0, 0, BuildOptions{})
	before := e.fm.FreeExtents()
	seg.Free()
	if e.fm.FreeExtents() <= before {
		t.Fatal("Free did not release extents")
	}
}

// TestPackedPartitionsShareExtents: small partitions built one after another
// on one file pack its extents — each starts at the page after the last one's
// — rather than taking an extent each, and freeing every one of them returns
// every extent.
func TestPackedPartitionsShareExtents(t *testing.T) {
	e := newEnv(64)
	var segs []*Segment
	leaves := 0
	for i := 0; i < 40; i++ {
		seg, err := Build(e.pool, e.file, i, randomKVs(uint64(i), 10, 1024, 1), 0, 0, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if seg.StartPage != uint64(leaves) {
			t.Fatalf("segment %d starts at page %d, want %d", i, seg.StartPage, leaves)
		}
		segs, leaves = append(segs, seg), leaves+seg.NumLeaves
	}
	held := int(e.fm.LiveBytes() / sfile.ExtentBytes)
	if limit := (leaves+sfile.ExtentPages-1)/sfile.ExtentPages + 1; leaves < 2*len(segs) || held > limit {
		t.Fatalf("%d partitions of %d leaves hold %d extents, want at most %d", len(segs), leaves, held, limit)
	}
	for _, seg := range segs {
		seg.Free()
	}
	if e.fm.LiveBytes() != 0 || e.fm.FreeExtents() != held {
		t.Fatalf("after freeing every partition: %d bytes live, %d of %d extents free", e.fm.LiveBytes(), e.fm.FreeExtents(), held)
	}
}

func TestRandomKeysModel(t *testing.T) {
	e := newEnv(512)
	r := util.NewRand(77)
	seen := map[string]bool{}
	var kvs []KV
	for len(kvs) < 3000 {
		k := make([]byte, 5+r.Intn(20))
		r.Letters(k)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		kvs = append(kvs, KV{Key: k, Body: []byte{byte(len(kvs))}})
	}
	sortKVs(kvs)
	seg, err := Build(e.pool, e.file, 1, kvs, 0, 0, BuildOptions{BloomBitsPerKey: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(kvs); i += 53 {
		it := seg.Seek(kvs[i].Key)
		if !it.Valid() || !bytes.Equal(it.Record().Key, kvs[i].Key) {
			t.Fatalf("random key %q not found", kvs[i].Key)
		}
		if !bytes.Equal(it.Record().Body, kvs[i].Body) {
			t.Fatalf("random key %q wrong body", kvs[i].Key)
		}
	}
}

func sortKVs(kvs []KV) {
	// insertion of pre-sorted slices is the norm; this helper sorts test data
	for i := 1; i < len(kvs); i++ {
		for j := i; j > 0 && bytes.Compare(kvs[j].Key, kvs[j-1].Key) < 0; j-- {
			kvs[j], kvs[j-1] = kvs[j-1], kvs[j]
		}
	}
}

// fakeOwner implements Owner of buffer b for buffer tests.
type fakeOwner struct {
	name    string
	b       *PartitionBuffer
	size    int
	evicted int
}

func (f *fakeOwner) PNBytes() int { return f.size }
func (f *fakeOwner) EvictPN() error {
	f.evicted++
	f.b.Add(-f.size)
	f.size = 0
	return nil
}

func TestPartitionBufferEvictsLargest(t *testing.T) {
	b := NewPartitionBuffer(100)
	small := &fakeOwner{name: "small", b: b, size: 20}
	big := &fakeOwner{name: "big", b: b, size: 90}
	b.Register(small)
	b.Register(big)
	if err := b.MaybeEvict(); err != nil {
		t.Fatal(err)
	}
	if big.evicted != 1 || small.evicted != 0 {
		t.Fatalf("largest-victim policy violated: big=%d small=%d", big.evicted, small.evicted)
	}
	if b.Used() != 20 {
		t.Fatalf("Used=%d want 20", b.Used())
	}
	if b.Evictions() != 1 {
		t.Fatalf("Evictions=%d", b.Evictions())
	}
}

func TestPartitionBufferUnderLimitNoEviction(t *testing.T) {
	b := NewPartitionBuffer(1000)
	o := &fakeOwner{name: "o", b: b, size: 500}
	b.Register(o)
	b.MaybeEvict()
	if o.evicted != 0 {
		t.Fatal("evicted while under limit")
	}
}

func TestPartitionBufferEvictsUntilUnderLimit(t *testing.T) {
	b := NewPartitionBuffer(100)
	a := &fakeOwner{name: "a", b: b, size: 80}
	c := &fakeOwner{name: "c", b: b, size: 70}
	b.Register(a)
	b.Register(c)
	b.MaybeEvict()
	if b.Used() > 100 {
		t.Fatalf("still over limit: %d", b.Used())
	}
}
