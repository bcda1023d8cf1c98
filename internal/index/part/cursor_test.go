package part

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mvpbt/internal/buffer"
	"mvpbt/internal/page"
	"mvpbt/internal/sfile"
	"mvpbt/internal/storage"
	"mvpbt/internal/util"
)

// The leaf cursor reads device bytes where they lie, behind a checksum that
// is not a MAC and with no decoded copy to fall back on. It must walk an
// arbitrary page image without panicking or slicing outside it, and report a
// varint or length that overruns its slot as storage.ErrCorruptPage. The
// fence search that picks the leaf must agree with the leaves it indexes.
//
// Run the full fuzzers with:
//
//	go test -fuzz=FuzzLeafCursor -fuzztime=30s ./internal/index/part/
//	go test -fuzz=FuzzFenceSearch -fuzztime=30s ./internal/index/part/

// pageOf lays head over the front of a zeroed page image (header and slot
// directory) and tail over its end (the record area). The two ends are the
// fuzz inputs, so that an interesting page stays a few hundred bytes: the
// minimizer crawls on 8 KiB inputs.
func pageOf(head, tail []byte) page.Page {
	b := make([]byte, storage.PageSize)
	copy(b, head)
	copy(b[storage.PageSize-min(len(tail), storage.PageSize):], tail)
	return page.Wrap(b)
}

// endsOf cuts a built page image into the inputs of pageOf.
func endsOf(img []byte) (head, tail []byte) {
	slots, freeHi := binary.LittleEndian.Uint16(img[0:2]), binary.LittleEndian.Uint16(img[2:4])
	return bytes.Clone(img[:48+4*int(slots)]), bytes.Clone(img[freeHi:])
}

// leafImage builds kvs into a segment and returns a copy of its leaf rel.
func leafImage(tb testing.TB, kvs []KV, rel int) []byte {
	e := newEnv(16)
	seg, err := Build(e.pool, e.file, 1, kvs, 0, 0, BuildOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	buf := make([]byte, storage.PageSize)
	if err := e.file.ReadPage(seg.StartPage+uint64(rel), buf); err != nil {
		tb.Fatal(err)
	}
	return buf
}

// fuzzSeeds builds a small segment of three leaves and returns the ends of
// its first and of its last leaf.
func fuzzSeeds(f *testing.F) (firstHead, firstTail, lastHead, lastTail []byte) {
	var kvs []KV
	for i := 0; i < 40; i++ { // ~430-byte records: 3 leaves
		kvs = append(kvs, KV{Key: []byte(fmt.Sprintf("user%06d", i*3)), Body: bytes.Repeat([]byte{byte('a' + i%26)}, 420)})
	}
	firstHead, firstTail = endsOf(leafImage(f, kvs, 0))
	lastHead, lastTail = endsOf(leafImage(f, kvs, 2))
	return
}

// restartSeeds returns the ends of a one-leaf segment of 3R+4 small records
// (six-byte records, so the input stays small), of the same leaf with slot
// R's shared length set to 1, and with the keys of slots R and 2R swapped.
func restartSeeds(f *testing.F) (ends [3][2][]byte) {
	var kvs []KV
	for i := 0; i < 3*restartEvery+4; i++ {
		kvs = append(kvs, KV{Key: []byte(fmt.Sprintf("user%06d", i*3)), Body: []byte{byte('a' + i%26)}})
	}
	img := leafImage(f, kvs, 0)
	ends[0][0], ends[0][1] = endsOf(img)
	pg := page.Wrap(bytes.Clone(img))
	pg.Get(restartEvery)[0] = 1
	ends[1][0], ends[1][1] = endsOf(pg.Bytes())
	pg = page.Wrap(bytes.Clone(img))
	a, b := pg.Get(restartEvery)[2:12], pg.Get(2 * restartEvery)[2:12] // [0][10][key][body]
	for i := range a {
		a[i], b[i] = b[i], a[i]
	}
	ends[2][0], ends[2][1] = endsOf(pg.Bytes())
	return ends
}

func FuzzLeafCursor(f *testing.F) {
	leafHead, leafTail, lastHead, lastTail := fuzzSeeds(f)
	f.Add(leafHead, leafTail, []byte("user000030"))
	f.Add(leafHead, leafTail, []byte(nil))
	f.Add(leafHead, leafTail, []byte("zzz"))
	f.Add(lastHead, lastTail, []byte("user000030")) // a probe below the leaf's first key
	// A leaf past two restart slots: whole, with a restart record that takes
	// a byte from its predecessor, and with two restart keys swapped.
	for _, e := range restartSeeds(f) {
		f.Add(e[0], e[1], []byte("user000150"))
	}
	// Hostile shapes: a slot count the page cannot hold, a slot past the
	// page end, a shared length with no previous key, a suffix length past
	// the record, varints that do not end.
	f.Add([]byte{0xFF, 0xFF}, []byte{}, []byte("k"))
	f.Add(append(make([]byte, 48), 0xFE, 0x1F, 0x10, 0x00), []byte{}, []byte("k"))
	f.Add(append(append([]byte{1, 0}, make([]byte, 46)...), 0xFD, 0x1F, 3, 0), []byte{5, 1, 'k'}, []byte("k"))
	f.Add(append(append([]byte{1, 0}, make([]byte, 46)...), 0xFD, 0x1F, 3, 0), []byte{0, 9, 'k'}, []byte("k"))
	f.Add(append(append([]byte{1, 0}, make([]byte, 46)...), 0xFD, 0x1F, 3, 0), []byte{0x80, 0x80, 0x80}, []byte("k"))
	f.Add([]byte{}, []byte{}, []byte{})

	f.Fuzz(func(t *testing.T, head, tail, key []byte) {
		pg := pageOf(head, tail)
		// To exhaustion. A read outside the page image would be an index out
		// of range, which the fuzzer reports like any other panic.
		type rec struct{ key, body []byte }
		var walk []rec
		var c leafCursor
		c.reset(pg)
		for {
			ok, err := c.next()
			if err != nil {
				if !errors.Is(err, storage.ErrCorruptPage) {
					t.Fatalf("walk: %v does not wrap ErrCorruptPage", err)
				}
				walk = nil
				break
			}
			if !ok {
				break
			}
			walk = append(walk, rec{bytes.Clone(c.key), c.body})
		}
		// Seek: the first record of that walk at or above key, on a cursor
		// that has seen other pages.
		c.reset(pg)
		ok, err := c.next()
		if len(key) > 0 {
			c.reset(pg)
			ok, err = c.seek(key)
		}
		if err != nil {
			if !errors.Is(err, storage.ErrCorruptPage) {
				t.Fatalf("seek: %v does not wrap ErrCorruptPage", err)
			}
			return
		}
		if walk == nil {
			return // the seek may start behind the damage, or stop before it
		}
		// A page whose keys go down is none a builder writes, and binary
		// search over its restart slots has no lower bound to find: the seek
		// only has to land on a record of the walk, the one in its slot.
		for i := 1; i < len(walk); i++ {
			if bytes.Compare(walk[i-1].key, walk[i].key) > 0 {
				if ok && (c.slot >= len(walk) || !bytes.Equal(c.key, walk[c.slot].key) || !bytes.Equal(c.body, walk[c.slot].body)) {
					t.Fatalf("seek %q: on %q in slot %d, not the walk's record there", key, c.key, c.slot)
				}
				return
			}
		}
		for _, w := range walk {
			if bytes.Compare(w.key, key) >= 0 {
				if !ok || !bytes.Equal(c.key, w.key) || !bytes.Equal(c.body, w.body) {
					t.Fatalf("seek %q: on %q (%v), the walk's first is %q", key, c.key, ok, w.key)
				}
				return
			}
		}
		if ok {
			t.Fatalf("seek %q: on %q, the walk has no such record", key, c.key)
		}
	})
}

// TestCorruptPageSurfacesThroughIterator: damage that passes the checksum
// reaches the caller as ErrCorruptPage naming the page, from a seek into the
// leaf as from the leaf walk and the sequential reader.
func TestCorruptPageSurfacesThroughIterator(t *testing.T) {
	e := newEnv(16)
	kvs := randomKVs(3, 60, 420, 1)
	seg, err := Build(e.pool, e.file, 1, kvs, 0, 0, BuildOptions{})
	if err != nil || seg.NumLeaves < 3 {
		t.Fatalf("%d leaves, %v", seg.NumLeaves, err)
	}
	smashFirstRecord(t, e, seg, 1)
	it := seg.Seek(nil)
	n := 0
	for ; it.Valid(); it.Next() {
		n++
	}
	if !errors.Is(it.Err(), storage.ErrCorruptPage) || n == 0 {
		t.Fatalf("leaf walk: %d records, then %v", n, it.Err())
	}
	rd := seg.NewReader()
	for ; rd.Valid(); rd.Next() {
	}
	if !errors.Is(rd.Err(), storage.ErrCorruptPage) {
		t.Fatalf("reader: %v", rd.Err())
	}
	if err := e.pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	key := seg.fences.key(1)
	name := fmt.Sprintf("page %d ", seg.StartPage+1)
	if it := seg.Seek(key); it.Valid() || !errors.Is(it.Err(), storage.ErrCorruptPage) || !strings.Contains(it.Err().Error(), name) {
		t.Fatalf("seek into the leaf: valid %v, %v; want ErrCorruptPage naming %s", it.Valid(), it.Err(), name)
	}
}

// TestProbesRequestOnlyLeaves: fences stand in for internal pages, so a
// probe asks the pool for the leaves it enters and for nothing else — a
// point seek into a cold pool for one page in one device read, a scan for
// each leaf from the one its lo enters to the last — whatever its bounds.
func TestProbesRequestOnlyLeaves(t *testing.T) {
	e := newEnv(64)
	kvs := randomKVs(4, 20000, 40, 3)
	seg, err := Build(e.pool, e.file, 1, kvs, 0, 0, BuildOptions{})
	if err != nil || seg.NumLeaves < 2*sfile.ExtentPages {
		t.Fatalf("%d leaves, %v", seg.NumLeaves, err)
	}
	past := append(bytes.Clone(seg.MaxKey()), 0)
	// drain counts the pool requests of a scan from lo to the segment's end.
	drain := func(lo, hi []byte) (recs []KV, requests int64) {
		t.Helper()
		before := e.pool.Stats()[sfile.ClassIndex].Requests
		var it Iterator
		for it.SeekScan(seg, lo, hi, 0, 0); it.Valid(); it.Next() {
			recs = append(recs, KV{bytes.Clone(it.Record().Key), bytes.Clone(it.Record().Body)})
		}
		if it.Err() != nil {
			t.Fatalf("scan [%q, %q): %v", lo, hi, it.Err())
		}
		return recs, e.pool.Stats()[sfile.ClassIndex].Requests - before
	}
	for _, b := range []struct{ lo, hi []byte }{{seg.MinKey(), past}, {nil, nil}, {[]byte("a"), nil}, {seg.MinKey(), seg.MaxKey()}} {
		got, requests := drain(b.lo, b.hi)
		if requests != int64(seg.NumLeaves) || !reflect.DeepEqual(got, kvs) {
			t.Errorf("whole-segment scan [%q, %q): %d pool requests for %d leaves, %d of %d records", b.lo, b.hi, requests, seg.NumLeaves, len(got), len(kvs))
		}
	}
	for i := 0; i < len(kvs); i += 997 {
		lo := kvs[i].Key
		want := sort.Search(len(kvs), func(j int) bool { return bytes.Compare(kvs[j].Key, lo) >= 0 })
		got, requests := drain(lo, kvs[min(i+500, len(kvs)-1)].Key)
		if leaves := int64(seg.NumLeaves - landingLeaf(seg, lo)); requests != leaves || !reflect.DeepEqual(got, kvs[want:]) {
			t.Errorf("scan from %q: %d pool requests for %d leaves entered, %d records, want %d", lo, requests, leaves, len(got), len(kvs)-want)
		}
		if err := e.pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
		d0, p0 := e.dev.Stats().Reads, e.pool.Stats()[sfile.ClassIndex].Requests
		it := seg.Seek(lo)
		if d, p := e.dev.Stats().Reads-d0, e.pool.Stats()[sfile.ClassIndex].Requests-p0; !it.Valid() || d != 1 || p != 1 {
			t.Errorf("cold point seek %q: %d pool requests, %d device reads, valid %v; want one of each", lo, p, d, it.Valid())
		}
	}
}

// TestBoundedScanBudgetReachesHi: a scan bounded by a hi hundreds of leaves
// past lo — more than one internal page would index — expects to read from
// lo's landing leaf to hi's leaf exactly, the last whose first key is below
// hi.
func TestBoundedScanBudgetReachesHi(t *testing.T) {
	e := newEnv(64)
	kvs := randomKVs(6, 8000, 1024, 1)
	seg, err := Build(e.pool, e.file, 1, kvs, 0, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ lo, hi int }{{10, 7000}, {3, 2600}, {100, 7999}} {
		lo, hi := kvs[c.lo].Key, kvs[c.hi].Key
		from, to := landingLeaf(seg, lo), linearLeaf(seg, hi)
		if to-from <= 300 {
			t.Fatalf("[%d, %d): leaves %d to %d, want more than 300 apart", c.lo, c.hi, from, to)
		}
		var it Iterator
		it.SeekScan(seg, lo, hi, 0, 0)
		// The budget is to-from+1 leaves, and enter has taken the first.
		if !it.Valid() || it.leaf != from || it.left != to-from {
			t.Errorf("scan [%q, %q): in leaf %d with %d more leaves budgeted; want leaf %d and %d", lo, hi, it.leaf, it.left, from, to-from)
		}
	}
}

// TestSeekEntersTheLeafHoldingItsKey: over 1 KiB values, seven records a
// leaf, a seek to the first key of a leaf makes one pool request, the leaf's
// own, whether or not the key's versions continue from the leaf before —
// under the strict fence rule alone the seek to a key that does not continue
// first read the leaf before, finding nothing. A scan over a range that falls
// between two leaves makes none.
func TestSeekEntersTheLeafHoldingItsKey(t *testing.T) {
	e := newEnv(64)
	kvs := randomKVs(9, 400, 1024, 3)
	seg, err := Build(e.pool, e.file, 1, kvs, 0, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requests := func() int64 { return e.pool.Stats()[sfile.ClassIndex].Requests }
	var it Iterator
	continued := 0
	for i := 1; i < seg.NumLeaves; i++ {
		first, prev := seg.fences.key(i), seg.fences.last(i-1)
		r0 := requests()
		it.Seek(seg, first)
		want := i // the leaf holding first's first version
		if bytes.Equal(prev, first) {
			want, continued = i-1, continued+1
		}
		if r := requests() - r0; !it.Valid() || !bytes.Equal(it.Record().Key, first) || it.leaf != want || r != 1 {
			t.Fatalf("seek %q: on %q in leaf %d after %d pool requests; want leaf %d after 1", first, it.Record().Key, it.leaf, r, want)
		}
		if bytes.Equal(prev, first) {
			continue
		}
		lo, r0 := append(bytes.Clone(prev), 0), requests()
		if it.SeekScan(seg, lo, first, 0, 0); it.Valid() || it.Err() != nil || requests() != r0 {
			t.Fatalf("scan [%q, %q) between leaves %d and %d: valid %v, %v, %d pool requests; want none", lo, first, i-1, i, it.Valid(), it.Err(), requests()-r0)
		}
	}
	if continued == 0 || continued == seg.NumLeaves-1 {
		t.Fatalf("%d of %d leaves open with a key continued from the leaf before; want some, not all", continued, seg.NumLeaves)
	}
}

// linearLeaf is findLeaf's rule read off the leaves one by one: the last
// leaf whose first record's key is strictly below key, or leaf 0.
func linearLeaf(seg *Segment, key []byte) int {
	leaf := 0
	for i := 1; i < seg.NumLeaves; i++ {
		if bytes.Compare(seg.fences.key(i), key) < 0 {
			leaf = i
		}
	}
	return leaf
}

// landingLeaf is the leaf a seek to key enters, read off the leaves one by
// one: the first whose last key is at or above key, or NumLeaves.
func landingLeaf(seg *Segment, key []byte) int {
	leaf := 0
	for leaf < seg.NumLeaves && bytes.Compare(seg.fences.last(leaf), key) < 0 {
		leaf++
	}
	return leaf
}

// FuzzFenceSearch: over sorted keys whose versions run across leaves, the
// fences are the leaves' first and last keys and findLeaf is the linear
// rule. A seek enters the landing leaf, the first whose last key is at or
// above the probe, with one pool request, or makes none when no record is;
// it lands on the first record at or above the probe — the first version of
// a key — as a sorted slice has it. A bounded scan over [probe, next key),
// which holds no record, makes no request when next key opens its leaf.
func FuzzFenceSearch(f *testing.F) {
	f.Add(uint64(1), uint16(3000), uint8(200), []byte("user0000000700"))
	f.Add(uint64(2), uint16(3000), uint8(1), []byte("user"))
	f.Add(uint64(3), uint16(1), uint8(1), []byte(nil))
	f.Add(uint64(4), uint16(800), uint8(255), []byte("\xff"))
	f.Add(uint64(5), uint16(60), uint8(60), []byte("user00000000"))
	// The cases of the landing rule, over 100-byte bodies (seed 7: leaf 0
	// ends at key 175, leaf 1 runs from 182 to 364, leaf 2 starts with 364's
	// later versions): a probe equal to leaf 1's first key, whose versions
	// do not continue from leaf 0; one equal to leaf 2's, whose do; an
	// absent key between leaves 0 and 1, and with it the bounded range
	// [probe, 182), between them too; and (seed 8) key 7, whose versions
	// span leaves 0 to 2.
	f.Add(uint64(7), uint16(400), uint8(4), []byte("user0000000182"))
	f.Add(uint64(7), uint16(400), uint8(4), []byte("user0000000364"))
	f.Add(uint64(7), uint16(400), uint8(4), []byte("user0000000178"))
	f.Add(uint64(8), uint16(300), uint8(255), []byte("user0000000007"))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, maxDup uint8, probe []byte) {
		kvs := randomKVs(seed, 1+int(n)%4000, 100, 1+int(maxDup))
		e := newEnv(16)
		seg, err := Build(e.pool, e.file, 1, kvs, 0, 0, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, storage.PageSize)
		var c leafCursor
		for i := 0; i < seg.NumLeaves; i++ {
			if err := e.file.ReadPage(seg.StartPage+uint64(i), buf); err != nil {
				t.Fatal(err)
			}
			c.reset(page.Wrap(buf))
			if ok, err := c.next(); !ok || err != nil || !bytes.Equal(c.key, seg.fences.key(i)) {
				t.Fatalf("leaf %d starts with %q (%v, %v), fence %q", i, c.key, ok, err, seg.fences.key(i))
			}
			last := bytes.Clone(c.key)
			for ok, err := c.next(); ok || err != nil; ok, err = c.next() {
				if err != nil {
					t.Fatal(err)
				}
				last = append(last[:0], c.key...)
			}
			if !bytes.Equal(last, seg.fences.last(i)) {
				t.Fatalf("leaf %d ends with %q, fence %q", i, last, seg.fences.last(i))
			}
		}
		requests := func() int64 { return e.pool.Stats()[sfile.ClassIndex].Requests }
		pick := kvs[int(seed%uint64(len(kvs)))].Key
		var it Iterator
		for _, key := range [][]byte{probe, pick, append(bytes.Clone(pick), probe...), pick[:len(pick)/2]} {
			if got, want := seg.findLeaf(key), linearLeaf(seg, key); got != want {
				t.Fatalf("findLeaf(%q) = %d, the linear rule %d", key, got, want)
			}
			want := sort.Search(len(kvs), func(i int) bool { return bytes.Compare(kvs[i].Key, key) >= 0 })
			leaf, r0 := landingLeaf(seg, key), requests()
			it.Seek(seg, key)
			if it.Err() != nil || it.Valid() != (want < len(kvs)) ||
				(it.Valid() && (!bytes.Equal(it.Record().Key, kvs[want].Key) || !bytes.Equal(it.Record().Body, kvs[want].Body))) {
				t.Fatalf("seek %q: valid %v on %q, %v; want record %d", key, it.Valid(), it.Record().Key, it.Err(), want)
			}
			if r := requests() - r0; it.Valid() && (it.leaf != leaf || r != 1) || !it.Valid() && r != 0 {
				t.Fatalf("seek %q: in leaf %d after %d pool requests; want leaf %d after %d", key, it.leaf, r, leaf, min(1, seg.NumLeaves-leaf))
			}
			if want == len(kvs) || !(bytes.Compare(key, kvs[want].Key) < 0) {
				continue
			}
			hi, r0 := kvs[want].Key, requests()
			it.SeekScan(seg, key, hi, 0, 0)
			between := bytes.Equal(seg.fences.key(leaf), hi) // [key, hi) ends where leaf starts
			if r := requests() - r0; it.Err() != nil || between && (it.Valid() || r != 0) || !between && r != 1 {
				t.Fatalf("scan [%q, %q): valid %v after %d pool requests, %v; the range opens leaf %d: %v", key, hi, it.Valid(), r, it.Err(), leaf, between)
			}
		}
	})
}

// smashFirstRecord overwrites the first varint of page rel's first record
// with one that does not end, under a fresh checksum.
func smashFirstRecord(t *testing.T, e *env, seg *Segment, rel int) {
	t.Helper()
	buf := make([]byte, storage.PageSize)
	if err := e.file.ReadPage(seg.StartPage+uint64(rel), buf); err != nil {
		t.Fatal(err)
	}
	rec := page.Wrap(buf).Get(0)
	for i := range rec {
		rec[i] = 0x80
	}
	page.StampChecksum(buf)
	if err := e.file.WritePage(seg.StartPage+uint64(rel), buf); err != nil {
		t.Fatal(err)
	}
}

// TestScanOverManyPartitionsHoldsNoPin: one open iterator per partition, a
// hundred of them over a 64-frame pool (one replacement domain: a domain has
// at least 128 frames since PR 21), all standing mid-leaf at once as a scan's
// merge holds them: no fetch fails for want of a frame, and no iterator holds
// a frame between calls.
func TestScanOverManyPartitionsHoldsNoPin(t *testing.T) {
	e := newEnv(64)
	const parts = 100
	segs := make([]*Segment, parts)
	for i := range segs {
		var err error
		if segs[i], err = Build(e.pool, e.file, i, randomKVs(uint64(i+1), 50, 420, 1), 0, 0, BuildOptions{}); err != nil {
			t.Fatal(err)
		}
		if segs[i].NumLeaves < 3 {
			t.Fatalf("partition %d has %d leaves", i, segs[i].NumLeaves)
		}
	}
	its := make([]Iterator, parts)
	for i := range its {
		its[i].Seek(segs[i], nil)
	}
	total := 0
	for step := 0; ; step++ {
		live := 0
		for i := range its {
			it := &its[i]
			if err := it.Err(); err != nil {
				t.Fatalf("partition %d: %v", i, err)
			}
			if it.Valid() {
				live++
				total++
				it.Next()
			}
		}
		if live == 0 {
			break
		}
		if step == 25 { // every iterator is inside its second leaf
			// EvictAll drops every unpinned page, so a page still cached
			// afterwards is pinned by someone.
			if err := e.pool.EvictAll(); err != nil {
				t.Fatal(err)
			}
			before := e.pool.Stats()[sfile.ClassIndex]
			for i := range its {
				fr, err := e.pool.Get(e.file, segs[i].StartPage+uint64(its[i].leaf))
				if err != nil {
					t.Fatal(err)
				}
				e.pool.Unpin(fr, false)
			}
			if hits := e.pool.Stats()[sfile.ClassIndex].Hits - before.Hits; hits != 0 {
				t.Fatalf("%d of %d iterators hold their leaf's frame pinned", hits, parts)
			}
		}
	}
	if total != parts*50 {
		t.Fatalf("iterated %d records, built %d", total, parts*50)
	}
}

// TestPoisonMakesAKeptRecordLoud: under SetPoison a Key or Body kept past
// the iterator's move into another leaf, or past Close, reads 0xDB.
func TestPoisonMakesAKeptRecordLoud(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	e := newEnv(16)
	seg, err := Build(e.pool, e.file, 1, randomKVs(5, 60, 420, 1), 0, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	allDB := func(b []byte) bool { return len(b) > 0 && bytes.Count(b, []byte{0xDB}) == len(b) }
	var it Iterator
	it.Seek(seg, nil)
	kept := it.Record()
	for leaf := it.leaf; it.Valid() && it.leaf == leaf; it.Next() {
	}
	if !it.Valid() || !allDB(kept.Key) || !allDB(kept.Body) {
		t.Fatalf("after leaving the leaf: kept key %q, body %q...", kept.Key, kept.Body[:8])
	}
	kept = it.Record()
	it.Close()
	if !allDB(kept.Key) || !allDB(kept.Body) {
		t.Fatalf("after Close: kept key %q, body %q...", kept.Key, kept.Body[:8])
	}
	it.Seek(seg, kept.Key[:0])
	if !it.Valid() || allDB(it.Record().Key) {
		t.Fatal("a closed iterator must be reusable")
	}
}

// BenchmarkSegmentSeek seeks a reused iterator to random present keys of one
// segment, of 100-byte bodies (~70 records a leaf) and of the TPC-C index
// shape (~180), with the segment resident in the pool and with a pool a third
// its size.
func BenchmarkSegmentSeek(b *testing.B) {
	for _, shape := range []struct {
		name string
		kvs  []KV
	}{
		{"body=100B", randomKVs(1, 20000, 100, 1)},
		{"tpcc-index", indexKVs(1, 60000)},
	} {
		b.Run(shape.name, func(b *testing.B) { benchmarkSeek(b, shape.kvs) })
	}
}

func benchmarkSeek(b *testing.B, kvs []KV) {
	for _, c := range []struct {
		name   string
		frames func(pages int) int
	}{
		{"resident", func(pages int) int { return 2 * pages }},
		{"pool=pages/3", func(pages int) int { return pages / 3 }},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := newEnv(16)
			seg, err := Build(e.pool, e.file, 1, kvs, 0, 0, BuildOptions{})
			if err != nil {
				b.Fatal(err)
			}
			seg.pool = buffer.New(c.frames(seg.NumLeaves)) // builds write around the pool: it starts cold
			var it Iterator
			for i := range kvs { // warm the pool as far as it goes
				it.Seek(seg, kvs[i].Key)
			}
			seg.pool.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := kvs[(i*7919)%len(kvs)].Key
				if it.Seek(seg, k); !it.Valid() || !bytes.Equal(it.Record().Key, k) {
					b.Fatalf("seek %q: %v", k, it.Err())
				}
			}
			b.StopTimer()
			st := seg.pool.Stats()[sfile.ClassIndex]
			b.ReportMetric(float64(st.Hits)/float64(st.Requests), "pool-hit-rate")
		})
	}
}

// TestSeekThenWalkMatchesModel: over keys that are prefixes of one another,
// repeat, and share every length of prefix (a two-letter alphabet), with
// probes present and absent, Seek lands on the model's lower bound and the
// walk from there yields the rest — the key Seek puts together from the
// probe and one record is the key the following records build on.
func TestSeekThenWalkMatchesModel(t *testing.T) {
	r := util.NewRand(5)
	word := func() []byte {
		w := make([]byte, r.Intn(9))
		for i := range w {
			w[i] = "ab"[r.Intn(2)]
		}
		return w
	}
	var kvs []KV
	for i := 0; i < 1500; i++ {
		kvs = append(kvs, KV{Key: word()})
	}
	sort.SliceStable(kvs, func(i, j int) bool { return bytes.Compare(kvs[i].Key, kvs[j].Key) < 0 })
	for i := range kvs {
		kvs[i].Body = []byte(fmt.Sprintf("%04d-%s", i, bytes.Repeat([]byte{'x'}, r.Intn(40))))
	}
	e := newEnv(64)
	seg, err := Build(e.pool, e.file, 1, kvs, 0, 0, BuildOptions{})
	if err != nil || seg.NumLeaves < 4 {
		t.Fatalf("%d leaves, %v", seg.NumLeaves, err)
	}
	var it Iterator
	for probe := 0; probe < 600; probe++ {
		key := word()
		want := sort.Search(len(kvs), func(i int) bool { return bytes.Compare(kvs[i].Key, key) >= 0 })
		it.Seek(seg, key)
		for n := 0; n < 70 && want < len(kvs); n, want = n+1, want+1 { // across a leaf boundary
			if !it.Valid() || !bytes.Equal(it.Record().Key, kvs[want].Key) || !bytes.Equal(it.Record().Body, kvs[want].Body) {
				t.Fatalf("seek %q, %d records on: valid %v at %q %q, want %q %q", key, n, it.Valid(), it.Record().Key, it.Record().Body, kvs[want].Key, kvs[want].Body)
			}
			it.Next()
		}
		if want == len(kvs) && it.Valid() {
			t.Fatalf("seek %q: valid past the last record", key)
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
	}
}

// indexKVs returns n sorted records of the TPC-C index shape: 16-byte keys
// that share a few leading bytes with their neighbours and 24-byte bodies,
// about 180 to a leaf.
func indexKVs(seed uint64, n int) []KV {
	r := util.NewRand(seed)
	kvs := make([]KV, n)
	for i := range kvs {
		body := make([]byte, 24)
		r.Letters(body)
		kvs[i] = KV{Key: []byte(fmt.Sprintf("%016x", r.Uint64())), Body: body}
	}
	sort.Slice(kvs, func(i, j int) bool { return bytes.Compare(kvs[i].Key, kvs[j].Key) < 0 })
	return kvs
}

// TestSeekLandsOnFirstVersion: one key's 3R versions run past two restart
// slots — which then hold the key itself — and across a leaf boundary. A
// seek to the key lands on its first version and walks all of them in order;
// a seek past it lands on the record after the last.
func TestSeekLandsOnFirstVersion(t *testing.T) {
	var kvs []KV
	filler := func(p string, i int) KV {
		return KV{Key: []byte(fmt.Sprintf("%s%03d", p, i)), Body: bytes.Repeat([]byte{'f'}, 100)}
	}
	for i := 0; i < 40; i++ {
		kvs = append(kvs, filler("a", i))
	}
	hot := []byte("hot")
	for v := 0; v < 3*restartEvery; v++ {
		kvs = append(kvs, KV{Key: hot, Body: []byte(fmt.Sprintf("%03d%s", v, bytes.Repeat([]byte{'v'}, 97)))})
	}
	for i := 0; i < 40; i++ {
		kvs = append(kvs, filler("z", i))
	}
	e := newEnv(16)
	seg, err := Build(e.pool, e.file, 1, kvs, 0, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var it Iterator
	restarts, leaves := 0, map[int]bool{}
	it.Seek(seg, hot)
	for v := 0; v < 3*restartEvery; v++ {
		if !it.Valid() || !bytes.Equal(it.Record().Key, hot) || !bytes.Equal(it.Record().Body, kvs[40+v].Body) {
			t.Fatalf("version %d: valid %v on %q %.3q", v, it.Valid(), it.Record().Key, it.Record().Body)
		}
		if v > 0 && it.cur.slot > 0 && it.cur.slot%restartEvery == 0 {
			restarts++
		}
		leaves[it.leaf] = true
		it.Next()
	}
	if restarts < 2 || len(leaves) < 2 {
		t.Fatalf("the versions cross %d restart slots inside a leaf and %d leaves; want 2 and 2", restarts, len(leaves))
	}
	if !it.Valid() || !bytes.Equal(it.Record().Key, []byte("z000")) {
		t.Fatalf("after the versions: %q", it.Record().Key)
	}
	if it.Seek(seg, []byte("hot\x00")); !it.Valid() || !bytes.Equal(it.Record().Key, []byte("z000")) {
		t.Fatalf("seek past the versions: %q", it.Record().Key)
	}
}

// TestSeekSkipsOtherGroups: in a leaf of ~180 index records, every record
// that is neither a restart record nor in the probe's restart group — the
// slots from the last restart strictly below the probe up to the next — is
// made undecodable. Every probe, present or absent, still seeks to its lower
// bound: a seek reads only the restart records and its own group.
func TestSeekSkipsOtherGroups(t *testing.T) {
	img := leafImage(t, indexKVs(3, 400), 0)
	var c leafCursor
	c.reset(page.Wrap(img))
	if c.n < 5*restartEvery {
		t.Fatalf("%d records in the leaf", c.n)
	}
	var keys [][]byte
	for {
		ok, err := c.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		keys = append(keys, bytes.Clone(c.key))
	}
	probes := [][]byte{[]byte("!"), []byte("~")}
	for _, k := range keys {
		probes = append(probes, k, append(bytes.Clone(k), 0))
	}
	smashed := make([]byte, len(img))
	for _, probe := range probes {
		group := 0 // the last restart slot whose key is strictly below probe
		for s := restartEvery; s < len(keys) && bytes.Compare(keys[s], probe) < 0; s += restartEvery {
			group = s
		}
		copy(smashed, img)
		pg := page.Wrap(smashed)
		for s := range keys {
			if s%restartEvery != 0 && (s < group || s >= group+restartEvery) {
				rec := pg.Get(s)
				for i := range rec {
					rec[i] = 0x80 // a varint that does not end
				}
			}
		}
		want := sort.Search(len(keys), func(i int) bool { return bytes.Compare(keys[i], probe) >= 0 })
		c.reset(pg)
		ok, err := c.seek(probe)
		if err != nil || ok != (want < len(keys)) || (ok && (c.slot != want || !bytes.Equal(c.key, keys[want]))) {
			t.Fatalf("seek %q: ok %v in slot %d on %q, %v; want slot %d", probe, ok, c.slot, c.key, err, want)
		}
	}
}

// TestNextOnUnpositionedIterator: Next on an iterator that was never
// positioned, or was closed, is a no-op that leaves it invalid.
func TestNextOnUnpositionedIterator(t *testing.T) {
	var it Iterator
	if it.Next(); it.Valid() || it.Err() != nil {
		t.Fatalf("zero iterator after Next: valid=%v err=%v", it.Valid(), it.Err())
	}
	e := newEnv(16)
	seg, err := Build(e.pool, e.file, 1, randomKVs(1, 50, 10, 1), 0, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if it.Seek(seg, nil); !it.Valid() {
		t.Fatal(it.Err())
	}
	it.Close()
	if it.Next(); it.Valid() || it.Err() != nil {
		t.Fatalf("closed iterator after Next: valid=%v err=%v", it.Valid(), it.Err())
	}
}
