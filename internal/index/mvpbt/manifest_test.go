package mvpbt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"mvpbt/internal/bloom"
	"mvpbt/internal/index"
	"mvpbt/internal/page"
	"mvpbt/internal/sfile"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
	"mvpbt/internal/util"
)

func TestManifestRoundTrip(t *testing.T) {
	e := newEnv(1024, 1<<24)
	tr := e.tree(Options{BloomBits: 10, PrefixLen: 4, Unique: true})
	cur := map[int]index.Ref{}
	for gen := 0; gen < 3; gen++ {
		e.commit(func(tx *txn.Tx) {
			for k := 0; k < 200; k++ {
				key := []byte(fmt.Sprintf("key-%04d", k))
				nr := e.ref()
				if p, ok := cur[k]; ok {
					tr.InsertReplacement(tx, key, nr, p.RID)
				} else {
					tr.InsertRegular(tx, key, nr)
				}
				cur[k] = nr
			}
		})
		if err := tr.EvictPN(); err != nil {
			t.Fatal(err)
		}
	}
	start, n, err := tr.SaveManifest()
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatal("manifest used no pages")
	}

	// "Reopen": a fresh tree over the SAME file and buffer pool, with the
	// same transaction manager (logical time continues).
	tr2 := New(e.pool, tr.file, e.pbuf, e.mgr, Options{BloomBits: 10, PrefixLen: 4, Unique: true})
	if err := tr2.LoadManifest(start, n); err != nil {
		t.Fatal(err)
	}
	if tr2.NumPartitions() != tr.NumPartitions() {
		t.Fatalf("partitions %d vs %d", tr2.NumPartitions(), tr.NumPartitions())
	}
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	for k := 0; k < 200; k += 11 {
		key := []byte(fmt.Sprintf("key-%04d", k))
		rids := lookupRIDs(t, tr2, r, key)
		if len(rids) != 1 || rids[0] != cur[k].RID {
			t.Fatalf("key %d wrong after reopen: %v want %v", k, rids, cur[k].RID)
		}
	}
	// Filters survived: lookups for absent keys must skip partitions.
	before := tr2.Stats().Bloom
	for i := 0; i < 100; i++ {
		lookupRIDs(t, tr2, r, []byte(fmt.Sprintf("nope-%04d", i)))
	}
	after := tr2.Stats().Bloom
	if after.Negatives-before.Negatives < 200 {
		t.Fatalf("rehydrated bloom filters not skipping: %+v", after)
	}
	// The reopened tree accepts new writes on top.
	e.commit(func(tx *txn.Tx) {
		tr2.InsertReplacement(tx, []byte("key-0000"), e.ref(), cur[0].RID)
	})
	if rids := lookupRIDs(t, tr2, r, []byte("key-0000")); len(rids) != 1 || rids[0] != cur[0].RID {
		t.Fatal("old snapshot disturbed by post-reopen write")
	}
}

func TestManifestRejectsGarbage(t *testing.T) {
	e := newEnv(256, 1<<22)
	tr := e.tree(Options{BloomBits: 10, PrefixLen: 4})
	reopen := func(start uint64, n int) error {
		return New(e.pool, tr.file, e.pbuf, e.mgr, Options{BloomBits: 10, PrefixLen: 4}).LoadManifest(start, n)
	}
	// Junk pages.
	start, _ := tr.file.AllocRun(1)
	junk := make([]byte, storage.PageSize)
	for i := range junk {
		junk[i] = byte(i * 13)
	}
	tr.file.WritePage(start, junk)
	if err := reopen(start, 1); err == nil {
		t.Fatal("garbage manifest accepted")
	}
	// A never-written page: all zeros pass a page checksum, not a manifest.
	start, _ = tr.file.AllocRun(1)
	if err := reopen(start, 1); !errors.Is(err, storage.ErrCorruptPage) {
		t.Fatalf("blank manifest page: %v", err)
	}

	e.commit(func(tx *txn.Tx) {
		for k := 0; k < 4000; k++ { // filters big enough for a two-page manifest
			tr.InsertRegular(tx, []byte(fmt.Sprintf("key-%04d", k)), e.ref())
		}
	})
	if err := tr.EvictPN(); err != nil {
		t.Fatal(err)
	}
	index := func(kind ssd.FaultKind, ops ...uint64) {
		e.dev.ArmFault(ssd.FaultRule{Kind: kind, Class: int(sfile.ClassIndex), Ops: ops, ByteOffset: 4000, BitMask: 0x10})
	}

	// A failed write: the error, and the run given back.
	live, pages := e.fm.LiveBytes(), tr.file.NumPages()
	index(ssd.FaultWriteErr, 2)
	if _, _, err := tr.SaveManifest(); !errors.Is(err, storage.ErrIOFault) {
		t.Fatalf("SaveManifest on a failing device: %v", err)
	}
	if e.fm.LiveBytes() != live {
		t.Fatalf("failed SaveManifest holds space: live %d -> %d", live, e.fm.LiveBytes())
	}
	if err := reopen(pages+sfile.ExtentPages-pages%sfile.ExtentPages, 2); !errors.Is(err, storage.ErrFreedPage) {
		t.Fatalf("loading the abandoned manifest: %v", err)
	}
	start, n, err := tr.SaveManifest()
	if err != nil || n != 2 {
		t.Fatalf("SaveManifest = %d pages, %v; want 2", n, err)
	}
	if err := reopen(start, n); err != nil {
		t.Fatal(err)
	}

	// A failed read.
	index(ssd.FaultReadErr, 2)
	if err := reopen(start, n); !errors.Is(err, storage.ErrIOFault) {
		t.Fatalf("LoadManifest on a failing device: %v", err)
	}

	// Rot: one flipped bit in a manifest page.
	index(ssd.FaultBitFlip, 2)
	if err := reopen(start, n); !errors.Is(err, storage.ErrCorruptPage) {
		t.Fatalf("manifest with a flipped bit: %v", err)
	}

	// A filter cut short inside an intact page (a one-page manifest, so that
	// the frame's length is the page's): the partition must not load
	// filterless.
	small := e.tree(Options{Name: "small", BloomBits: 10})
	e.commit(func(tx *txn.Tx) { small.InsertRegular(tx, []byte("k"), e.ref()) })
	if err := small.EvictPN(); err != nil {
		t.Fatal(err)
	}
	start, n, err = small.SaveManifest()
	if err != nil || n != 1 {
		t.Fatalf("SaveManifest = %d pages, %v; want 1", n, err)
	}
	buf := make([]byte, storage.PageSize)
	if err := small.file.ReadPage(start, buf); err != nil {
		t.Fatal(err)
	}
	p := page.Wrap(buf)
	framed := bytes.Clone(p.Get(0))
	filter := small.Partitions()[0].Filter.MarshalBinary()
	at := bytes.Index(framed, filter)
	if at < 0 {
		t.Fatal("the filter's encoding is not in the manifest page")
	}
	framed[at-1]--                                            // the filter's length prefix,
	framed = append(framed[:at], framed[at+1:]...)            // its first byte gone,
	binary.BigEndian.PutUint64(framed, uint64(len(framed)-8)) // and the frame still adds up
	clear(buf)
	p.Init()
	p.Insert(framed)
	page.StampChecksum(buf)
	if err := small.file.WritePage(start, buf); err != nil {
		t.Fatal(err)
	}
	if err := New(e.pool, small.file, e.pbuf, e.mgr, Options{}).LoadManifest(start, n); !errors.Is(err, bloom.ErrCorrupt) {
		t.Fatalf("manifest with a truncated filter: %v", err)
	}
}

// FuzzLoadManifest: whatever bytes an intact manifest page carries, loading it
// is an error or a partition list — never a panic past LoadManifest, and never
// an allocation sized by a count the bytes merely claim. The input is the
// page's record, not the page: the minimizer crawls on 8 KiB inputs.
//
//	go test -fuzz=FuzzLoadManifest -fuzztime=30s ./internal/index/mvpbt/
func FuzzLoadManifest(f *testing.F) {
	e := newEnv(16, 1<<22)
	tr := e.tree(Options{BloomBits: 4})
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("k"), e.ref()) })
	if err := tr.EvictPN(); err != nil {
		f.Fatal(err)
	}
	start, n, err := tr.SaveManifest()
	if err != nil || n != 1 {
		f.Fatalf("SaveManifest = %d pages, %v; want 1", n, err)
	}
	buf := make([]byte, storage.PageSize)
	if err := tr.file.ReadPage(start, buf); err != nil {
		f.Fatal(err)
	}
	framed := bytes.Clone(page.Wrap(buf).Get(0))
	f.Add(framed)
	f.Add(framed[:len(framed)/2])
	f.Add([]byte{})
	// A frame that adds up around a body claiming 2^24 partitions.
	claim := util.PutUvarint(util.PutUvarint(util.PutUvarint(nil, manifestMagic), 1), 1<<24)
	f.Add(append(util.EncodeUint64(nil, uint64(len(claim))), claim...))
	f.Fuzz(func(t *testing.T, rec []byte) {
		if len(rec) > page.MaxRecordLen {
			return
		}
		clear(buf)
		p := page.Wrap(buf)
		p.Init()
		p.Insert(rec)
		page.StampChecksum(buf)
		if err := tr.file.WritePage(start, buf); err != nil {
			t.Fatal(err)
		}
		tr2 := New(e.pool, tr.file, e.pbuf, e.mgr, Options{})
		if err := tr2.LoadManifest(start, 1); err != nil {
			return
		}
		for _, seg := range tr2.Partitions() {
			if seg == nil || seg.NumPages <= 0 {
				t.Fatalf("loaded %+v out of %x", seg, rec)
			}
		}
	})
}

func TestManifestOnNonEmptyTreeRejected(t *testing.T) {
	e := newEnv(256, 1<<22)
	tr := e.tree(Options{})
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("k"), e.ref()) })
	tr.EvictPN()
	start, n, err := tr.SaveManifest()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.LoadManifest(start, n); err == nil {
		t.Fatal("LoadManifest on a non-empty tree accepted")
	}
}
