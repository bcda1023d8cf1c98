package heap

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"mvpbt/internal/buffer"
	"mvpbt/internal/page"
	"mvpbt/internal/sfile"
	"mvpbt/internal/simclock"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
)

type env struct {
	dev  *ssd.Device
	pool *buffer.Pool
	mgr  *txn.Manager
	fm   *sfile.Manager
}

func newEnv(frames int) *env {
	dev := ssd.New(simclock.New(), ssd.IntelP3600)
	return &env{
		dev:  dev,
		pool: buffer.New(frames),
		mgr:  txn.NewManager(),
		fm:   sfile.NewManager(dev),
	}
}

func (e *env) hot() *HotHeap {
	return NewHotHeap(e.pool, e.fm.Create("hot", sfile.ClassTable), e.mgr)
}

func (e *env) sias() *SiasHeap {
	return NewSiasHeap(e.pool, e.fm.Create("sias", sfile.ClassTable), e.mgr)
}

// commit runs fn inside a committed transaction and returns it.
func (e *env) commit(fn func(tx *txn.Tx)) *txn.Tx {
	tx := e.mgr.Begin()
	fn(tx)
	e.mgr.Commit(tx)
	return tx
}

func heapsUnderTest(e *env) map[string]Heap {
	return map[string]Heap{"hot": e.hot(), "sias": e.sias()}
}

// readVisible is h.Visible with nil for no visible version.
func readVisible(h Heap, tx *txn.Tx, candidate storage.RecordID) (*VisibleVersion, error) {
	v, ok, err := h.Visible(tx, candidate)
	if !ok {
		return nil, err
	}
	return &v, err
}

func TestInsertAndReadVisible(t *testing.T) {
	e := newEnv(64)
	for name, h := range heapsUnderTest(e) {
		t.Run(name, func(t *testing.T) {
			var rid storage.RecordID
			e.commit(func(tx *txn.Tx) {
				var err error
				rid, err = h.Insert(tx, 1, []byte("v0"))
				if err != nil {
					t.Fatal(err)
				}
			})
			r := e.mgr.Begin()
			defer e.mgr.Commit(r)
			vv, err := readVisible(h, r, rid)
			if err != nil {
				t.Fatal(err)
			}
			if vv == nil || !bytes.Equal(vv.Data, []byte("v0")) {
				t.Fatalf("got %+v", vv)
			}
			if vv.VID != 1 {
				t.Fatalf("vid=%d want 1", vv.VID)
			}
		})
	}
}

func TestUncommittedInvisible(t *testing.T) {
	e := newEnv(64)
	for name, h := range heapsUnderTest(e) {
		t.Run(name, func(t *testing.T) {
			w := e.mgr.Begin()
			rid, err := h.Insert(w, 2, []byte("dirty"))
			if err != nil {
				t.Fatal(err)
			}
			r := e.mgr.Begin()
			vv, _ := readVisible(h, r, rid)
			if vv != nil {
				t.Fatal("uncommitted version visible to other tx")
			}
			// But visible to its own transaction.
			own, _ := readVisible(h, w, rid)
			if own == nil {
				t.Fatal("own write invisible")
			}
			e.mgr.Commit(w)
			e.mgr.Commit(r)
		})
	}
}

func TestAbortedInvisible(t *testing.T) {
	e := newEnv(64)
	for name, h := range heapsUnderTest(e) {
		t.Run(name, func(t *testing.T) {
			w := e.mgr.Begin()
			rid, _ := h.Insert(w, 3, []byte("doomed"))
			e.mgr.Abort(w)
			r := e.mgr.Begin()
			defer e.mgr.Commit(r)
			if vv, _ := readVisible(h, r, rid); vv != nil {
				t.Fatal("aborted insert visible")
			}
		})
	}
}

func TestUpdateChainSnapshots(t *testing.T) {
	// The Figure 1 scenario: a long-running reader keeps seeing t.v0 while
	// updaters produce v1..v3.
	e := newEnv(64)
	for name, h := range heapsUnderTest(e) {
		t.Run(name, func(t *testing.T) {
			var rid storage.RecordID
			e.commit(func(tx *txn.Tx) { rid, _ = h.Insert(tx, 7, []byte("v0")) })
			long := e.mgr.Begin() // long-running reader

			cur := rid
			for i := 1; i <= 3; i++ {
				tx := e.mgr.Begin()
				res, err := h.Update(tx, cur, 7, []byte(fmt.Sprintf("v%d", i)), true)
				if err != nil {
					t.Fatal(err)
				}
				e.mgr.Commit(tx)
				if res.NewRID.Valid() {
					cur = res.NewRID
				}
			}

			vv, err := readVisible(h, long, rid)
			if err != nil {
				t.Fatal(err)
			}
			if vv == nil || !bytes.Equal(vv.Data, []byte("v0")) {
				t.Fatalf("long reader sees %+v, want v0", vv)
			}

			fresh := e.mgr.Begin()
			vv2, _ := readVisible(h, fresh, cur)
			if vv2 == nil || !bytes.Equal(vv2.Data, []byte("v3")) {
				t.Fatalf("fresh reader sees %+v, want v3", vv2)
			}
			e.mgr.Commit(long)
			e.mgr.Commit(fresh)
		})
	}
}

func TestDeleteMakesInvisible(t *testing.T) {
	e := newEnv(64)
	for name, h := range heapsUnderTest(e) {
		t.Run(name, func(t *testing.T) {
			var rid storage.RecordID
			e.commit(func(tx *txn.Tx) { rid, _ = h.Insert(tx, 9, []byte("x")) })
			before := e.mgr.Begin() // snapshot before the delete
			var del UpdateResult
			e.commit(func(tx *txn.Tx) {
				var err error
				del, err = h.Delete(tx, rid, 9)
				if err != nil {
					t.Fatal(err)
				}
			})
			after := e.mgr.Begin()
			entry := rid
			if del.NewRID.Valid() {
				entry = del.NewRID
			}
			if vv, _ := readVisible(h, after, entry); vv != nil {
				t.Fatal("deleted tuple visible to later snapshot")
			}
			if vv, _ := readVisible(h, before, rid); vv == nil || !bytes.Equal(vv.Data, []byte("x")) {
				t.Fatal("pre-delete snapshot lost the tuple")
			}
			e.mgr.Commit(before)
			e.mgr.Commit(after)
		})
	}
}

func TestWriteWriteConflict(t *testing.T) {
	e := newEnv(64)
	for name, h := range heapsUnderTest(e) {
		t.Run(name, func(t *testing.T) {
			var rid storage.RecordID
			e.commit(func(tx *txn.Tx) { rid, _ = h.Insert(tx, 11, []byte("base")) })
			t1 := e.mgr.Begin()
			t2 := e.mgr.Begin()
			if _, err := h.Update(t1, rid, 11, []byte("a"), true); err != nil {
				t.Fatal(err)
			}
			if _, err := h.Update(t2, rid, 11, []byte("b"), true); err != ErrWriteConflict {
				t.Fatalf("want ErrWriteConflict, got %v", err)
			}
			e.mgr.Commit(t1)
			e.mgr.Abort(t2)
		})
	}
}

func TestUpdateAfterAbortSucceeds(t *testing.T) {
	e := newEnv(64)
	for name, h := range heapsUnderTest(e) {
		t.Run(name, func(t *testing.T) {
			var rid storage.RecordID
			e.commit(func(tx *txn.Tx) { rid, _ = h.Insert(tx, 13, []byte("base")) })
			t1 := e.mgr.Begin()
			if _, err := h.Update(t1, rid, 13, []byte("doomed"), true); err != nil {
				t.Fatal(err)
			}
			e.mgr.Abort(t1)
			var res UpdateResult
			e.commit(func(tx *txn.Tx) {
				var err error
				res, err = h.Update(tx, rid, 13, []byte("final"), true)
				if err != nil {
					t.Fatalf("update after abort: %v", err)
				}
			})
			r := e.mgr.Begin()
			defer e.mgr.Commit(r)
			entry := rid
			if res.NewRID.Valid() {
				entry = res.NewRID
			}
			vv, _ := readVisible(h, r, entry)
			if vv == nil || !bytes.Equal(vv.Data, []byte("final")) {
				t.Fatalf("got %+v want final", vv)
			}
		})
	}
}

func TestVersionCodecRoundTrip(t *testing.T) {
	v := Version{
		Tombstone:   true,
		SegmentRoot: true,
		TCreate:     12345,
		TInvalidate: 67890,
		Next:        storage.RecordID{Page: storage.NewPageID(3, 99), Slot: 7},
		VID:         424242,
		Data:        []byte("payload"),
	}
	got, err := decodeVersion(encodeVersion(nil, &v))
	if err != nil || got.Tombstone != v.Tombstone || got.SegmentRoot != v.SegmentRoot ||
		got.TCreate != v.TCreate || got.TInvalidate != v.TInvalidate ||
		got.Next != v.Next || got.VID != v.VID || !bytes.Equal(got.Data, v.Data) {
		t.Fatalf("round trip mismatch: %+v vs %+v (%v)", got, v, err)
	}
}

func TestHotUpdateStaysOnPage(t *testing.T) {
	e := newEnv(64)
	h := e.hot()
	var rid storage.RecordID
	e.commit(func(tx *txn.Tx) { rid, _ = h.Insert(tx, 1, []byte("small")) })
	var res UpdateResult
	e.commit(func(tx *txn.Tx) {
		var err error
		res, err = h.Update(tx, rid, 1, []byte("small2"), true)
		if err != nil {
			t.Fatal(err)
		}
	})
	if res.NeedsIndexUpdate {
		t.Fatal("HOT update should not require index maintenance")
	}
	if res.NewRID.Page != rid.Page {
		t.Fatal("HOT successor left the page")
	}
}

func TestHotNonKeyUpdateOverflowsToNewSegment(t *testing.T) {
	e := newEnv(256)
	h := e.hot()
	big := make([]byte, 3000)
	var rid storage.RecordID
	e.commit(func(tx *txn.Tx) { rid, _ = h.Insert(tx, 1, big) })
	// Two updates fit (3 versions ≈ 9KB > 8KB, so the 2nd or 3rd spills).
	cur := rid
	spilled := false
	for i := 0; i < 3; i++ {
		e.commit(func(tx *txn.Tx) {
			res, err := h.Update(tx, cur, 1, big, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.NeedsIndexUpdate {
				spilled = true
			}
			cur = res.NewRID
		})
		if spilled {
			break
		}
	}
	if !spilled {
		t.Fatal("page-overflow update never became non-HOT")
	}
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	vv, _ := readVisible(h, r, cur)
	if vv == nil {
		t.Fatal("post-spill version invisible via its own entry")
	}
}

func TestHotKeyUpdateSegmentsIsolated(t *testing.T) {
	// After a non-HOT (key) update, the old entry must NOT return the new
	// version — it belongs to the new index entry.
	e := newEnv(64)
	h := e.hot()
	var rid storage.RecordID
	e.commit(func(tx *txn.Tx) { rid, _ = h.Insert(tx, 1, []byte("old-key")) })
	var res UpdateResult
	e.commit(func(tx *txn.Tx) {
		var err error
		res, err = h.Update(tx, rid, 1, []byte("new-key"), false) // key update: not HOT-eligible
		if err != nil {
			t.Fatal(err)
		}
	})
	if !res.NeedsIndexUpdate {
		t.Fatal("key update must require index maintenance")
	}
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	if vv, _ := readVisible(h, r, rid); vv != nil {
		t.Fatalf("old entry leaked new segment version: %+v", vv)
	}
	if vv, _ := readVisible(h, r, res.NewRID); vv == nil {
		t.Fatal("new entry cannot see new version")
	}
}

func TestSiasAppendSequentialWrites(t *testing.T) {
	e := newEnv(1024)
	h := e.sias()
	payload := make([]byte, 200)
	e.commit(func(tx *txn.Tx) {
		for i := 0; i < 2000; i++ {
			if _, err := h.Insert(tx, uint64(i+1), payload); err != nil {
				t.Fatal(err)
			}
		}
	})
	e.pool.FlushAll()
	s := e.dev.Stats()
	if s.Writes == 0 {
		t.Fatal("no writes reached the device")
	}
	if s.SeqWrites < s.RandWrites {
		t.Fatalf("SIAS writes not predominantly sequential: seq=%d rand=%d", s.SeqWrites, s.RandWrites)
	}
}

// TestSiasTablesAppendInRuns: several SIAS tables appending at once share the
// pool's seal queue, so their full tails reach the device an extent's worth at
// a time in page order — a run per table, not one random write per page —
// and every sealed page is on the device before sfile.ExtentPages further
// seals.
func TestSiasTablesAppendInRuns(t *testing.T) {
	const tables = 5
	e := newEnv(1024)
	e.dev.SetTracing(true)
	heaps := make([]*SiasHeap, tables)
	tails := make([]storage.PageID, tables)
	for i := range heaps {
		heaps[i] = NewSiasHeap(e.pool, e.fm.Create(fmt.Sprintf("t%d", i), sfile.ClassTable), e.mgr)
	}
	type sealed struct {
		h  *SiasHeap
		no uint64
	}
	var seals []sealed
	rng := rand.New(rand.NewPCG(1, 2))
	payload := make([]byte, 300)
	buf := make([]byte, storage.PageSize)
	e.commit(func(tx *txn.Tx) {
		for v := uint64(1); len(seals) < 12*sfile.ExtentPages; v++ {
			i := rng.IntN(tables)
			rid, err := heaps[i].Insert(tx, v, payload)
			if err != nil {
				t.Fatal(err)
			}
			if tails[i].Valid() && rid.Page != tails[i] {
				seals = append(seals, sealed{heaps[i], tails[i].PageNo()})
				if n := len(seals) - sfile.ExtentPages; n >= 0 {
					s := seals[n]
					if err := s.h.File().ReadPage(s.no, buf); err != nil || page.Wrap(buf).NumSlots() == 0 {
						t.Fatalf("seal %d not on the device after %d more: %v", n, sfile.ExtentPages-1, err)
					}
				}
			}
			tails[i] = rid.Page
		}
	})
	var writes, seq int
	for _, te := range e.dev.Trace() {
		if te.Op == ssd.OpWrite {
			writes++
			if te.Seq {
				seq++
			}
		}
	}
	if writes < len(seals)-sfile.ExtentPages || float64(seq) < 0.7*float64(writes) {
		t.Fatalf("%d tails sealed, %d written, %d of them sequential: want at least %d written, 0.7 sequential",
			len(seals), writes, seq, len(seals)-sfile.ExtentPages)
	}
}

func TestSiasEntryPointMovesOnUpdate(t *testing.T) {
	e := newEnv(64)
	h := e.sias()
	var rid storage.RecordID
	e.commit(func(tx *txn.Tx) { rid, _ = h.Insert(tx, 5, []byte("v0")) })
	ep, ok := h.vids.Get(5)
	if !ok || ep != rid {
		t.Fatal("entry point not set on insert")
	}
	var res UpdateResult
	e.commit(func(tx *txn.Tx) { res, _ = h.Update(tx, rid, 5, []byte("v1"), true) })
	if !res.NeedsIndexUpdate {
		t.Fatal("SIAS update must always require index maintenance")
	}
	ep, _ = h.vids.Get(5)
	if ep != res.NewRID {
		t.Fatal("entry point did not move to new version")
	}
}

func TestSiasReadVisibleFromStaleCandidate(t *testing.T) {
	// A version-oblivious index hands the heap an OLD version's rid; the
	// visibility check must still find the NEWEST visible version via the
	// indirection layer.
	e := newEnv(64)
	h := e.sias()
	var rid storage.RecordID
	e.commit(func(tx *txn.Tx) { rid, _ = h.Insert(tx, 5, []byte("v0")) })
	e.commit(func(tx *txn.Tx) { _, _ = h.Update(tx, rid, 5, []byte("v1"), true) })
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	vv, _ := readVisible(h, r, rid) // stale candidate
	if vv == nil || !bytes.Equal(vv.Data, []byte("v1")) {
		t.Fatalf("stale candidate resolved to %+v, want v1", vv)
	}
}

func TestSiasOnePointInvalidationNoInPlaceWrites(t *testing.T) {
	// After the initial insert is flushed, updates must never dirty old
	// pages (one-point invalidation writes nothing to the predecessor).
	e := newEnv(64)
	h := e.sias()
	var rid storage.RecordID
	e.commit(func(tx *txn.Tx) { rid, _ = h.Insert(tx, 5, []byte("v0")) })
	e.pool.FlushAll()
	cur := rid
	filler := make([]byte, 500)
	e.commit(func(tx *txn.Tx) {
		// enough updates to fill several pages
		for i := 0; i < 50; i++ {
			res, err := h.Update(tx, cur, 5, filler, true)
			if err != nil {
				t.Fatal(err)
			}
			cur = res.NewRID
		}
	})
	e.pool.FlushAll()
	s := e.dev.Stats()
	if s.RandWrites > 2 { // first page write of the file is always "random"
		t.Fatalf("one-point invalidation should not cause random writes: %+v", s)
	}
}

func TestHotVacuumCollapsesChains(t *testing.T) {
	e := newEnv(256)
	h := e.hot()
	var rid storage.RecordID
	e.commit(func(tx *txn.Tx) { rid, _ = h.Insert(tx, 1, []byte("v0")) })
	cur := rid
	for i := 1; i <= 10; i++ {
		e.commit(func(tx *txn.Tx) {
			res, err := h.Update(tx, cur, 1, []byte(fmt.Sprintf("v%02d", i)), true)
			if err != nil {
				t.Fatal(err)
			}
			cur = res.NewRID
		})
	}
	removed, err := h.Vacuum(e.mgr.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("vacuum removed nothing from a 11-version chain")
	}
	// The segment root rid must still resolve to the newest version.
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	vv, _ := readVisible(h, r, rid)
	if vv == nil || !bytes.Equal(vv.Data, []byte("v10")) {
		t.Fatalf("after vacuum root resolves to %+v, want v10", vv)
	}
}

func TestHotVacuumRespectsHorizon(t *testing.T) {
	e := newEnv(256)
	h := e.hot()
	var rid storage.RecordID
	e.commit(func(tx *txn.Tx) { rid, _ = h.Insert(tx, 1, []byte("v0")) })
	long := e.mgr.Begin() // pins the horizon
	cur := rid
	for i := 1; i <= 5; i++ {
		e.commit(func(tx *txn.Tx) {
			res, _ := h.Update(tx, cur, 1, []byte(fmt.Sprintf("w%d", i)), true)
			cur = res.NewRID
		})
	}
	if _, err := h.Vacuum(e.mgr.Horizon()); err != nil {
		t.Fatal(err)
	}
	vv, _ := readVisible(h, long, rid)
	if vv == nil || !bytes.Equal(vv.Data, []byte("v0")) {
		t.Fatalf("vacuum destroyed version visible to long reader: %+v", vv)
	}
	e.mgr.Commit(long)
}

func TestSiasVacuumTruncatesChains(t *testing.T) {
	e := newEnv(256)
	h := e.sias()
	var rid storage.RecordID
	e.commit(func(tx *txn.Tx) { rid, _ = h.Insert(tx, 1, []byte("v0")) })
	cur := rid
	for i := 1; i <= 10; i++ {
		e.commit(func(tx *txn.Tx) {
			res, _ := h.Update(tx, cur, 1, []byte(fmt.Sprintf("v%02d", i)), true)
			cur = res.NewRID
		})
	}
	removed, err := h.Vacuum(e.mgr.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	if removed < 9 {
		t.Fatalf("vacuum removed %d, want >=9", removed)
	}
	r := e.mgr.Begin()
	defer e.mgr.Commit(r)
	vv, ok, _ := h.VisibleByVID(r, 1)
	if !ok || !bytes.Equal(vv.Data, []byte("v10")) {
		t.Fatalf("after vacuum chain resolves to %+v, want v10", vv)
	}
}

func TestManyTuplesAcrossEvictions(t *testing.T) {
	// Small pool forces heavy eviction traffic; everything must survive.
	e := newEnv(16)
	for name, h := range heapsUnderTest(e) {
		t.Run(name, func(t *testing.T) {
			const n = 500
			rids := make([]storage.RecordID, n)
			e.commit(func(tx *txn.Tx) {
				for i := 0; i < n; i++ {
					var err error
					rids[i], err = h.Insert(tx, uint64(i+1000), []byte(fmt.Sprintf("tuple-%d", i)))
					if err != nil {
						t.Fatal(err)
					}
				}
			})
			r := e.mgr.Begin()
			defer e.mgr.Commit(r)
			for i := 0; i < n; i += 37 {
				vv, err := readVisible(h, r, rids[i])
				if err != nil {
					t.Fatal(err)
				}
				if vv == nil || !bytes.Equal(vv.Data, []byte(fmt.Sprintf("tuple-%d", i))) {
					t.Fatalf("tuple %d lost: %+v", i, vv)
				}
			}
		})
	}
}

// ScanVersions must stream exactly the versions a version-oblivious index
// holds entries for: HOT emits one record per chain-segment root (a HOT
// successor shares its root's entry), SIAS one per non-tombstone version.
func TestScanVersionsEmitsIndexEntryPoints(t *testing.T) {
	e := newEnv(64)
	for name, h := range heapsUnderTest(e) {
		t.Run(name, func(t *testing.T) {
			var rids []storage.RecordID
			e.commit(func(tx *txn.Tx) {
				for i := 0; i < 3; i++ {
					rid, err := h.Insert(tx, uint64(i), []byte(fmt.Sprintf("row-%d", i)))
					if err != nil {
						t.Fatal(err)
					}
					rids = append(rids, rid)
				}
			})
			// Tuple 0: HOT-eligible update (same segment under HOT, new
			// version under SIAS). Tuple 1: deleted.
			e.commit(func(tx *txn.Tx) {
				if _, err := h.Update(tx, rids[0], 0, []byte("row-0b"), true); err != nil {
					t.Fatal(err)
				}
				if _, err := h.Delete(tx, rids[1], 1); err != nil {
					t.Fatal(err)
				}
			})
			got := map[string]int{}
			n := 0
			if err := h.ScanVersions(func(rid storage.RecordID, v Version) bool {
				got[string(v.Data)]++
				n++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			switch name {
			case "hot":
				// Three inserts made three segment roots; the HOT update and
				// the in-place delete add none.
				if n != 3 || got["row-0"] != 1 || got["row-1"] != 1 || got["row-2"] != 1 {
					t.Fatalf("hot entry-points %v (n=%d), want the 3 roots", got, n)
				}
			case "sias":
				// Every non-tombstone version: 3 inserts + 1 update version.
				if n != 4 || got["row-0b"] != 1 {
					t.Fatalf("sias versions %v (n=%d), want 4 incl. row-0b", got, n)
				}
			}
		})
	}
}

// After vacuum prunes a HOT chain, ScanVersions resolves redirect stubs to
// the surviving payload while reporting the stub's (stable) rid.
func TestScanVersionsResolvesRedirects(t *testing.T) {
	e := newEnv(64)
	h := e.hot()
	var rid storage.RecordID
	e.commit(func(tx *txn.Tx) {
		r, err := h.Insert(tx, 7, []byte("old"))
		if err != nil {
			t.Fatal(err)
		}
		rid = r
	})
	e.commit(func(tx *txn.Tx) {
		if _, err := h.Update(tx, rid, 7, []byte("new"), true); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := h.Vacuum(e.mgr.Horizon()); err != nil {
		t.Fatal(err)
	}
	found := false
	if err := h.ScanVersions(func(got storage.RecordID, v Version) bool {
		if got == rid {
			found = true
			if string(v.Data) != "new" {
				t.Fatalf("redirect resolved to %q, want new", v.Data)
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("pruned root's rid missing from ScanVersions")
	}
}
