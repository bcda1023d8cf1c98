package sfile

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"mvpbt/internal/simclock"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
)

func newMgr() *Manager {
	return NewManager(ssd.New(simclock.New(), ssd.IntelP3600))
}

func mustAllocPage(t *testing.T, f *File) uint64 {
	t.Helper()
	no, err := f.AllocPage()
	if err != nil {
		t.Fatalf("AllocPage(%q): %v", f.Name(), err)
	}
	return no
}

func mustAllocRun(t *testing.T, f *File, n int) uint64 {
	t.Helper()
	start, err := f.AllocRun(n)
	if err != nil {
		t.Fatalf("AllocRun(%q, %d): %v", f.Name(), n, err)
	}
	return start
}

func TestCreateAndIdentity(t *testing.T) {
	m := newMgr()
	f1 := m.Create("table-a", ClassTable)
	f2 := m.Create("index-a", ClassIndex)
	if f1.ID() == f2.ID() {
		t.Fatal("file ids collide")
	}
	if m.Lookup(f1.ID()) != f1 || m.Lookup(f2.ID()) != f2 {
		t.Fatal("lookup broken")
	}
	if f1.Class() != ClassTable || f2.Class() != ClassIndex {
		t.Fatal("class lost")
	}
	if !f1.PageID(0).Valid() {
		t.Fatal("page id of first page invalid")
	}
}

func TestPageRoundTrip(t *testing.T) {
	m := newMgr()
	f := m.Create("t", ClassTable)
	buf := make([]byte, storage.PageSize)
	for i := 0; i < 100; i++ {
		no := mustAllocPage(t, f)
		if no != uint64(i) {
			t.Fatalf("page numbers not dense: got %d want %d", no, i)
		}
		for j := range buf {
			buf[j] = byte(i)
		}
		f.WritePage(no, buf)
	}
	got := make([]byte, storage.PageSize)
	for i := 0; i < 100; i++ {
		f.ReadPage(uint64(i), got)
		if got[0] != byte(i) || got[storage.PageSize-1] != byte(i) {
			t.Fatalf("page %d content wrong", i)
		}
	}
}

func TestTwoFilesDoNotOverlap(t *testing.T) {
	m := newMgr()
	a := m.Create("a", ClassTable)
	b := m.Create("b", ClassTable)
	bufA := bytes.Repeat([]byte{0xAA}, storage.PageSize)
	bufB := bytes.Repeat([]byte{0xBB}, storage.PageSize)
	for i := 0; i < 2*ExtentPages; i++ {
		mustAllocPage(t, a)
		mustAllocPage(t, b)
		a.WritePage(uint64(i), bufA)
		b.WritePage(uint64(i), bufB)
	}
	got := make([]byte, storage.PageSize)
	for i := 0; i < 2*ExtentPages; i++ {
		a.ReadPage(uint64(i), got)
		if got[17] != 0xAA {
			t.Fatalf("file a page %d corrupted by file b", i)
		}
	}
}

func TestAllocRunPackedAndSequential(t *testing.T) {
	m := newMgr()
	f := m.Create("idx", ClassIndex)
	mustAllocPage(t, f) // leave the file mid-extent
	start := mustAllocRun(t, f, 100)
	if start != 1 {
		t.Fatalf("run start %d, want the page after the last (1)", start)
	}
	// Writing the run in order must be sequential on the device.
	dev := m.Device()
	dev.ResetStats()
	buf := make([]byte, storage.PageSize)
	for i := 0; i < 100; i++ {
		f.WritePage(start+uint64(i), buf)
	}
	s := dev.Stats()
	if s.SeqWrites < 95 {
		t.Fatalf("run write-out not sequential: seq=%d rand=%d", s.SeqWrites, s.RandWrites)
	}
}

func TestFreeRunRecyclesExtents(t *testing.T) {
	m := newMgr()
	f := m.Create("idx", ClassIndex)
	start := mustAllocRun(t, f, ExtentPages*3)
	if m.FreeExtents() != 0 {
		t.Fatal("free list should start empty")
	}
	f.FreeRun(start, ExtentPages*3)
	if m.FreeExtents() != 3 {
		t.Fatalf("freed %d extents, want 3", m.FreeExtents())
	}
	before := m.HighWaterBytes()
	g := m.Create("other", ClassTable)
	for i := 0; i < ExtentPages*3; i++ {
		mustAllocPage(t, g)
	}
	if m.HighWaterBytes() != before {
		t.Fatal("regular allocation did not reuse freed extents")
	}
}

func TestAccessFreedRunReturnsTypedError(t *testing.T) {
	m := newMgr()
	f := m.Create("idx", ClassIndex)
	start := mustAllocRun(t, f, ExtentPages)
	f.FreeRun(start, ExtentPages)
	buf := make([]byte, storage.PageSize)
	if err := f.ReadPage(start, buf); !errors.Is(err, storage.ErrFreedPage) {
		t.Fatalf("reading a freed page: got %v, want ErrFreedPage", err)
	}
	if err := f.WritePage(start, buf); !errors.Is(err, storage.ErrFreedPage) {
		t.Fatalf("writing a freed page: got %v, want ErrFreedPage", err)
	}
	// Never-allocated pages report the same typed error.
	if err := f.ReadPage(start+10*ExtentPages, buf); !errors.Is(err, storage.ErrFreedPage) {
		t.Fatalf("reading an unallocated page: got %v, want ErrFreedPage", err)
	}
}

// TestWriteSectors: a sector run lands at its in-page offset, costs the
// device exactly its own bytes and leaves the rest of the page and its
// neighbours alone; a range that is not whole sectors inside one page is
// refused before it reaches the device; a freed run reports the same typed
// error WritePage does.
func TestWriteSectors(t *testing.T) {
	m := newMgr()
	f := m.Create("log", ClassMeta)
	for i := 0; i < 3; i++ {
		no := mustAllocPage(t, f)
		if err := f.WritePage(no, bytes.Repeat([]byte{byte(0xA0 + i)}, storage.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	before := m.Device().Stats()
	run := bytes.Repeat([]byte{0x5C}, 3*ssd.SectorSize)
	if err := f.WriteSectors(1, 2*ssd.SectorSize, run, ssd.CauseOther); err != nil {
		t.Fatal(err)
	}
	if io := m.Device().Stats().Sub(before); io.Writes != 1 || io.BytesWritten != int64(len(run)) {
		t.Fatalf("sector run cost %d writes, %d B, want 1 write of %d B", io.Writes, io.BytesWritten, len(run))
	}
	buf := make([]byte, storage.PageSize)
	for no := uint64(0); no < 3; no++ {
		want := bytes.Repeat([]byte{byte(0xA0 + no)}, storage.PageSize)
		if no == 1 {
			copy(want[2*ssd.SectorSize:], run)
		}
		if err := f.ReadPage(no, buf); err != nil || !bytes.Equal(buf, want) {
			t.Fatalf("page %d after the sector run: err=%v, content differs", no, err)
		}
	}

	before = m.Device().Stats()
	for _, bad := range []struct {
		name     string
		off, len int
	}{
		{"offset off a sector boundary", 100, ssd.SectorSize},
		{"length not whole sectors", ssd.SectorSize, 700},
		{"run past the end of the page", storage.PageSize - ssd.SectorSize, 2 * ssd.SectorSize},
		{"offset past the page", storage.PageSize, ssd.SectorSize},
		{"negative offset", -ssd.SectorSize, ssd.SectorSize},
		{"empty run", 0, 0},
	} {
		if err := f.WriteSectors(1, bad.off, make([]byte, bad.len), ssd.CauseOther); err == nil {
			t.Errorf("%s: accepted", bad.name)
		}
	}
	if io := m.Device().Stats().Sub(before); io.Writes != 0 {
		t.Fatalf("%d refused ranges reached the device", io.Writes)
	}
	if err := f.WriteSectors(1, storage.PageSize-ssd.SectorSize, run[:ssd.SectorSize], ssd.CauseOther); err != nil {
		t.Fatalf("the page's last sector: %v", err)
	}

	g := m.Create("idx", ClassIndex)
	start := mustAllocRun(t, g, ExtentPages)
	g.FreeRun(start, ExtentPages)
	if err := g.WriteSectors(start, 0, run, ssd.CauseOther); !errors.Is(err, storage.ErrFreedPage) {
		t.Fatalf("sector run into a freed page: got %v, want ErrFreedPage", err)
	}
}

func TestClassifierScopesFaultsByFileClass(t *testing.T) {
	m := newMgr()
	tbl := m.Create("t", ClassTable)
	idx := m.Create("i", ClassIndex)
	tno, ino := mustAllocPage(t, tbl), mustAllocPage(t, idx)
	buf := make([]byte, storage.PageSize)
	m.Device().ArmFault(ssd.FaultRule{Kind: ssd.FaultWriteErr, Class: int(ClassIndex), Sticky: true})
	if err := tbl.WritePage(tno, buf); err != nil {
		t.Fatalf("table write should pass an index-scoped fault: %v", err)
	}
	if err := idx.WritePage(ino, buf); !errors.Is(err, storage.ErrIOFault) {
		t.Fatalf("index write should hit the index-scoped fault, got %v", err)
	}
	// Freed extents lose their class attribution.
	run := mustAllocRun(t, idx, ExtentPages)
	idx.FreeRun(run, ExtentPages)
	m.Device().DisarmAllFaults()
}

func TestPageIDComposition(t *testing.T) {
	m := newMgr()
	f := m.Create("x", ClassMeta)
	no := mustAllocPage(t, f)
	pid := f.PageID(no)
	if pid.File() != f.ID() || pid.PageNo() != no {
		t.Fatalf("PageID decomposition wrong: %v", pid)
	}
}

func TestLiveBytesAllocFreeAllocNoDoubleCount(t *testing.T) {
	m := newMgr()
	f := m.Create("idx", ClassIndex)
	start := mustAllocRun(t, f, ExtentPages*4)
	if got, want := m.LiveBytes(), int64(4*ExtentBytes); got != want {
		t.Fatalf("live after alloc: got %d want %d", got, want)
	}
	f.FreeRun(start, ExtentPages*4)
	if got := m.LiveBytes(); got != 0 {
		t.Fatalf("live after free: got %d want 0", got)
	}
	hw := m.HighWaterBytes()
	// Reuse the freed extents: live must be counted once, the high-water
	// mark must not move.
	g := m.Create("t", ClassTable)
	for i := 0; i < ExtentPages*4; i++ {
		mustAllocPage(t, g)
	}
	if got, want := m.LiveBytes(), int64(4*ExtentBytes); got != want {
		t.Fatalf("live after reuse: got %d want %d (double-counted?)", got, want)
	}
	if m.HighWaterBytes() != hw {
		t.Fatalf("high-water moved on reuse: %d -> %d", hw, m.HighWaterBytes())
	}
}

func TestCapacityBudgetReturnsErrNoSpace(t *testing.T) {
	m := newMgr()
	m.SetCapacity(2 * ExtentBytes)
	f := m.Create("t", ClassTable)
	for i := 0; i < 2*ExtentPages; i++ {
		mustAllocPage(t, f)
	}
	if _, err := f.AllocPage(); !errors.Is(err, storage.ErrNoSpace) {
		t.Fatalf("alloc past capacity: got %v, want ErrNoSpace", err)
	}
	before := f.NumPages()
	// Freeing space clears the condition.
	g := m.Create("idx", ClassIndex)
	if _, err := g.AllocRun(ExtentPages); !errors.Is(err, storage.ErrNoSpace) {
		t.Fatalf("run past capacity: got %v, want ErrNoSpace", err)
	}
	if f.NumPages() != before {
		t.Fatal("failed alloc changed file size")
	}
	m.SetCapacity(0)
	mustAllocPage(t, f)
}

func TestAllocRunRollbackOnMidRunFailure(t *testing.T) {
	m := newMgr()
	m.SetCapacity(3 * ExtentBytes)
	f := m.Create("idx", ClassIndex)
	mustAllocRun(t, f, ExtentPages) // one extent live
	pages := f.NumPages()
	// A 3-extent run cannot fit in the remaining 2-extent budget; the
	// whole run must roll back.
	if _, err := f.AllocRun(3 * ExtentPages); !errors.Is(err, storage.ErrNoSpace) {
		t.Fatalf("mid-run capacity failure: got %v, want ErrNoSpace", err)
	}
	if f.NumPages() != pages {
		t.Fatalf("failed run changed file size: %d -> %d", pages, f.NumPages())
	}
	if got, want := m.LiveBytes(), int64(ExtentBytes); got != want {
		t.Fatalf("failed run leaked live bytes: got %d want %d", got, want)
	}
	// The rolled-back extents are reusable.
	start := mustAllocRun(t, f, 2*ExtentPages)
	buf := make([]byte, storage.PageSize)
	if err := f.WritePage(start, buf); err != nil {
		t.Fatalf("write after rollback: %v", err)
	}
}

func TestInjectedNoSpaceFault(t *testing.T) {
	m := newMgr()
	f := m.Create("t", ClassTable)
	mustAllocPage(t, f)
	// The next extent allocation (the file's second extent) hits ENOSPC.
	m.Device().ArmFault(ssd.FaultRule{Kind: ssd.FaultNoSpace, Class: ssd.AnyClass, Ops: []uint64{1}})
	for i := 1; i < ExtentPages; i++ {
		mustAllocPage(t, f) // same extent: no allocation, no fault
	}
	if _, err := f.AllocPage(); !errors.Is(err, storage.ErrNoSpace) {
		t.Fatalf("injected ENOSPC: got %v, want ErrNoSpace", err)
	}
	// The schedule is exhausted; the retry succeeds and accounting held.
	mustAllocPage(t, f)
	if got, want := m.LiveBytes(), int64(2*ExtentBytes); got != want {
		t.Fatalf("live after injected fault: got %d want %d", got, want)
	}
	if c := m.Device().Stats().Faults; c.Injected[ssd.FaultNoSpace] != 1 {
		t.Fatalf("no-space fault counter: got %d want 1", c.Injected[ssd.FaultNoSpace])
	}
}

func TestSpaceNotifierFiresOutsideLocks(t *testing.T) {
	m := newMgr()
	var calls int
	var last int64
	m.SetSpaceNotifier(func(live int64) {
		// Re-entering the manager must be safe (no locks held).
		_ = m.LiveBytes()
		_ = m.HighWaterBytes()
		calls++
		last = live
	})
	f := m.Create("t", ClassTable)
	mustAllocPage(t, f)
	if calls != 1 || last != ExtentBytes {
		t.Fatalf("after alloc: calls=%d last=%d", calls, last)
	}
	start := mustAllocRun(t, f, ExtentPages)
	if calls != 2 {
		t.Fatalf("after run: calls=%d", calls)
	}
	f.FreeRun(start, ExtentPages)
	if calls != 3 || last != ExtentBytes {
		t.Fatalf("after free: calls=%d last=%d", calls, last)
	}
	m.SetSpaceNotifier(nil)
	mustAllocPage(t, f)
	if calls != 3 {
		t.Fatal("notifier fired after removal")
	}
}

// TestReadPages: one device read for a page run inside an extent; a run that
// crosses an extent boundary (not contiguous on the device) is refused.
func TestReadPages(t *testing.T) {
	m := newMgr()
	other := m.Create("other", ClassTable)
	f := m.Create("idx", ClassIndex)
	start := mustAllocRun(t, f, ExtentPages)
	mustAllocPage(t, other) // the file's two extents are not adjacent
	mustAllocRun(t, f, ExtentPages)
	page := make([]byte, storage.PageSize)
	for p := 0; p < 2*ExtentPages; p++ {
		page[0], page[storage.PageSize-1] = byte(p), byte(p)
		if err := f.WritePage(start+uint64(p), page); err != nil {
			t.Fatal(err)
		}
	}
	m.Device().ResetStats()
	pages := make([][]byte, 5)
	for i := range pages {
		pages[i] = make([]byte, storage.PageSize)
	}
	if err := f.ReadPages(start+ExtentPages-5, pages); err != nil {
		t.Fatal(err)
	}
	for i, p := range pages {
		if p[0] != byte(ExtentPages-5+i) || p[storage.PageSize-1] != p[0] {
			t.Fatalf("page %d of the run holds %d", i, p[0])
		}
	}
	if st := m.Device().Stats(); st.Reads != 1 || st.BytesRead != 5*storage.PageSize {
		t.Fatalf("%d device reads of %d bytes, want 1 of %d", st.Reads, st.BytesRead, 5*storage.PageSize)
	}
	if err := f.ReadPages(start+ExtentPages-2, pages); err == nil {
		t.Error("ReadPages across an extent boundary accepted")
	}
	if err := f.ReadPages(start, nil); err == nil {
		t.Error("ReadPages of no pages accepted")
	}
	if st := m.Device().Stats(); st.Reads != 1 {
		t.Fatalf("refused runs reached the device: %d reads", st.Reads)
	}
	f.FreeRun(start, ExtentPages)
	if err := f.ReadPages(start, pages); !errors.Is(err, storage.ErrFreedPage) {
		t.Fatalf("ReadPages of a freed extent: %v", err)
	}
}

// TestRunsShareAnExtent: two runs packed into one extent. Freeing one keeps
// the extent live, and only its own pages read as freed; freeing the other
// returns the extent.
func TestRunsShareAnExtent(t *testing.T) {
	m := newMgr()
	f := m.Create("idx", ClassIndex)
	a := mustAllocRun(t, f, 10)
	b := mustAllocRun(t, f, 12)
	if a != 0 || b != 10 || m.LiveBytes() != ExtentBytes {
		t.Fatalf("runs at %d and %d over %d live bytes, want 0 and 10 in one extent", a, b, m.LiveBytes())
	}
	buf := make([]byte, storage.PageSize)
	f.FreeRun(a, 10)
	if m.LiveBytes() != ExtentBytes || m.FreeExtents() != 0 {
		t.Fatalf("freeing one run released the shared extent: live=%d free=%d", m.LiveBytes(), m.FreeExtents())
	}
	for p := uint64(0); p < 22; p++ {
		err := f.ReadPage(p, buf)
		if freed := errors.Is(err, storage.ErrFreedPage); freed != (p < 10) {
			t.Fatalf("page %d after freeing [0,10): %v", p, err)
		}
	}
	pages := make([][]byte, 2)
	for i := range pages {
		pages[i] = make([]byte, storage.PageSize)
	}
	if err := f.ReadPages(9, pages); !errors.Is(err, storage.ErrFreedPage) {
		t.Fatalf("a run read over a freed page: %v", err)
	}
	f.FreeRun(b, 12)
	if m.LiveBytes() != 0 || m.FreeExtents() != 1 {
		t.Fatalf("freeing the last run kept the extent: live=%d free=%d", m.LiveBytes(), m.FreeExtents())
	}
	f.FreeRun(a, 22) // freed pages are skipped: nothing is released twice
	if m.FreeExtents() != 1 {
		t.Fatalf("a second free released %d extents", m.FreeExtents())
	}
}

// TestFreedOpenExtentIsSkipped: when every page of the file's open extent is
// freed under it, the extent goes back, and the next page opens a new one;
// the dead page numbers are never handed out again.
func TestFreedOpenExtentIsSkipped(t *testing.T) {
	m := newMgr()
	f := m.Create("t", ClassTable)
	mustAllocRun(t, f, ExtentPages+3)
	f.FreeRun(ExtentPages, 3)
	if m.LiveBytes() != ExtentBytes || m.FreeExtents() != 1 {
		t.Fatalf("open extent not returned: live=%d free=%d", m.LiveBytes(), m.FreeExtents())
	}
	if no := mustAllocPage(t, f); no != 2*ExtentPages {
		t.Fatalf("page %d after the freed open extent, want %d", no, 2*ExtentPages)
	}
	if m.LiveBytes() != 2*ExtentBytes || m.FreeExtents() != 0 {
		t.Fatalf("new extent not taken: live=%d free=%d", m.LiveBytes(), m.FreeExtents())
	}
	buf := make([]byte, storage.PageSize)
	if err := f.WritePage(2*ExtentPages, buf); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPage(ExtentPages+5, buf); !errors.Is(err, storage.ErrFreedPage) {
		t.Fatalf("a dead page number of the freed extent: %v", err)
	}
}

// TestFailedAllocLeavesFileUnchanged: an AllocPage or AllocRun that fails on
// capacity or an injected ENOSPC leaves the file's extents, its page bits
// and its size as they were.
func TestFailedAllocLeavesFileUnchanged(t *testing.T) {
	page := func(f *File) error { _, err := f.AllocPage(); return err }
	run := func(f *File) error { _, err := f.AllocRun(2 * ExtentPages); return err }
	for _, c := range []struct {
		name  string
		fill  int // pages taken in the open extent before the failure
		arm   func(m *Manager)
		alloc func(f *File) error
	}{
		{"page/capacity", ExtentPages, func(m *Manager) { m.SetCapacity(m.LiveBytes()) }, page},
		{"run/capacity", ExtentPages - 2, func(m *Manager) { m.SetCapacity(m.LiveBytes() + ExtentBytes) }, run},
		{"page/fault", ExtentPages, func(m *Manager) {
			m.Device().ArmFault(ssd.FaultRule{Kind: ssd.FaultNoSpace, Class: ssd.AnyClass, Ops: []uint64{1}})
		}, page},
		{"run/fault", ExtentPages - 2, func(m *Manager) {
			m.Device().ArmFault(ssd.FaultRule{Kind: ssd.FaultNoSpace, Class: ssd.AnyClass, Ops: []uint64{2}})
		}, run},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := newMgr()
			f := m.Create("idx", ClassIndex)
			mustAllocRun(t, f, 2*ExtentPages+5)
			f.FreeRun(2*ExtentPages, 2) // a hole in the open extent
			f.FreeRun(0, ExtentPages)   // and a freed extent
			mustAllocRun(t, f, c.fill-5)
			extents, live, pages, liveBytes := slices.Clone(f.extents), slices.Clone(f.live), f.NumPages(), m.LiveBytes()
			c.arm(m)
			if err := c.alloc(f); !errors.Is(err, storage.ErrNoSpace) {
				t.Fatalf("alloc: got %v, want ErrNoSpace", err)
			}
			if !slices.Equal(f.extents, extents) || !slices.Equal(f.live, live) || f.NumPages() != pages || m.LiveBytes() != liveBytes {
				t.Fatalf("failed alloc changed the file: extents %v -> %v, bits %x -> %x, pages %d -> %d, live %d -> %d",
					extents, f.extents, live, f.live, pages, f.NumPages(), liveBytes, m.LiveBytes())
			}
			m.SetCapacity(0)
			m.Device().DisarmAllFaults()
			if no := mustAllocPage(t, f); no != pages {
				t.Fatalf("next page after the failure: %d, want %d", no, pages)
			}
		})
	}
}

// TestWholeFileFreeAfterPartialFrees: FreeRun(0, NumPages()), as the WAL and
// a table rebuild drop a whole file, releases every extent still live
// exactly once, however much of the file was freed before.
func TestWholeFileFreeAfterPartialFrees(t *testing.T) {
	m := newMgr()
	f := m.Create("log", ClassMeta)
	mustAllocRun(t, f, 4*ExtentPages+9)
	f.FreeRun(ExtentPages, ExtentPages) // extent 1 goes
	f.FreeRun(3, 40)                    // extent 0 and 2 lose pages, stay live
	if m.FreeExtents() != 1 || m.LiveBytes() != 4*ExtentBytes {
		t.Fatalf("after partial frees: free=%d live=%d", m.FreeExtents(), m.LiveBytes())
	}
	f.FreeRun(0, int(f.NumPages()))
	if m.FreeExtents() != 5 || m.LiveBytes() != 0 {
		t.Fatalf("after the whole-file free: free=%d live=%d, want 5 and 0", m.FreeExtents(), m.LiveBytes())
	}
	f.FreeRun(0, int(f.NumPages()))
	if m.FreeExtents() != 5 {
		t.Fatalf("a second whole-file free released %d extents", m.FreeExtents())
	}
}
