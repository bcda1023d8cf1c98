package buffer

import (
	"testing"

	"mvpbt/internal/sfile"
	"mvpbt/internal/simclock"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
)

func setup(frames int) (*Pool, *sfile.Manager) {
	m := sfile.NewManager(ssd.New(simclock.New(), ssd.IntelP3600))
	return New(frames), m
}

func TestNewPageAndGet(t *testing.T) {
	p, m := setup(8)
	f := m.Create("t", sfile.ClassTable)
	fr, no, err := p.NewPage(f)
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[0] = 0x5A
	p.Unpin(fr, true)
	fr2, err := p.Get(f, no)
	if err != nil {
		t.Fatal(err)
	}
	if fr2.Data()[0] != 0x5A {
		t.Fatal("page content lost")
	}
	p.Unpin(fr2, false)
}

func TestEvictionWritesBackAndReloads(t *testing.T) {
	p, m := setup(4)
	f := m.Create("t", sfile.ClassTable)
	var nos []uint64
	for i := 0; i < 10; i++ {
		fr, no, err := p.NewPage(f)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[0] = byte(i + 1)
		p.Unpin(fr, true)
		nos = append(nos, no)
	}
	for i, no := range nos {
		fr, err := p.Get(f, no)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Data()[0] != byte(i+1) {
			t.Fatalf("page %d lost across eviction: got %d", no, fr.Data()[0])
		}
		p.Unpin(fr, false)
	}
	if p.Evictions() == 0 {
		t.Fatal("expected dirty evictions")
	}
}

func TestAllPinnedErrors(t *testing.T) {
	p, m := setup(2)
	f := m.Create("t", sfile.ClassTable)
	a, _, _ := p.NewPage(f)
	b, _, _ := p.NewPage(f)
	if _, _, err := p.NewPage(f); err != ErrNoFrames {
		t.Fatalf("want ErrNoFrames, got %v", err)
	}
	p.Unpin(a, true)
	p.Unpin(b, true)
	if _, _, err := p.NewPage(f); err != nil {
		t.Fatalf("after unpin: %v", err)
	}
}

func TestPinCountsNested(t *testing.T) {
	p, m := setup(4)
	f := m.Create("t", sfile.ClassTable)
	fr, no, _ := p.NewPage(f)
	fr2, _ := p.Get(f, no)
	if fr != fr2 {
		t.Fatal("same page returned different frames")
	}
	p.Unpin(fr, true)
	// still pinned once; must survive pressure
	for i := 0; i < 10; i++ {
		x, _, err := p.NewPage(f)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(x, false)
	}
	if fr2.pid != f.PageID(no) {
		t.Fatal("pinned frame was evicted")
	}
	p.Unpin(fr2, false)
}

func TestClassStats(t *testing.T) {
	p, m := setup(16)
	tbl := m.Create("t", sfile.ClassTable)
	idx := m.Create("i", sfile.ClassIndex)
	frT, noT, _ := p.NewPage(tbl)
	p.Unpin(frT, true)
	frI, noI, _ := p.NewPage(idx)
	p.Unpin(frI, true)
	for i := 0; i < 5; i++ {
		fr, _ := p.Get(tbl, noT)
		p.Unpin(fr, false)
	}
	fr, _ := p.Get(idx, noI)
	p.Unpin(fr, false)
	st := p.Stats()
	if st[sfile.ClassTable].Requests != 6 || st[sfile.ClassTable].Hits != 6 {
		t.Fatalf("table stats wrong: %+v", st[sfile.ClassTable])
	}
	if st[sfile.ClassIndex].Requests != 2 {
		t.Fatalf("index stats wrong: %+v", st[sfile.ClassIndex])
	}
	p.ResetStats()
	if s := p.Stats(); s[sfile.ClassTable].Requests != 0 {
		t.Fatal("reset failed")
	}
}

func TestMissCountsAfterEviction(t *testing.T) {
	p, m := setup(4)
	f := m.Create("t", sfile.ClassTable)
	var nos []uint64
	for i := 0; i < 8; i++ {
		fr, no, _ := p.NewPage(f)
		p.Unpin(fr, true)
		nos = append(nos, no)
	}
	p.ResetStats()
	fr, _ := p.Get(f, nos[0]) // evicted long ago: miss
	p.Unpin(fr, false)
	if st := p.Stats()[sfile.ClassTable]; st.Requests-st.Hits != 1 {
		t.Fatalf("expected 1 miss, got %+v", st)
	}
}

func TestFlushAll(t *testing.T) {
	p, m := setup(8)
	f := m.Create("t", sfile.ClassTable)
	var nos []uint64
	for i := 0; i < 5; i++ {
		fr, no, _ := p.NewPage(f)
		fr.Data()[0] = byte(i + 1)
		p.Unpin(fr, true)
		nos = append(nos, no)
	}
	p.FlushAll()
	buf := make([]byte, storage.PageSize)
	for i, no := range nos {
		f.ReadPage(no, buf)
		if buf[0] != byte(i+1) {
			t.Fatalf("page %d not flushed", no)
		}
	}
}

func TestDropFilePages(t *testing.T) {
	p, m := setup(8)
	f := m.Create("i", sfile.ClassIndex)
	start, _ := f.AllocRun(4)
	// Cache the run's pages dirty via direct writes, then fetch.
	buf := make([]byte, storage.PageSize)
	for i := 0; i < 4; i++ {
		f.WritePage(start+uint64(i), buf)
		fr, _ := p.Get(f, start+uint64(i))
		p.Unpin(fr, false)
	}
	p.DropFilePages(f, start, 4)
	p.ResetStats()
	fr, _ := p.Get(f, start) // must be a miss now
	p.Unpin(fr, false)
	if p.Stats()[sfile.ClassIndex].Hits != 0 {
		t.Fatal("dropped page still cached")
	}
}

func TestUnpinUnpinnedPanics(t *testing.T) {
	p, m := setup(4)
	f := m.Create("t", sfile.ClassTable)
	fr, _, _ := p.NewPage(f)
	p.Unpin(fr, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double unpin should panic")
		}
	}()
	p.Unpin(fr, false)
}

func TestGetAllPinnedErrors(t *testing.T) {
	p, m := setup(2)
	f := m.Create("t", sfile.ClassTable)
	// Create pages, then fill every frame with pins.
	a, n0, _ := p.NewPage(f)
	b, _, _ := p.NewPage(f)
	_ = n0
	if _, err := p.Get(f, 0); err != ErrNoFrames {
		// frame for page 0 is cached & pinned: Get should HIT, not error.
		if err != nil {
			t.Fatalf("unexpected: %v", err)
		}
		p.Unpin(a, false) // extra pin from the hit
	}
	// A page that is NOT cached cannot be brought in.
	c, _, err := p.NewPage(f)
	if err != ErrNoFrames {
		t.Fatalf("want ErrNoFrames, got %v", err)
	}
	_ = c
	p.Unpin(a, false)
	p.Unpin(b, false)
}

func TestEvictAllKeepsPinnedPages(t *testing.T) {
	p, m := setup(8)
	f := m.Create("t", sfile.ClassTable)
	pinned, no, _ := p.NewPage(f)
	pinned.Data()[0] = 0x42
	other, _, _ := p.NewPage(f)
	p.Unpin(other, true)
	p.EvictAll()
	// The pinned frame survives with its contents; re-Get hits.
	p.ResetStats()
	fr, err := p.Get(f, no)
	if err != nil {
		t.Fatal(err)
	}
	if fr != pinned || fr.Data()[0] != 0x42 {
		t.Fatal("pinned page evicted by EvictAll")
	}
	if p.Stats()[sfile.ClassTable].Hits != 1 {
		t.Fatal("pinned page not served from cache")
	}
	p.Unpin(fr, false)
	p.Unpin(pinned, true)
}

func TestEvictAllFlushesDirty(t *testing.T) {
	p, m := setup(8)
	f := m.Create("t", sfile.ClassTable)
	fr, no, _ := p.NewPage(f)
	fr.Data()[1] = 0x77
	p.Unpin(fr, true)
	p.EvictAll()
	buf := make([]byte, storage.PageSize)
	f.ReadPage(no, buf)
	if buf[1] != 0x77 {
		t.Fatal("EvictAll lost a dirty page")
	}
	// And the page is no longer cached.
	p.ResetStats()
	fr2, _ := p.Get(f, no)
	p.Unpin(fr2, false)
	if p.Stats()[sfile.ClassTable].Hits != 0 {
		t.Fatal("EvictAll left the page cached")
	}
}

func TestDropPinnedPagePanics(t *testing.T) {
	p, m := setup(4)
	f := m.Create("i", sfile.ClassIndex)
	start, _ := f.AllocRun(1)
	buf := make([]byte, storage.PageSize)
	f.WritePage(start, buf)
	fr, _ := p.Get(f, start)
	defer func() {
		if recover() == nil {
			t.Fatal("dropping a pinned page should panic")
		}
		p.Unpin(fr, false)
	}()
	p.DropFilePages(f, start, 1)
}

// TestResetStatsResetsEveryCounter: requests, hits, write-backs and the
// device-read counters start one epoch together, so PagesRead/Reads after a
// reset describes the reads since it and nothing before.
func TestResetStatsResetsEveryCounter(t *testing.T) {
	p, m := setup(4)
	f, start := runFile(t, m, 16)
	for i := 0; i < 8; i++ { // eight single-page reads
		getRun(t, p, f, start, i, 1)
	}
	fr, _, err := p.NewPage(f)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr, true)
	for i := 0; i < 4; i++ { // push the dirty page out: one write-back
		getRun(t, p, f, start, i, 1)
	}
	if io := p.IOStats(); io.Reads != 12 || io.PagesRead != 12 || p.Evictions() != 1 {
		t.Fatalf("before the reset: %+v, %d write-backs", io, p.Evictions())
	}
	p.ResetStats()
	if io, st := p.IOStats(), p.Stats()[sfile.ClassIndex]; io.Reads != 0 || io.PagesRead != 0 || p.Evictions() != 0 || st != (ClassStats{}) {
		t.Fatalf("after the reset: %+v, %+v, %d write-backs, want all zero", io, st, p.Evictions())
	}
	getRun(t, p, f, start, 8, 4) // one read of four pages
	if io := p.IOStats(); io.Reads != 1 || io.PagesRead != 4 {
		t.Fatalf("one run of 4 after the reset: %+v, want 4 pages per device read", io)
	}
}
