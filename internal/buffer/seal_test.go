package buffer

import (
	"testing"

	"mvpbt/internal/sfile"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
)

type sealedPage struct {
	f  *sfile.File
	no uint64
}

// dirtyPages creates n pages, taking their files in turn, each dirty and
// unpinned with byte 7 set to its index plus one, and returns them in the
// order they were created.
func dirtyPages(t *testing.T, p *Pool, n int, files ...*sfile.File) []sealedPage {
	t.Helper()
	var out []sealedPage
	for i := 0; i < n; i++ {
		f := files[i%len(files)]
		fr, no, err := p.NewPage(f)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data()[7] = byte(i + 1)
		p.Unpin(fr, true)
		out = append(out, sealedPage{f, no})
	}
	return out
}

func isDirty(p *Pool, f *sfile.File, no uint64) bool {
	pid := f.PageID(no)
	sh := p.shardOf(pid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fr, ok := sh.table[pid]
	return ok && fr.dirty
}

// TestSealWritesAnExtentInPageOrder: sealed pages stay in the pool, dirty,
// until sfile.ExtentPages of them are queued; then they are written back in
// page-id order, so pages sealed alternately by two files reach the device
// as two runs — two random writes, the rest sequential — and each holds its
// content on the device.
func TestSealWritesAnExtentInPageOrder(t *testing.T) {
	p, m := setup(128)
	a, b := m.Create("a", sfile.ClassTable), m.Create("b", sfile.ClassTable)
	pages := dirtyPages(t, p, sfile.ExtentPages, a, b)
	dev := m.Device()
	dev.SetTracing(true)
	for _, pg := range pages[:len(pages)-1] {
		p.Seal(pg.f, pg.no)
	}
	if st := dev.Stats(); st.Writes != 0 {
		t.Fatalf("%d device writes before the queue held an extent's worth, want 0", st.Writes)
	}
	last := pages[len(pages)-1]
	p.Seal(last.f, last.no)
	if st := dev.Stats(); st.Writes != sfile.ExtentPages || st.RandWrites != 2 {
		t.Fatalf("write-out: %d writes, %d random, want %d and 2 (one a file)", st.Writes, st.RandWrites, sfile.ExtentPages)
	}
	trace := dev.Trace()
	for i := 1; i < len(trace); i++ {
		if i != sfile.ExtentPages/2 && trace[i].LBA != trace[i-1].LBA+storage.PageSize/ssd.SectorSize {
			t.Fatalf("write %d at sector %d after one at %d: not in page order", i, trace[i].LBA, trace[i-1].LBA)
		}
	}
	buf := make([]byte, storage.PageSize)
	for i, pg := range pages {
		if isDirty(p, pg.f, pg.no) {
			t.Fatalf("page %d still dirty after the write-out", i)
		}
		if err := pg.f.ReadPage(pg.no, buf); err != nil || buf[7] != byte(i+1) {
			t.Fatalf("page %d on the device: byte %d, %v, want %d", i, buf[7], err, i+1)
		}
	}
}

// TestSealWriteFaultStaysWithItsPage: a persistent write fault on one page of
// a write-out leaves that page dirty and the rest written; the page is
// written by the next FlushAll once the fault clears, and Seal reports the
// fault to no caller.
func TestSealWriteFaultStaysWithItsPage(t *testing.T) {
	p, m := setup(128)
	// The fault is scoped to the index class: only bad's page fails.
	bad, good := m.Create("bad", sfile.ClassIndex), m.Create("good", sfile.ClassTable)
	pages := append(dirtyPages(t, p, 1, bad), dirtyPages(t, p, sfile.ExtentPages-1, good)...)
	dev := m.Device()
	dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultWriteErr, Class: int(sfile.ClassIndex), Sticky: true})
	for _, pg := range pages {
		p.Seal(pg.f, pg.no)
	}
	if !isDirty(p, bad, pages[0].no) {
		t.Fatal("page whose write failed is clean")
	}
	for _, pg := range pages[1:] {
		if isDirty(p, pg.f, pg.no) {
			t.Fatalf("page %d of the other file not written past the fault", pg.no)
		}
	}
	if st := p.IOStats(); st.WriteFailures != 1 {
		t.Fatalf("%d write failures, want 1", st.WriteFailures)
	}
	dev.DisarmAllFaults()
	if err := p.FlushAll(); err != nil || isDirty(p, bad, pages[0].no) {
		t.Fatalf("FlushAll after the fault cleared: %v, dirty %v", err, isDirty(p, bad, pages[0].no))
	}
}

// TestSealSkipsAFreedPage: a queued page whose extent vacuum freed — dropped
// from the pool, then freed, as SiasHeap.freeDeadExtents does — is skipped:
// the write-out tries no write into the freed extent and writes the rest.
func TestSealSkipsAFreedPage(t *testing.T) {
	p, m := setup(128)
	gone, other := m.Create("gone", sfile.ClassTable), m.Create("other", sfile.ClassTable)
	pages := append(dirtyPages(t, p, 1, gone), dirtyPages(t, p, sfile.ExtentPages-1, other)...)
	p.Seal(gone, pages[0].no)
	p.DropFilePages(gone, 0, sfile.ExtentPages)
	gone.FreeRun(0, sfile.ExtentPages)
	for _, pg := range pages[1:] {
		p.Seal(pg.f, pg.no)
	}
	for _, pg := range pages[1:] {
		if isDirty(p, pg.f, pg.no) {
			t.Fatalf("page %d dirty after the write-out", pg.no)
		}
	}
	if st, io := m.Device().Stats(), p.IOStats(); st.Writes != sfile.ExtentPages-1 || io.WriteFailures != 0 {
		t.Fatalf("%d device writes, %d failed, want %d and 0", st.Writes, io.WriteFailures, sfile.ExtentPages-1)
	}
}

// TestFlushAllAndEvictAllEmptyTheSealQueue: a pool-wide write-back covers
// the queue, so the next write-out waits for a full extent's worth of new
// seals.
func TestFlushAllAndEvictAllEmptyTheSealQueue(t *testing.T) {
	for _, flush := range []func(*Pool) error{(*Pool).FlushAll, (*Pool).EvictAll} {
		p, m := setup(128)
		f := m.Create("t", sfile.ClassTable)
		for _, pg := range dirtyPages(t, p, 10, f) {
			p.Seal(pg.f, pg.no)
		}
		if err := flush(p); err != nil {
			t.Fatal(err)
		}
		if len(p.sealed) != 0 {
			t.Fatalf("%d pages queued after a pool-wide write-back", len(p.sealed))
		}
		pages := dirtyPages(t, p, sfile.ExtentPages, f)
		writes := m.Device().Stats().Writes
		for _, pg := range pages[:len(pages)-1] {
			p.Seal(pg.f, pg.no)
		}
		if got := m.Device().Stats().Writes - writes; got != 0 {
			t.Fatalf("%d writes before %d new seals, want 0", got, sfile.ExtentPages)
		}
		p.Seal(f, pages[len(pages)-1].no)
		if got := m.Device().Stats().Writes - writes; got != sfile.ExtentPages {
			t.Fatalf("%d writes at %d new seals, want %d", got, sfile.ExtentPages, sfile.ExtentPages)
		}
	}
}

// TestSealSkipsAPinnedPage: a page pinned at the write-out is being read or
// changed; it stays dirty for replacement or a flush to write.
func TestSealSkipsAPinnedPage(t *testing.T) {
	p, m := setup(128)
	f := m.Create("t", sfile.ClassTable)
	pages := dirtyPages(t, p, sfile.ExtentPages, f)
	fr, err := p.Get(f, pages[3].no)
	if err != nil {
		t.Fatal(err)
	}
	for _, pg := range pages {
		p.Seal(pg.f, pg.no)
	}
	p.Unpin(fr, false)
	if !isDirty(p, f, pages[3].no) {
		t.Fatal("pinned page written by the write-out")
	}
	if err := p.FlushAll(); err != nil || isDirty(p, f, pages[3].no) {
		t.Fatalf("FlushAll: %v, page still dirty %v", err, isDirty(p, f, pages[3].no))
	}
}
