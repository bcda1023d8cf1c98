package buffer

import (
	"errors"
	"testing"

	"mvpbt/internal/sfile"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
)

// writeEvict creates a page with recognizable content and pushes it to the
// device (via FlushAll), then drops it from the cache so the next Get does
// real I/O.
func writeEvict(t *testing.T, p *Pool, f *sfile.File) uint64 {
	t.Helper()
	fr, no, err := p.NewPage(f)
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[100] = 0xC7
	p.Unpin(fr, true)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.DropFilePages(f, no, 1)
	return no
}

func TestGetDetectsBitRot(t *testing.T) {
	p, m := setup(8)
	f := m.Create("t", sfile.ClassTable)
	no := writeEvict(t, p, f)
	// Rot one media bit under the page: the next fetch must fail typed, and
	// re-reads (retries) must keep failing — rot is permanent.
	m.Device().ArmFault(ssd.FaultRule{Kind: ssd.FaultBitFlip, Class: ssd.AnyClass, Ops: []uint64{1}, ByteOffset: 300, BitMask: 0x04})
	if _, err := p.Get(f, no); !errors.Is(err, storage.ErrCorruptPage) {
		t.Fatalf("want ErrCorruptPage, got %v", err)
	}
	st := p.IOStats()
	if st.ChecksumFailures == 0 || st.ReadFailures != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestGetMasksTransientReadFault(t *testing.T) {
	p, m := setup(8)
	f := m.Create("t", sfile.ClassTable)
	no := writeEvict(t, p, f)
	// Fail only the first read: the in-line retry must mask it.
	m.Device().ArmFault(ssd.FaultRule{Kind: ssd.FaultReadErr, Class: ssd.AnyClass, Ops: []uint64{1}})
	fr, err := p.Get(f, no)
	if err != nil {
		t.Fatalf("transient fault should be masked: %v", err)
	}
	if fr.Data()[100] != 0xC7 {
		t.Fatal("content wrong after retried read")
	}
	p.Unpin(fr, false)
	st := p.IOStats()
	if st.ReadRetries == 0 || st.ReadFailures != 0 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestGetSurfacesPersistentReadFault(t *testing.T) {
	p, m := setup(8)
	f := m.Create("t", sfile.ClassTable)
	no := writeEvict(t, p, f)
	m.Device().ArmFault(ssd.FaultRule{Kind: ssd.FaultReadErr, Class: ssd.AnyClass, Sticky: true})
	if _, err := p.Get(f, no); !errors.Is(err, storage.ErrIOFault) {
		t.Fatalf("want ErrIOFault, got %v", err)
	}
	m.Device().DisarmAllFaults()
	// The failed fetch must not have cached anything: a clean retry works.
	fr, err := p.Get(f, no)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data()[100] != 0xC7 {
		t.Fatal("content wrong after recovery")
	}
	p.Unpin(fr, false)
}

func TestFlushRetriesAndKeepsDirtyOnFailure(t *testing.T) {
	p, m := setup(8)
	f := m.Create("t", sfile.ClassTable)
	fr, no, err := p.NewPage(f)
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[0] = 0x11
	p.Unpin(fr, true)
	m.Device().ArmFault(ssd.FaultRule{Kind: ssd.FaultWriteErr, Class: ssd.AnyClass, Sticky: true})
	if err := p.FlushAll(); !errors.Is(err, storage.ErrIOFault) {
		t.Fatalf("want ErrIOFault, got %v", err)
	}
	if st := p.IOStats(); st.WriteRetries == 0 || st.WriteFailures != 1 {
		t.Fatalf("stats wrong: %+v", st)
	}
	m.Device().DisarmAllFaults()
	// The page stayed dirty, so a later flush persists it.
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.DropFilePages(f, no, 1)
	fr2, err := p.Get(f, no)
	if err != nil {
		t.Fatal(err)
	}
	if fr2.Data()[0] != 0x11 {
		t.Fatal("data lost across failed flush")
	}
	p.Unpin(fr2, false)
}

func TestFreedPageNotRetried(t *testing.T) {
	p, m := setup(8)
	f := m.Create("idx", sfile.ClassIndex)
	start, _ := f.AllocRun(sfile.ExtentPages)
	f.FreeRun(start, sfile.ExtentPages)
	if _, err := p.Get(f, start); !errors.Is(err, storage.ErrFreedPage) {
		t.Fatalf("want ErrFreedPage, got %v", err)
	}
	if st := p.IOStats(); st.ReadRetries != 0 {
		t.Fatalf("freed-page access should not be retried: %+v", st)
	}
}
