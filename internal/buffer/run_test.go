package buffer

import (
	"errors"
	"sync"
	"testing"

	"mvpbt/internal/page"
	"mvpbt/internal/sfile"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
)

// runFile writes n checksummed pages, page i carrying byte(i) at offset 100,
// at the start of a fresh extent of an index file, around the pool as
// partition builds do.
func runFile(t *testing.T, m *sfile.Manager, n int) (*sfile.File, uint64) {
	t.Helper()
	f := m.Create("run", sfile.ClassIndex)
	start, err := f.AllocRun(n)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, storage.PageSize)
	for i := 0; i < n; i++ {
		buf[100] = byte(i)
		page.StampChecksum(buf)
		if err := f.WritePage(start+uint64(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	return f, start
}

// getRun fetches page start+i expecting n pages from there on, checks its
// content and unpins it. It returns the pages the fetch says it read.
func getRun(t *testing.T, p *Pool, f *sfile.File, start uint64, i, n int) int {
	t.Helper()
	fr, read, err := p.GetRun(f, start+uint64(i), n)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data()[100] != byte(i) {
		t.Fatalf("page %d holds page %d", i, fr.Data()[100])
	}
	p.Unpin(fr, false)
	return read
}

// TestGetRun: one device read per run, for both a one-shard and a sharded
// pool; a page a run brought in is a miss when first fetched and a hit after;
// a run ends at a resident page, at MaxRun pages and at the extent's end, and
// a resident page is never read again.
func TestGetRun(t *testing.T) {
	for _, frames := range []int{48, 1024} {
		p, m := setup(frames)
		f, start := runFile(t, m, 2*sfile.ExtentPages)
		dev := m.Device()
		reads := func() int64 { return dev.Stats().Reads }
		idx := func() ClassStats { return p.Stats()[sfile.ClassIndex] }

		if read := getRun(t, p, f, start, 0, 4); read != 4 {
			t.Fatalf("%d frames: run of 4 says it read %d pages", frames, read)
		}
		if r, io, st := reads(), p.IOStats(), idx(); r != 1 || dev.Stats().BytesRead != 4*storage.PageSize || io.Reads != 1 || io.PagesRead != 4 || st.Requests != 1 || st.Hits != 0 {
			t.Fatalf("%d frames: run of 4: %d device reads, %+v, %+v", frames, r, io, st)
		}
		for i := 1; i < 4; i++ { // brought in by the run: the first fetch is the miss it would have been
			if read := getRun(t, p, f, start, i, 4-i); read != 0 {
				t.Fatalf("%d frames: page %d of the run says it read %d pages", frames, i, read)
			}
		}
		if r, st := reads(), idx(); r != 1 || st.Requests != 4 || st.Hits != 0 {
			t.Fatalf("%d frames: first use of run pages: %d device reads, %+v, want none more and no hit", frames, r, st)
		}
		getRun(t, p, f, start, 2, 1)
		if st := idx(); st.Requests != 5 || st.Hits != 1 {
			t.Fatalf("%d frames: second use of a run page: %+v, want a hit", frames, st)
		}

		// Page 6 is resident: a run from 4 stops before it.
		getRun(t, p, f, start, 6, 1)
		before := dev.Stats()
		read := getRun(t, p, f, start, 4, 8)
		if d := dev.Stats().Sub(before); d.Reads != 1 || d.BytesRead != 2*storage.PageSize || read != 2 {
			t.Fatalf("%d frames: run into a resident page: %+v, want one read of 2 pages", frames, d)
		}
		// No run is longer than MaxRun, whatever is asked for.
		before = dev.Stats()
		getRun(t, p, f, start, 8, 20)
		if d := dev.Stats().Sub(before); d.Reads != 1 || d.BytesRead != MaxRun*storage.PageSize {
			t.Fatalf("%d frames: run of 20: %+v, want one read of %d pages", frames, d, MaxRun)
		}
		// Nor does it cross into the next extent.
		before = dev.Stats()
		getRun(t, p, f, start, sfile.ExtentPages-3, 8)
		if d := dev.Stats().Sub(before); d.Reads != 1 || d.BytesRead != 3*storage.PageSize || p.IOStats().ReadRetries != 0 {
			t.Fatalf("%d frames: run at the extent's end: %+v, want one read of 3 pages", frames, d)
		}
		getRun(t, p, f, start, sfile.ExtentPages-1, 8)
		if d := dev.Stats().Sub(before); d.Reads != 1 {
			t.Fatalf("%d frames: the extent's last page was read twice", frames)
		}
	}
}

// TestGetRunNoFrames: with every other frame pinned a run shrinks to the one
// page asked for; it neither fails nor waits.
func TestGetRunNoFrames(t *testing.T) {
	p, m := setup(4)
	f, start := runFile(t, m, 16)
	var held []*Frame
	for i := 0; i < 3; i++ {
		fr, err := p.Get(f, start+8+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, fr)
	}
	before := m.Device().Stats()
	getRun(t, p, f, start, 0, 8)
	if d := m.Device().Stats().Sub(before); d.Reads != 1 || d.BytesRead != storage.PageSize {
		t.Fatalf("run with one free frame: %+v, want one single-page read", d)
	}
	for _, fr := range held {
		p.Unpin(fr, false)
	}
	// A dirty victim is written back before a run page takes its frame.
	fr, no, err := p.NewPage(f)
	if err != nil {
		t.Fatal(err)
	}
	fr.Data()[100] = 0xEE
	p.Unpin(fr, true)
	getRun(t, p, f, start, 1, 4)
	getRun(t, p, f, start, 5, 4)
	if fr, err = p.Get(f, no); err != nil || fr.Data()[100] != 0xEE {
		t.Fatalf("dirty page lost under run reads: %v", err)
	}
	p.Unpin(fr, false)
}

// TestGetRunFaults: a run that fails or carries a rotted page installs
// nothing; the page asked for is then fetched alone, which retries and
// reports as Get does.
func TestGetRunFaults(t *testing.T) {
	p, m := setup(64)
	f, start := runFile(t, m, 16)
	dev := m.Device()

	dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultReadErr, Class: ssd.AnyClass, Ops: []uint64{1}})
	getRun(t, p, f, start, 0, 4)
	if io, st := p.IOStats(), dev.Stats(); io.ReadRetries != 1 || io.ReadFailures != 0 || io.PagesRead != 1 || st.Reads != 2 {
		t.Fatalf("failed run: %+v, %d device reads, want one retry and page 0 fetched alone", io, st.Reads)
	}
	before := dev.Stats()
	getRun(t, p, f, start, 1, 3)
	if d := dev.Stats().Sub(before); d.Reads != 1 || d.BytesRead != 3*storage.PageSize {
		t.Fatalf("after a failed run its other pages must not be resident: %+v", d)
	}

	// Rot in the third page of a run from page 4: pages 4 and 5 are served,
	// page 6 is ErrCorruptPage on every fetch, and nothing else came in.
	dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultBitFlip, Class: ssd.AnyClass, Ops: []uint64{1}, ByteOffset: 2*storage.PageSize + 300, BitMask: 0x04})
	getRun(t, p, f, start, 4, 4)
	if io := p.IOStats(); io.ChecksumFailures != 0 || io.ReadRetries != 2 {
		t.Fatalf("rot in a page not asked for: %+v, want no checksum failure counted and one more retry", io)
	}
	getRun(t, p, f, start, 5, 3)
	for i := 0; i < 2; i++ {
		if _, _, err := p.GetRun(f, start+6, 2); !errors.Is(err, storage.ErrCorruptPage) {
			t.Fatalf("fetch %d of the rotted page: %v, want ErrCorruptPage", i, err)
		}
	}
	if io := p.IOStats(); io.ChecksumFailures != 2 || io.ReadFailures != 2 {
		t.Fatalf("rotted page fetched twice: %+v", io)
	}
	getRun(t, p, f, start, 7, 1)

	// A dead device surfaces the typed error and leaves every frame free.
	dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultReadErr, Class: ssd.AnyClass, Sticky: true})
	if _, _, err := p.GetRun(f, start+8, 8); !errors.Is(err, storage.ErrIOFault) {
		t.Fatalf("run on a dead device: %v, want ErrIOFault", err)
	}
	dev.DisarmAllFaults()
	for i := 8; i < 16; i++ {
		getRun(t, p, f, start, i, 16-i)
	}
}

// TestGetRunConcurrent: overlapping runs from several goroutines, through a
// sharded pool too small for the file, serve every page intact and leave no
// frame pinned (run under -race).
func TestGetRunConcurrent(t *testing.T) {
	p, m := setup(512)
	const pages = 24 * sfile.ExtentPages
	f, start := runFile(t, m, pages)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4*pages; i++ {
				no := (i*7 + g*61) % pages
				fr, _, err := p.GetRun(f, start+uint64(no), 1+i%MaxRun)
				if err != nil {
					t.Error(err)
					return
				}
				if fr.Data()[100] != byte(no) {
					t.Errorf("page %d holds page %d", no, fr.Data()[100])
				}
				p.Unpin(fr, false)
			}
		}()
	}
	wg.Wait()
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	for _, sh := range p.shards {
		if len(sh.table) != 0 {
			t.Fatalf("%d pages still cached after EvictAll: a frame stayed pinned", len(sh.table))
		}
		for _, fr := range sh.frames {
			if fr.pin != 0 {
				t.Fatal("a frame outside the table stayed reserved")
			}
		}
	}
}
