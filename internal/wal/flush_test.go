package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mvpbt/internal/sfile"
	"mvpbt/internal/simclock"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
)

// refWriter is the whole-page flush the sector-run flush replaced, kept as
// the reference the log image is compared against: tail + pending are
// staged into one stream, every page the stream covers is written whole,
// and the tail page is rewritten (zero-filled to its end) by every flush.
type refWriter struct {
	file     *sfile.File
	pending  []byte
	tail     []byte
	tailPage uint64
	haveTail bool
	written  int64
}

func (w *refWriter) Append(r *Record) int64 {
	n := len(w.pending)
	w.pending = encode(w.pending, r)
	w.written += int64(len(w.pending) - n)
	return w.written
}

func (w *refWriter) Flush() error {
	if len(w.pending) == 0 {
		return nil
	}
	if !w.haveTail {
		no, err := w.file.AllocPage()
		if err != nil {
			return err
		}
		w.tailPage, w.haveTail = no, true
	}
	stream := append(append([]byte(nil), w.tail...), w.pending...)
	w.tail, w.pending = w.tail[:0], w.pending[:0]
	for len(stream) > storage.PageSize {
		if err := w.file.WritePage(w.tailPage, stream[:storage.PageSize]); err != nil {
			w.pending = append(w.pending, stream...)
			return err
		}
		stream = stream[storage.PageSize:]
		no, err := w.file.AllocPage()
		if err != nil {
			w.pending, w.haveTail = append(w.pending, stream...), false
			return err
		}
		w.tailPage = no
	}
	page := make([]byte, storage.PageSize)
	copy(page, stream)
	if err := w.file.WritePage(w.tailPage, page); err != nil {
		w.pending = append(w.pending, stream...)
		return err
	}
	w.tail = append(w.tail, stream...)
	return nil
}

func newDevFile(spec ssd.DeviceSpec) (*ssd.Device, *sfile.File) {
	dev := ssd.NewWithSpec(simclock.New(), spec)
	return dev, sfile.NewManager(dev).Create("wal", sfile.ClassMeta)
}

// sized returns a record whose framed encoding is exactly n bytes.
func sized(t *testing.T, txid uint64, n int) *Record {
	t.Helper()
	for row := n; row >= 0; row-- {
		r := &Record{Op: OpInsert, TxID: txid, Row: bytes.Repeat([]byte{byte(txid) | 1}, row)}
		if len(encode(nil, r)) == n {
			return r
		}
	}
	t.Fatalf("no record frames to exactly %d bytes", n)
	return nil
}

// pagesHolding is the number of pages that hold a byte of stream range
// [from, to).
func pagesHolding(from, to int64) int64 {
	if to <= from {
		return 0
	}
	return (to-1)/storage.PageSize - from/storage.PageSize + 1
}

// TestSectorFlushMatchesWholePageReference: for random record sizes (1 B
// of row to three pages) and random flush points, the log image after
// every flush is byte-identical to the whole-page reference writer's, each
// flush issues one device write per page holding unflushed bytes, and it
// writes at most the unflushed bytes plus one partial sector on either end
// of each of those pages.
func TestSectorFlushMatchesWholePageReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dev, f := newDevFile(ssd.DeviceSpec{})
			_, rf := newDevFile(ssd.DeviceSpec{})
			w, ref := NewWriter(f), &refWriter{file: rf}
			var flushed int64
			for i := 0; i < 400; i++ {
				size := 1 + rng.Intn(200)
				switch rng.Intn(10) {
				case 0:
					size = 1 + rng.Intn(3*storage.PageSize)
				case 1: // land exactly on a sector boundary now and then
					if gap := int(-w.Written() & (ssd.SectorSize - 1)); gap > 24 {
						size = gap - 24
					}
				}
				rec := &Record{Op: OpInsert, TxID: uint64(i), Table: "t", Key: []byte{byte(i)},
					Row: bytes.Repeat([]byte{byte(i) | 1}, size)}
				w.Append(rec)
				ref.Append(rec)
				if rng.Intn(3) != 0 {
					continue
				}
				before := dev.Stats()
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := ref.Flush(); err != nil {
					t.Fatal(err)
				}
				io := dev.Stats().Sub(before)
				pages := pagesHolding(flushed, w.Written())
				if unflushed := w.Written() - flushed; io.Writes != pages ||
					io.BytesWritten > unflushed+2*ssd.SectorSize*pages || io.BytesWritten < unflushed {
					t.Fatalf("flush %d: %d writes of %d B for %d unflushed B on %d pages",
						i, io.Writes, io.BytesWritten, unflushed, pages)
				}
				flushed = w.Written()
				if got, want := readImage(f), readImage(rf); !bytes.Equal(got, want) {
					t.Fatalf("flush %d: image differs from the whole-page reference (%d vs %d B)", i, len(got), len(want))
				}
			}
			if got := dev.Stats().BytesWritten; w.FlushedBytes() != got {
				t.Fatalf("FlushedBytes = %d, device wrote %d", w.FlushedBytes(), got)
			}
		})
	}
}

// TestFlushSkipsCleanPages: a flush issues no device write for a page with
// no dirty sector. The whole-page flush rewrote an exactly full, already
// durable tail page before moving on to the next one.
func TestFlushSkipsCleanPages(t *testing.T) {
	dev, f := newDevFile(ssd.DeviceSpec{})
	w := NewWriter(f)
	var flushes, crossings int64
	for i, step := range []struct{ size, crossings int }{
		{100, 0},
		{storage.PageSize - 100, 0}, // fills page 0 to its last byte
		{40, 0},                     // must not touch page 0 again
		{3 * storage.PageSize, 3},   // pages 1..4
		{storage.PageSize - 40, 0},  // fills page 4 exactly
		{2 * storage.PageSize, 1},   // pages 5 and 6, both to their ends
		{ssd.SectorSize, 0},         // page 7, one whole sector
		{ssd.SectorSize + 1, 0},     // starts on a sector boundary
		{storage.PageSize, 1},       // pages 7 and 8
	} {
		w.Append(sized(t, uint64(i+1), step.size))
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		flushes++
		crossings += int64(step.crossings)
		if got := dev.Stats().Writes; got != flushes+crossings {
			t.Fatalf("step %d: %d device writes after %d flushes and %d page crossings", i, got, flushes, crossings)
		}
	}
	if got := txids(t, readImage(f)); len(got) != int(flushes) {
		t.Fatalf("read back %v", got)
	}
}

// TestTornFlushSweep: a flush that tears after k sectors, for every k the
// run admits, followed by a crash, loses no acknowledged record and yields
// no half record: what reads back is the acknowledged records plus, at
// most, a whole-record prefix of the flush that tore. The run starts at the
// sector holding the last acknowledged byte, so k >= 1 rewrites that
// sector's acknowledged head with the same bytes. second tears the flush's
// write to its second page instead of its first. After the crash image is
// taken the fault is lifted and the same writer resumes to a complete log.
func TestTornFlushSweep(t *testing.T) {
	for _, second := range []bool{false, true} {
		for k := 0; k <= storage.PageSize/ssd.SectorSize; k++ {
			dev, f := newDevFile(ssd.DeviceSpec{})
			w := NewWriter(f)
			var acked, all []uint64
			add := func(id uint64, size int) {
				w.Append(sized(t, id, size))
				all = append(all, id)
			}
			add(1, 300)
			add(2, 900) // acknowledged bytes end mid-sector, at 1200
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, all...)
			for id := uint64(3); id < 12; id++ {
				add(id, 700) // 6300 B: sectors 2..14 of page 0
			}
			rule := ssd.FaultRule{Kind: ssd.FaultTornWrite, Class: ssd.AnyClass, TornSectors: k, Sticky: true}
			if second {
				add(12, storage.PageSize) // through page 1; page 0's run succeeds
				rule.Sticky, rule.Ops = false, []uint64{2, 3, 4}
			}
			dev.ArmFault(rule)
			if err := w.Flush(); !errors.Is(err, storage.ErrIOFault) {
				t.Fatalf("k=%d: torn flush returned %v", k, err)
			}
			dev.DisarmAllFaults()

			r := NewReaderFromBytes(readImage(f))
			var got []uint64
			for rec, ok := r.Next(); ok; rec, ok = r.Next() {
				got = append(got, rec.TxID)
			}
			if len(got) < len(acked) || len(got) > len(all) || !slices.Equal(got, all[:len(got)]) {
				t.Fatalf("second=%v k=%d: crash image reads %v, acknowledged %v of %v", second, k, got, acked, all)
			}

			add(99, 50)
			if err := w.Flush(); err != nil {
				t.Fatalf("k=%d: resumed flush: %v", k, err)
			}
			if got := txids(t, readImage(f)); !slices.Equal(got, all) {
				t.Fatalf("second=%v k=%d: after resuming, log reads %v, want %v", second, k, got, all)
			}
		}
	}
}

// TestFlushOntoRecycledExtent: the flush writes only the sectors it
// dirtied, so the clean padding the Reader expects in the rest of a new
// tail page is whatever the device returns for it. A recycled extent that
// held an older log generation must read as zeros there (sfile discards
// what it frees), or that generation's records would resurface behind the
// new log's first record.
func TestFlushOntoRecycledExtent(t *testing.T) {
	dev := ssd.New(simclock.New(), ssd.IntelP3600)
	fm := sfile.NewManager(dev)
	old := fm.Create("log.1", sfile.ClassMeta)
	w := NewWriter(old)
	for i := 0; i < 400; i++ { // valid records over several pages
		w.Append(&Record{Op: OpCommit, TxID: uint64(1000 + i), Key: bytes.Repeat([]byte{0xEE}, 64)})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if old.NumPages() < 3 {
		t.Fatalf("old generation spans only %d pages", old.NumPages())
	}
	freePages(old)
	if fm.FreeExtents() != 1 {
		t.Fatalf("free extents = %d, want the old generation's one", fm.FreeExtents())
	}

	next := fm.Create("log.2", sfile.ClassMeta)
	w = NewWriter(next)
	w.Append(&Record{Op: OpCommit, TxID: 7})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if fm.FreeExtents() != 0 || fm.HighWaterBytes() != sfile.ExtentBytes {
		t.Fatal("the new generation did not reuse the freed extent")
	}
	if got := txids(t, readImage(next)); !slices.Equal(got, []uint64{7}) { // txids fails on Stopped
		t.Fatalf("new generation reads %v, want [7]", got)
	}
}

// TestFlushOnZonedDevice: on an append-only device the sector-run flush
// still overwrites in place — a flush into an already started sector lands
// below the zone write pointer — but each overwrite is a few sectors, not a
// page. Under the redirect shim the redirected bytes collapse; the
// redirect COUNT can only fall, and does so only through a leniency of the
// device model, not through anything the log does: a redirect leaves the
// zone pointer where it was, and the model counts any write at or beyond
// the pointer as an append, so a run that starts past the stale pointer is
// not charged. The zero-redirect log is the sector-padded format ISSUE 14
// rejected.
func TestFlushOnZonedDevice(t *testing.T) {
	sizes := []int{60, 1100, 60, 700, 9000, 60, 1100, 3000, 60, 20000, 60}
	run := func(spec ssd.DeviceSpec, ref bool) (ssd.Stats, int, error) {
		dev, f := newDevFile(spec)
		var w interface {
			Append(*Record) int64
			Flush() error
		} = NewWriter(f)
		if ref {
			w = &refWriter{file: f}
		}
		for i, n := range sizes {
			w.Append(sized(t, uint64(i+1), n))
			if err := w.Flush(); err != nil {
				return dev.Stats(), i, err
			}
		}
		return dev.Stats(), len(sizes), nil
	}

	got, _, err := run(ssd.ZNSAppend, false)
	want, _, refErr := run(ssd.ZNSAppend, true)
	if err != nil || refErr != nil {
		t.Fatal(err, refErr)
	}
	if got.ZoneRedirects == 0 || got.ZoneRedirects > want.ZoneRedirects ||
		got.ZoneRedirects+got.ZoneAppends != want.ZoneRedirects+want.ZoneAppends {
		t.Fatalf("redirect shim: %+v, reference %+v: want the same writes and no more redirects", got, want)
	}
	if got.ZoneRedirectBytes >= want.ZoneRedirectBytes/2 {
		t.Fatalf("redirected bytes %d, reference %d: want far fewer", got.ZoneRedirectBytes, want.ZoneRedirectBytes)
	}
}
