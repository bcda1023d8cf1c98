package wal

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mvpbt/internal/sfile"
	"mvpbt/internal/simclock"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
)

func newTestLog() (*Log, *sfile.Manager, *ssd.Device) {
	dev := ssd.New(simclock.New(), ssd.IntelP3600)
	fm := sfile.NewManager(dev)
	return NewLog(fm, "log", ssd.CauseWAL, ssd.CauseCheckpoint), fm, dev
}

// txids decodes an image into the TxIDs of its records — the tests tell
// generations apart by the ids they hold.
func txids(t *testing.T, img []byte) []uint64 {
	t.Helper()
	var out []uint64
	r := NewReaderFromBytes(img)
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, rec.TxID)
	}
	if r.Stopped() {
		t.Fatalf("image ends at an unreadable record after %v", out)
	}
	return out
}

func appendFlush(t *testing.T, l *Log, ids ...uint64) {
	t.Helper()
	for _, id := range ids {
		l.Append(&Record{Op: OpCommit, TxID: id})
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushToCovers: FlushTo writes only when no flush has covered its end
// yet, resumes a failed flush like Flush, and keeps the fence's contract —
// after Close an end a flush covered is durable, any other is ErrClosed.
func TestFlushToCovers(t *testing.T) {
	t.Run("covered", func(t *testing.T) {
		l, _, _ := newTestLog()
		first := l.Append(&Record{Op: OpCommit, TxID: 1})
		l.Append(&Record{Op: OpCommit, TxID: 2})
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		flushes := l.Stats().Flushes
		if wrote, err := l.FlushTo(first); wrote || err != nil {
			t.Fatalf("FlushTo of a covered end: wrote=%v err=%v", wrote, err)
		}
		if got := l.Stats().Flushes; got != flushes {
			t.Fatalf("Flushes %d -> %d for a covered end", flushes, got)
		}
	})
	t.Run("resumes after fault", func(t *testing.T) {
		l, _, dev := newTestLog()
		appendFlush(t, l, 1)
		end := l.Append(&Record{Op: OpCommit, TxID: 2})
		id := dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultWriteErr, Class: ssd.AnyClass, Sticky: true})
		if _, err := l.FlushTo(end); !errors.Is(err, storage.ErrIOFault) {
			t.Fatalf("FlushTo under a sticky write fault: %v", err)
		}
		if l.Synced(end) {
			t.Fatal("a failed flush reported the record synced")
		}
		dev.DisarmFault(id)
		if wrote, err := l.FlushTo(end); !wrote || err != nil {
			t.Fatalf("resumed FlushTo: wrote=%v err=%v", wrote, err)
		}
		if !l.Synced(end) {
			t.Fatal("resumed FlushTo did not report the record synced")
		}
		if got := txids(t, l.Image()); !reflect.DeepEqual(got, []uint64{1, 2}) || l.Stats().DeviceBytes != storage.PageSize {
			t.Fatalf("log reads %v over %d B, want [1 2] on the failed page", got, l.Stats().DeviceBytes)
		}
	})
	t.Run("closed", func(t *testing.T) {
		l, _, _ := newTestLog()
		covered := l.Append(&Record{Op: OpCommit, TxID: 1})
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		late := l.Append(&Record{Op: OpCommit, TxID: 2})
		l.Close()
		img := l.Image()
		if wrote, err := l.FlushTo(covered); wrote || err != nil {
			t.Fatalf("FlushTo of a covered end after Close: wrote=%v err=%v", wrote, err)
		}
		if _, err := l.FlushTo(late); !errors.Is(err, ErrClosed) {
			t.Fatalf("FlushTo of an uncovered end after Close: %v, want ErrClosed", err)
		}
		if !reflect.DeepEqual(l.Image(), img) {
			t.Fatal("FlushTo after Close changed the image")
		}
	})
}

func fillWith(ids ...uint64) func(*Writer, uint64) error {
	return func(w *Writer, _ uint64) error {
		for _, id := range ids {
			w.Append(&Record{Op: OpCkptRow, TxID: id})
		}
		return nil
	}
}

// TestLogCrashPoints crashes a rotation at each of its three instants and in
// the middle of a fill large enough to be reaching the device already, and
// tears its superblock write, for an engine-style log (aux stays 0) and a
// coordinator-style log (aux counts up), on the log's first rotation (no
// superblock yet: the fallback is the generation in memory) and on a later
// one (the fallback is the other slot). A "crash" is the durable image and
// aux at that instant — recovery depends on nothing else. During the fill,
// before the superblock write, and after a torn one, the old generation and
// the old aux are authoritative, intact; after it the new ones are, whether
// or not the old pages are freed yet.
func TestLogCrashPoints(t *testing.T) {
	for _, style := range []struct {
		name string
		aux  func(seq uint64) uint64
	}{
		{"engine", func(uint64) uint64 { return 0 }},
		{"coordinator", func(seq uint64) uint64 { return 40 + seq }},
	} {
		for _, prior := range []uint64{0, 1, 2} {
			for _, point := range []string{"mid-fill", "before-super", "after-super", "after-free", "torn-super"} {
				t.Run(fmt.Sprintf("%s/rotation-%d/%s", style.name, prior+1, point), func(t *testing.T) {
					l, fm, dev := newTestLog()
					oldAux := uint64(0)
					old := []uint64{1, 2, 3}
					appendFlush(t, l, old...)
					for seq := uint64(1); seq <= prior; seq++ {
						oldAux = style.aux(seq)
						old = []uint64{100 * seq, 100*seq + 1}
						if err := l.Rotate(oldAux, fillWith(old...)); err != nil {
							t.Fatal(err)
						}
						old = append(old, 100*seq+2)
						appendFlush(t, l, 100*seq+2)
					}
					next := []uint64{9000, 9001, 9002, 9003}
					newAux := style.aux(prior + 1)

					var img []byte
					var aux uint64
					fired := false
					capture := func(b []byte, a uint64) { img, aux, fired = b, a, true }
					want, wantAux := next, newAux
					fill := fillWith(next...)
					switch point {
					case "mid-fill":
						fill = func(w *Writer, _ uint64) error {
							live, row := fm.LiveBytes(), make([]byte, 100<<10)
							for _, id := range next {
								w.Append(&Record{Op: OpCkptRow, TxID: id, Row: row})
							}
							if fm.LiveBytes() == live {
								t.Error("400 KiB into the fill, none of it is on the device")
							}
							capture(l.durable())
							return nil
						}
						want, wantAux = old, oldAux
					case "before-super":
						l.BeforeSuper = capture
						want, wantAux = old, oldAux
					case "after-super":
						l.AfterSuper = capture
					case "after-free":
						l.AfterFree = capture
					case "torn-super":
						// Every attempt at the superblock page persists its
						// first sector — all the fields — and then fails.
						l.BeforeSuper = func([]byte, uint64) {
							dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultTornWrite, Class: ssd.AnyClass, Sticky: true, TornSectors: 1})
						}
					}
					err := l.Rotate(newAux, fill)
					if point != "torn-super" {
						if err != nil || !fired {
							t.Fatalf("Rotate: err=%v, hook fired=%v", err, fired)
						}
						if got := txids(t, img); !reflect.DeepEqual(got, want) || aux != wantAux {
							t.Fatalf("crash image holds %v aux %d, want %v aux %d", got, aux, want, wantAux)
						}
						// The rotation itself completed.
						if got := txids(t, l.Image()); !reflect.DeepEqual(got, next) || l.Stats().Aux != newAux || l.Stats().Seq != prior+1 {
							t.Fatalf("after Rotate: image %v aux %d seq %d", got, l.Stats().Aux, l.Stats().Seq)
						}
						return
					}

					if !errors.Is(err, storage.ErrIOFault) {
						t.Fatalf("Rotate with a torn superblock write: %v, want ErrIOFault", err)
					}
					dev.DisarmAllFaults()
					l.BeforeSuper = nil
					// The rotation did not happen: on the device and in memory
					// the old generation and aux stand, and the log still works.
					if got := txids(t, l.Image()); !reflect.DeepEqual(got, old) || l.Stats().Aux != oldAux || l.Stats().Seq != prior {
						t.Fatalf("after the torn write: image %v aux %d seq %d, want %v aux %d seq %d",
							got, l.Stats().Aux, l.Stats().Seq, old, oldAux, prior)
					}
					appendFlush(t, l, 7)
					if got := txids(t, l.Image()); !reflect.DeepEqual(got, append(old, 7)) {
						t.Fatalf("append after the torn write: image %v", got)
					}
					// The abandoned generation was given back, and the retry
					// reuses the torn slot.
					live := fm.LiveBytes()
					if err := l.Rotate(newAux, fillWith(next...)); err != nil {
						t.Fatalf("retry: %v", err)
					}
					if got := txids(t, l.Image()); !reflect.DeepEqual(got, next) || l.Stats().Aux != newAux {
						t.Fatalf("after the retry: image %v aux %d", got, l.Stats().Aux)
					}
					if fm.LiveBytes() > live {
						t.Fatalf("live bytes grew %d -> %d across a rotation onto a smaller generation", live, fm.LiveBytes())
					}
				})
			}
		}
	}
}

// TestLogFillErrorTouchesNothing: a fill that refuses (the engine's
// quiescence check) leaves no trace — no file, no superblock allocation, no
// sequence number spent.
func TestLogFillErrorTouchesNothing(t *testing.T) {
	l, fm, dev := newTestLog()
	appendFlush(t, l, 1)
	live, writes := fm.LiveBytes(), dev.Stats().Writes
	busy := errors.New("busy")
	if err := l.Rotate(0, func(*Writer, uint64) error { return busy }); err != busy {
		t.Fatalf("Rotate = %v, want the fill's error as is", err)
	}
	if fm.LiveBytes() != live || dev.Stats().Writes != writes || l.Stats().Seq != 0 {
		t.Fatalf("refused rotation left a trace: live %d->%d writes %d->%d seq %d",
			live, fm.LiveBytes(), writes, dev.Stats().Writes, l.Stats().Seq)
	}
}

// TestLogFillSpills: a fill writes itself out as it goes. It holds an
// extent, not the generation; the device sees the page writes one flush at
// the end would have issued, one sequential run; and if the fill then fails,
// or the rotation after it, everything it wrote is given back and the old
// generation stands.
func TestLogFillSpills(t *testing.T) {
	row := make([]byte, 1<<10)
	const rows = 2000 // ~2 MiB
	healthy := true   // the writer spills and the device takes it
	big := func(fail error) func(*Writer, uint64) error {
		return func(w *Writer, _ uint64) error {
			for id := uint64(0); id < rows; id++ {
				w.Append(&Record{Op: OpCkptRow, TxID: id, Row: row})
				if healthy && cap(w.buf) > 3*sfile.ExtentBytes {
					t.Fatalf("row %d: the writer buffers %d bytes", id, cap(w.buf))
				}
			}
			return fail
		}
	}
	l, fm, dev := newTestLog()
	if err := l.Rotate(0, fillWith(1, 2, 3)); err != nil { // the superblock file exists from here on
		t.Fatal(err)
	}
	live := fm.LiveBytes()

	busy := errors.New("busy")
	if err := l.Rotate(0, big(busy)); err != busy {
		t.Fatalf("Rotate = %v, want the fill's error as is", err)
	}
	healthy = false
	dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultWriteErr, Class: ssd.AnyClass, Ops: []uint64{40, 41, 42, 43, 44, 45}}) // the spill's, then the flush's, tries at one page
	if err := l.Rotate(0, big(nil)); !errors.Is(err, storage.ErrIOFault) {
		t.Fatalf("Rotate on a failing device: %v", err)
	}
	if st := dev.Stats().Faults; st.Injected[ssd.FaultWriteErr] != 6 {
		t.Fatalf("%d write faults injected, want the spill's three tries and the flush's three", st.Injected[ssd.FaultWriteErr])
	}
	healthy = true
	if got := txids(t, l.Image()); !reflect.DeepEqual(got, []uint64{1, 2, 3}) || fm.LiveBytes() != live || l.Stats().Seq != 1 {
		t.Fatalf("failed rotations left image %v, live %d -> %d, seq %d", got, live, fm.LiveBytes(), l.Stats().Seq)
	}

	dev.ResetStats()
	dev.SetTracing(true)
	flushes := l.Stats().Flushes
	if err := l.Rotate(0, big(nil)); err != nil {
		t.Fatal(err)
	}
	// The same records through a writer that only flushes at the end, on a
	// device of its own: the same writes, in the same order.
	_, fm2, dev2 := newTestLog()
	w2 := NewWriter(fm2.Create("unspilled", sfile.ClassMeta))
	healthy = false // this one is meant to buffer it all
	if err := big(nil)(w2, 0); err != nil {
		t.Fatal(err)
	}
	dev2.SetTracing(true)
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	spilled, atOnce := dev.Trace(), dev2.Trace()
	if len(spilled) != len(atOnce)+1 { // and the superblock
		t.Fatalf("%d writes, want the %d of one flush and the superblock", len(spilled), len(atOnce))
	}
	for i, w := range atOnce {
		if spilled[i].Op != w.Op || spilled[i].Len != w.Len {
			t.Fatalf("write %d: %v of %d bytes, one flush issues %v of %d", i, spilled[i].Op, spilled[i].Len, w.Op, w.Len)
		}
	}
	if got := txids(t, l.Image()); len(got) != rows || got[rows-1] != rows-1 {
		t.Fatalf("image holds %d records", len(got))
	}
	// One write per page of the generation, the last one a sector run, plus
	// the superblock; sequential but for each (recycled) extent's first.
	st, pages := dev.Stats(), int64(l.w.file.NumPages())
	extents := (pages + sfile.ExtentPages - 1) / sfile.ExtentPages
	if st.Writes != pages+1 || st.SeqWrites < pages-extents || st.BytesWritten <= (pages-1)*storage.PageSize || st.BytesWritten > pages*storage.PageSize+storage.PageSize {
		t.Fatalf("%d writes (%d sequential) of %d bytes for a generation of %d pages", st.Writes, st.SeqWrites, st.BytesWritten, pages)
	}
	if got := l.Stats().Flushes - flushes; got != 1 {
		t.Fatalf("the fill counted as %d flushes, want 1", got)
	}
}

// TestLogFlushesSurviveRotation: the flush counter belongs to the log, not
// to the generation's writer.
func TestLogFlushesSurviveRotation(t *testing.T) {
	l, _, _ := newTestLog()
	appendFlush(t, l, 1)
	appendFlush(t, l, 2)
	if err := l.Rotate(0, fillWith(3)); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Flushes; got != 3 { // two appends and the fill
		t.Fatalf("Flushes = %d after a rotation, want 3", got)
	}
	if l.Grown() != 0 {
		t.Fatalf("Grown = %d right after a rotation, want 0 (the fill is not growth)", l.Grown())
	}
	appendFlush(t, l, 4)
	if got := l.Stats().Flushes; got != 4 {
		t.Fatalf("Flushes = %d, want 4", got)
	}
}
