package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"mvpbt/internal/page"
	"mvpbt/internal/sfile"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
)

// Checkpointable log (DESIGN.md §10). A Log is a sequence of GENERATIONS of
// one record stream: generation 0 is the file <name>, generation s the file
// <name>.<s>, and a two-page superblock file <name>meta names the
// authoritative one. Rotate publishes a new generation the way MV-PBT
// publishes a partition (§4.5): write the new immutable thing sequentially,
// flip one checksummed page, free the old. The engines' WAL checkpoint and
// the 2PC coordinator log are both instances; neither knows the recipe.
//
// Crash safety reduces to one atomic step, the superblock page write. Slot
// seq%2 holds {magic, seq, fileID, aux} under the page checksum, so the
// write that supersedes a superblock never overwrites it. A crash before
// the write leaves the old slot authoritative (old generation intact, the
// new one is garbage). A torn write fails the slot's checksum — seq is
// repeated in the page's last sector so that a persisted prefix of the
// write can never be mistaken for the whole of it — and the other slot, the
// old generation, wins. A crash after the write but before the old
// generation is freed leaves both readable and the new slot wins. Only once
// the old pages are freed is the new generation the sole copy, and by then
// it is durably complete.

// ErrClosed is returned by Flush, FlushTo and Rotate once the log is fenced:
// nothing more reaches the device. A commit that meets it did not happen.
var ErrClosed = errors.New("wal: log closed")

// superMagic opens every superblock: "MVPBTWAL".
const superMagic = 0x4d56_5042_5457_414c

// encodeSuper renders a superblock page: magic(8) | seq(8) | fileID(8) |
// aux(8) in the page's client area, seq again in its last 8 bytes. aux is
// the client's own durable word, published atomically with the generation
// (the coordinator log keeps its incarnation there; the engines leave 0).
func encodeSuper(buf []byte, seq uint64, id storage.FileID, aux uint64) {
	p := page.Wrap(buf)
	p.Init()
	c := p.Client()
	binary.LittleEndian.PutUint64(c[0:8], superMagic)
	binary.LittleEndian.PutUint64(c[8:16], seq)
	binary.LittleEndian.PutUint64(c[16:24], uint64(id))
	binary.LittleEndian.PutUint64(c[24:32], aux)
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], seq)
	page.StampChecksum(buf)
}

// decodeSuper validates one superblock page image. ok is false for a torn,
// foreign or never-written slot.
func decodeSuper(buf []byte) (seq uint64, id storage.FileID, aux uint64, ok bool) {
	if len(buf) != storage.PageSize || !page.VerifyChecksum(buf) {
		return 0, 0, 0, false
	}
	c := page.Wrap(buf).Client()
	seq = binary.LittleEndian.Uint64(c[8:16])
	file := binary.LittleEndian.Uint64(c[16:24])
	if binary.LittleEndian.Uint64(c[0:8]) != superMagic || binary.LittleEndian.Uint64(buf[len(buf)-8:]) != seq ||
		file > math.MaxUint32 { // storage.FileID is 32 bits wide
		return 0, 0, 0, false
	}
	return seq, storage.FileID(file), binary.LittleEndian.Uint64(c[24:32]), true
}

// The log's device I/O goes through storage.Retry: transient faults are the
// device's normal behaviour under the fault campaigns.

func writeSectors(f *sfile.File, pageNo uint64, off int, buf []byte, c ssd.Cause) error {
	_, err := storage.Retry(func() error { return f.WriteSectors(pageNo, off, buf, c) })
	return err
}

func readPage(f *sfile.File, pageNo uint64, buf []byte) error {
	_, err := storage.Retry(func() error { return f.ReadPage(pageNo, buf) })
	return err
}

// readImage concatenates a file's pages. A page that stays unreadable
// truncates the image there: the log beyond it is unreachable anyway, since
// replay stops at the first gap.
func readImage(f *sfile.File) []byte {
	n := f.NumPages()
	out := make([]byte, 0, int(n)*storage.PageSize)
	buf := make([]byte, storage.PageSize)
	for i := uint64(0); i < n && readPage(f, i, buf) == nil; i++ {
		out = append(out, buf...)
	}
	return out
}

func freePages(f *sfile.File) {
	if n := f.NumPages(); n > 0 {
		f.FreeRun(0, int(n))
	}
}

// LogStats is a point-in-time view of a Log.
type LogStats struct {
	Seq          uint64 // rotations completed; the live superblock slot is Seq%2
	Aux          uint64 // client word published with the current generation (0 before the first rotation)
	Flushes      int64  // successful device flushes, across all generations
	FlushedBytes int64  // device bytes those flushes wrote, across all generations
	Written      int64  // logical bytes appended (Writer.Written), across all generations
	DeviceBytes  int64  // current generation plus the superblock file
	// BytesBefore and BytesAfter are DeviceBytes on either side of the last
	// completed rotation.
	BytesBefore, BytesAfter int64
}

// Log is a checkpointable generational log. Safe for concurrent use.
type Log struct {
	fm       *sfile.Manager
	name     string
	rotation ssd.Cause // what the device books a rotation's writes to; commit flushes go to w's

	// mu orders appends against rotation: Append and Flush hold it shared
	// (the Writer serialises them), Rotate holds it exclusive while it swaps
	// generations. A client that fills the new generation from state its
	// appenders also mutate must make sure none of them can be blocked on mu
	// while holding what the fill needs (the engine's quiescence check does).
	mu     sync.RWMutex
	w      *Writer     // of the current generation
	meta   *sfile.File // dual-slot superblock, allocated at the first rotation
	base   int64       // w.Written() once the fill was in: Grown counts from here
	st     LogStats    // as Stats returns it, less what lives elsewhere: w's flushes, DeviceBytes
	closed bool        // fenced by Close: Flush and Rotate return ErrClosed

	// BeforeSuper, AfterSuper and AfterFree are crash-instant test seams
	// inside Rotate. Each, when set, runs with the log locked and receives
	// what a crash at that instant would leave on the device (see Image): new
	// generation durable but superblock not yet written; superblock written
	// but old generation not yet freed; old generation freed but nothing
	// appended to the new one yet.
	BeforeSuper, AfterSuper, AfterFree func(img []byte, aux uint64)
}

// NewLog creates an empty log in generation 0, its flushes booked to cause
// flush and its rotations to cause rotation. Nothing touches the device until
// the first Flush.
func NewLog(fm *sfile.Manager, name string, flush, rotation ssd.Cause) *Log {
	return &Log{fm: fm, name: name, rotation: rotation, w: &Writer{file: fm.Create(name, sfile.ClassMeta), cause: flush},
		meta: fm.Create(name+"meta", sfile.ClassMeta)}
}

// Append buffers a record in the current generation (no device I/O) and
// returns its end offset, counted across generations like LogStats.Written.
func (l *Log) Append(r *Record) int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.st.Written + l.w.Append(r)
}

// Flush forces the buffered records to the device (see Writer.Flush).
func (l *Log) Flush() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return ErrClosed
	}
	return l.w.Flush()
}

// FlushTo makes the log durable through end, an offset Append returned (see
// Writer.FlushTo). Past the fence it returns ErrClosed unless a flush before
// the fence covered end. A rotation publishes a durable generation, so an
// end from before it counts as covered: what a generation held unflushed
// when it was replaced is gone, and the rotating client must have nothing
// there it still needs (the engine's quiescence check sees to that).
func (l *Log) FlushTo(end int64) (wrote bool, err error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	end -= l.st.Written
	if !l.closed {
		return l.w.FlushTo(end)
	}
	if l.w.synced.Load() < end {
		return false, ErrClosed
	}
	return false, nil
}

// Synced reports whether a flush has covered the log through end, an offset
// Append returned.
func (l *Log) Synced(end int64) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.st.Written+l.w.synced.Load() >= end
}

// Close fences the log: once it returns, no Flush or Rotate writes the
// device, so Image is what it will stay. Buffered records are not flushed;
// Flush first to keep them. Appends are still buffered, and lost.
func (l *Log) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
}

// Grown returns the logical bytes appended to the current generation since
// it was published — what a size-triggered rotation compares to its
// threshold.
func (l *Log) Grown() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.w.Written() - l.base
}

// Stats snapshots the log's counters.
func (l *Log) Stats() LogStats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	st := l.st
	st.Flushes += l.w.Flushes()
	st.FlushedBytes += l.w.FlushedBytes()
	st.Written += l.w.Written()
	st.DeviceBytes = l.deviceBytes()
	return st
}

func (l *Log) deviceBytes() int64 {
	return int64(l.w.file.NumPages()+l.meta.NumPages()) * storage.PageSize
}

// Rotate replaces the log's content: fill appends the new generation's
// opening records to w (seq is the generation's number; fill must not
// flush — w writes itself out an extent at a time as it is filled), the
// rest of the generation is flushed, ONE superblock page write carrying aux
// publishes it — the commit point — and the old generation's pages go back
// to the device. Appenders wait out the whole call and continue in the new
// generation.
//
// An error from fill is returned as is. That or any later error before the
// superblock write abandons the new generation — whatever of it reached the
// device is given back — and leaves the old one authoritative: the rotation
// simply did not happen.
func (l *Log) Rotate(aux uint64, fill func(w *Writer, seq uint64) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	seq := l.st.Seq + 1
	w := &Writer{spill: true, cause: l.rotation, open: func() *sfile.File {
		return l.fm.Create(fmt.Sprintf("%s.%d", l.name, seq), sfile.ClassMeta)
	}}
	published := false
	defer func() {
		if !published && w.file != nil {
			freePages(w.file)
		}
	}()
	if err := fill(w, seq); err != nil {
		return err
	}
	before := l.deviceBytes()
	if l.meta.NumPages() < 2 {
		if _, err := l.meta.AllocRun(2); err != nil {
			return fmt.Errorf("wal: rotate: superblock alloc: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if w.file == nil {
		w.file = w.open() // an empty generation still needs its (empty) file
	}
	w.spill = false // a published generation flushes at commit, like any log
	l.hook(l.BeforeSuper)

	buf := make([]byte, storage.PageSize)
	encodeSuper(buf, seq, w.file.ID(), aux)
	if err := writeSectors(l.meta, seq%2, 0, buf, l.rotation); err != nil {
		return fmt.Errorf("wal: rotate: superblock write: %w", err)
	}
	published = true
	l.hook(l.AfterSuper)

	// Past the commit point nothing can fail the rotation; at worst the old
	// pages leak until the device is rebuilt.
	freePages(l.w.file)
	l.st.Flushes += l.w.Flushes()
	l.st.FlushedBytes += l.w.FlushedBytes()
	l.st.Written += l.w.Written()
	w.cause, l.w, l.base = l.w.cause, w, w.Written()
	l.st.Seq, l.st.Aux, l.st.BytesBefore, l.st.BytesAfter = seq, aux, before, l.deviceBytes()
	l.hook(l.AfterFree)
	return nil
}

func (l *Log) hook(fn func(img []byte, aux uint64)) {
	if fn != nil {
		fn(l.durable())
	}
}

// Image returns the bytes of the log as persisted on the device — what
// survives a crash, resolved exactly as recovery after a real restart
// would: a crash mid-rotation yields whichever complete generation the
// superblock names. Buffered, unflushed records are not part of it.
func (l *Log) Image() []byte {
	l.mu.RLock()
	defer l.mu.RUnlock()
	img, _ := l.durable()
	return img
}

// durable resolves the authoritative generation and its aux word from the
// superblock: the valid slot with the highest sequence number wins.
// Unreadable or invalid slots are skipped — the other slot still yields a
// complete log — and with no valid slot at all (no rotation has completed)
// the generation in memory is the log.
func (l *Log) durable() (img []byte, aux uint64) {
	best, bestSeq, aux := l.w.file, uint64(0), l.st.Aux
	buf := make([]byte, storage.PageSize)
	for slot := uint64(0); slot < 2; slot++ {
		if readPage(l.meta, slot, buf) != nil {
			continue // unreadable, or the superblock file is still unallocated
		}
		seq, id, a, ok := decodeSuper(buf)
		if !ok || seq < bestSeq {
			continue
		}
		if f := l.fm.Lookup(id); f != nil {
			best, bestSeq, aux = f, seq, a
		}
	}
	return readImage(best), aux
}
