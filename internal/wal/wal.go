// Package wal implements a logical redo log with crash recovery for the
// storage engine. Logging is OPT-IN (db.Config.EnableWAL): the paper's
// experiments run without it, like the paper's own prototype, but a
// downstream adopter gets durability.
//
// The log is logical: one record per row operation (insert / update /
// delete, addressed by table name and primary key) plus transaction
// begin/commit/abort markers. Records are length-prefixed and
// checksummed; recovery replays the operations of committed transactions
// in log order through the normal table interfaces, which rebuilds every
// derived structure (heaps, indexes, indirection tables) from scratch.
// Replay stops at the first torn or corrupt record, so a crash during a
// log flush loses at most the unflushed suffix — never committed state
// that reached the device.
//
// On the device the log is that byte stream cut into pages, appended to in
// units of device sectors: a flush writes the sectors it dirtied and nothing
// else (see Writer), because flash rewards small appends and punishes
// in-place page rewrites.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mvpbt/internal/page"
	"mvpbt/internal/sfile"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/util"
)

// ErrWALCorrupt marks a log whose readable prefix ends at an unreadable
// record even though committed transactions exist beyond it — mid-log
// corruption, as opposed to a harmlessly torn tail. Recovery refuses to
// replay garbage and reports how much committed work was dropped.
var ErrWALCorrupt = errors.New("wal: corrupt record mid-log")

// Op is a log record type.
type Op uint8

// Log record types. The Ckpt* records frame a checkpoint snapshot at the
// head of a log generation: CkptBegin opens it (TxID carries the checkpoint
// sequence number), one CkptRow per committed visible row (Table + Row set,
// Key holds the primary key), and CkptEnd closes it with the row count in
// TxID — replay verifies the count so a torn snapshot can never be mistaken
// for a complete one.
const (
	OpBegin Op = iota + 1
	OpCommit
	OpAbort
	OpInsert
	OpUpdate
	OpDelete
	OpCkptBegin
	OpCkptRow
	OpCkptEnd
	// Two-phase-commit records (presumed abort, see DESIGN.md §12).
	// OpPrepare marks the transaction PREPARED: its row operations are
	// durable but the commit decision belongs to a cross-shard coordinator
	// (Key carries the commit-group id, see GroupKey). A prepared
	// transaction survives recovery IN DOUBT — neither committed nor
	// aborted — until a decide record or an external resolution finishes
	// it. OpDecideCommit/OpDecideAbort are that decision (OpDecideCommit is
	// a commit record in every other respect); OpForget marks a decision
	// fully acknowledged in a coordinator log, so checkpointing can drop it.
	OpPrepare
	OpDecideCommit
	OpDecideAbort
	OpForget
)

// opMax is the highest valid record type; decode rejects anything past it.
const opMax = OpForget

func (o Op) String() string {
	switch o {
	case OpBegin:
		return "begin"
	case OpCommit:
		return "commit"
	case OpAbort:
		return "abort"
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpCkptBegin:
		return "ckpt-begin"
	case OpCkptRow:
		return "ckpt-row"
	case OpCkptEnd:
		return "ckpt-end"
	case OpPrepare:
		return "prepare"
	case OpDecideCommit:
		return "decide-commit"
	case OpDecideAbort:
		return "decide-abort"
	case OpForget:
		return "forget"
	default:
		return "?"
	}
}

// Record is one logical log entry.
type Record struct {
	Op    Op
	TxID  uint64 // transaction id at log-write time (ids are remapped on replay)
	Table string // row ops only
	Key   []byte // primary-key of the target row (update/delete)
	Row   []byte // new row payload (insert/update)
}

// encodeBody renders a record body into scratch (reused across calls by the
// Writer so the hot append path allocates nothing once the buffer has grown).
func encodeBody(scratch []byte, r *Record) []byte {
	body := append(scratch[:0], byte(r.Op))
	body = util.PutUvarint(body, r.TxID)
	body = util.PutUvarint(body, uint64(len(r.Table)))
	body = append(body, r.Table...)
	body = util.PutBytes(body, r.Key)
	body = util.PutBytes(body, r.Row)
	return body
}

// frame appends a record body with its leading length and trailing
// checksum: [len varint][body][CRC32C(body) 4B], the pages' checksum.
func frame(dst, body []byte) []byte {
	dst = util.PutUvarint(dst, uint64(len(body)))
	dst = append(dst, body...)
	return binary.LittleEndian.AppendUint32(dst, page.CRC32C(0, body))
}

// decode parses one record from src, returning it and the bytes consumed.
// ok is false at a torn, truncated or corrupt record. The bytes are
// untrusted even after the checksum matches — a CRC is not a MAC, and a
// mis-framed read can land on a self-consistent region — so every inner
// length is bounds-checked against the body before it is used.
func decode(src []byte) (rec Record, n int, ok bool) {
	l, c := binary.Uvarint(src)
	if c <= 0 || l == 0 || l > uint64(len(src)) || c+int(l)+4 > len(src) {
		return Record{}, 0, false
	}
	body := src[c : c+int(l)]
	if binary.LittleEndian.Uint32(src[c+int(l):]) != page.CRC32C(0, body) {
		return Record{}, 0, false
	}
	rec.Op = Op(body[0])
	if rec.Op < OpBegin || rec.Op > opMax {
		return Record{}, 0, false
	}
	tx, m := binary.Uvarint(body[1:])
	if m <= 0 {
		return Record{}, 0, false
	}
	rec.TxID = tx
	var fields [3][]byte // table, key, row
	rest := body[1+m:]
	for i := range fields {
		fl, fc := binary.Uvarint(rest)
		if fc <= 0 || fl > uint64(len(rest)-fc) {
			return Record{}, 0, false
		}
		fields[i], rest = rest[fc:fc+int(fl)], rest[fc+int(fl):]
	}
	rec.Table = string(fields[0])
	rec.Key = append([]byte(nil), fields[1]...)
	rec.Row = append([]byte(nil), fields[2]...)
	return rec, c + int(l) + 4, true
}

// Writer appends records to a log file. Records buffer in memory and reach
// the device on Flush (called at commit). The log is a byte stream split
// into pages, and the flush unit is the device sector: in each page it
// touches, a flush writes only the run of ssd.SectorSize sectors that holds
// not-yet-durable bytes, from the sector containing the first unflushed byte
// to the zero-padded end of the sector containing the last. A commit pays
// for the sectors it dirtied, not for its whole tail page. Three invariants
// carry this (DESIGN.md §10):
//
//  1. Fresh pages read as zeros. Nothing zero-fills the rest of a new tail
//     page; the Reader sees clean padding there because sfile discards every
//     extent it recycles and the device reads discarded blocks as zeros.
//  2. A torn flush never damages acknowledged bytes. The run starts at the
//     sector holding the last durable byte and rewrites that sector's durable
//     head identically; a torn write persists leading sectors only.
//  3. A failed flush leaves the writer resumable: the unflushed suffix stays
//     buffered from the failed page's first non-durable sector on.
//
// The writer of a log generation under construction (Log.Rotate) is created
// with open instead of file, and spills. It owns no device space until it
// has bytes to put there, and it does not wait for Flush to put them:
// whenever an extent's worth is buffered, Append writes out the whole pages
// among them. A checkpoint therefore stages an extent, not the snapshot, and
// because a page boundary is a sector boundary the device sees the same
// sequence of page writes as one Flush at the end would issue.
type Writer struct {
	mu    sync.Mutex
	file  *sfile.File
	open  func() *sfile.File // creates file at the first flush, when file is nil
	spill bool               // Append flushes whole pages, an extent at a time
	cause ssd.Cause          // what the device books the writes to
	// buf holds the log bytes from the last sector boundary at or below the
	// durable frontier: buf[:durable] is the already durable head of a
	// partially filled sector, buf[durable:] what Append added since. buf[0]
	// sits at offset tailOff (a sector multiple) of page tailPage.
	buf      []byte
	durable  int
	tailPage uint64
	tailOff  int
	haveTail bool
	written  int64        // total logical bytes appended
	synced   atomic.Int64 // written as of the last flush that left nothing buffered

	enc []byte // reused record-body encode buffer, guarded by mu

	flushes      atomic.Int64 // successful Flush calls that reached the device
	flushedBytes atomic.Int64 // device bytes those flushes' sector runs wrote
}

// NewWriter creates a writer logging to file, its flushes booked to
// ssd.CauseWAL.
func NewWriter(file *sfile.File) *Writer {
	return &Writer{file: file, cause: ssd.CauseWAL}
}

// Append adds a record to the log buffer (no device I/O yet) and returns
// the log's length after it: the record's end offset, which FlushTo takes.
func (w *Writer) Append(r *Record) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.enc = encodeBody(w.enc, r)
	before := len(w.buf)
	w.buf = frame(w.buf, w.enc)
	w.written += int64(len(w.buf) - before)
	if w.spill && len(w.buf) >= sfile.ExtentBytes {
		// An error leaves the bytes buffered for Flush to meet it again, and
		// ends the spilling: the owner hears of a fault once, from Flush.
		w.spill = w.writeOut(len(w.buf)-(w.tailOff+len(w.buf))%storage.PageSize) == nil
	}
	return w.written
}

// Written returns the total logical log bytes appended so far.
func (w *Writer) Written() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}

// Flushes returns the number of Flush calls that performed device writes
// and succeeded (flushes of an empty buffer are not counted).
func (w *Writer) Flushes() int64 { return w.flushes.Load() }

// FlushedBytes returns the device bytes written by successful sector-run
// writes: the log's physical traffic, to set against Written.
func (w *Writer) FlushedBytes() int64 { return w.flushedBytes.Load() }

var zeroSector [ssd.SectorSize]byte

// Flush forces buffered records to the device, one sector-run write per
// page touched. Each write is retried a bounded number of times; if it still
// fails, the unflushed suffix stays buffered and the error (wrapping the
// device fault) is returned — a later Flush resumes at exactly the failed
// page, reusing its page number, so no unreadable gap pages are ever left in
// the log. A page allocation failure (device at capacity) likewise leaves
// the suffix buffered; a later Flush — after reclamation — retries the
// allocation.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err := w.flush()
	return err
}

// FlushTo makes the log durable through end, an offset Append returned. It
// returns at once, wrote false, when a flush already covered end: a flush
// covers every record appended before it, which is all group commit needs.
// Otherwise it flushes everything buffered, exactly as Flush does; wrote
// reports whether that reached the device.
func (w *Writer) FlushTo(end int64) (wrote bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.synced.Load() >= end {
		return false, nil
	}
	return w.flush()
}

// flush writes out everything buffered and advances synced. Called with mu
// held.
func (w *Writer) flush() (wrote bool, err error) {
	if len(w.buf) > w.durable {
		if err := w.writeOut(len(w.buf)); err != nil {
			return false, err
		}
		w.flushes.Add(1)
		wrote = true
	}
	w.synced.Store(w.written)
	return wrote, nil
}

// writeOut writes buf[:end] to the device: everything buffered, or a prefix
// that ends on a page boundary. Called with mu held.
func (w *Writer) writeOut(end int) error {
	if w.file == nil {
		w.file = w.open()
	}
	// Zero-pad the last sector in place, past the end of the buffered bytes,
	// so every run is written straight out of buf.
	buffered := len(w.buf)
	w.buf = append(w.buf, zeroSector[:-buffered&(ssd.SectorSize-1)]...)
	var err error
	pos := 0 // buf[pos] is the first byte of the first non-durable sector
	for end-pos > w.durable {
		if !w.haveTail {
			// Allocated only once there are bytes for the page, so a failure
			// leaves no gap page behind.
			if w.tailPage, err = w.file.AllocPage(); err != nil {
				break
			}
			w.haveTail, w.tailOff = true, 0
		}
		n := min(end-pos, storage.PageSize-w.tailOff) // log bytes this page takes
		run := (n + ssd.SectorSize - 1) &^ (ssd.SectorSize - 1)
		if err = writeSectors(w.file, w.tailPage, w.tailOff, w.buf[pos:pos+run], w.cause); err != nil {
			break
		}
		w.flushedBytes.Add(int64(run))
		whole := n &^ (ssd.SectorSize - 1) // the partial last sector stays buffered
		pos, w.tailOff, w.durable = pos+whole, w.tailOff+whole, n-whole
		w.haveTail = w.tailOff < storage.PageSize
	}
	w.buf = append(w.buf[:0], w.buf[pos:buffered]...)
	if err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	return nil
}

// Reader iterates a log image.
type Reader struct {
	data    []byte
	off     int
	stopped bool // Next hit an unreadable record (not clean end-of-data)
}

// NewReaderFromBytes reads a raw log image.
func NewReaderFromBytes(b []byte) *Reader { return &Reader{data: b} }

// Next returns the next valid record; ok is false at end of log (or at
// the first torn record, which by design ends recovery).
func (r *Reader) Next() (Record, bool) {
	for r.off < len(r.data) {
		rec, n, ok := decode(r.data[r.off:])
		if ok {
			r.off += n
			return rec, true
		}
		// A zero length byte means tail padding within a page: skip to the
		// next page boundary and retry — but genuine padding is zero all the
		// way to the boundary; a nonzero byte inside it means a zeroed
		// length prefix, i.e. corruption, not padding.
		if r.data[r.off] == 0 {
			next := (r.off/storage.PageSize + 1) * storage.PageSize
			if next > len(r.data) {
				next = len(r.data)
			}
			for i := r.off; i < next; i++ {
				if r.data[i] != 0 {
					r.stopped = true
					return Record{}, false
				}
			}
			r.off = next
			continue
		}
		r.stopped = true
		return Record{}, false
	}
	return Record{}, false
}

// Stopped reports whether iteration ended at an unreadable record rather
// than at the clean end of the image. Whether that is a harmless torn tail
// or real mid-log corruption is decided by Salvage: only dropped COMMITTED
// transactions make it corruption.
func (r *Reader) Stopped() bool { return r.stopped }

// Offset returns the byte offset reached by Next.
func (r *Reader) Offset() int { return r.off }

// Salvage scans the log image beyond off for decodable records and returns
// the TxIDs of commit records found there. After the readable prefix ends,
// these are transactions whose commit reached the device but which recovery
// cannot safely replay (their operations may lie in the unreadable region):
// the count of such transactions not already applied is the damage a
// corrupt log did.
func Salvage(data []byte, off int) (commits []uint64) {
	for i := off; i >= 0 && i < len(data); i++ {
		if data[i] == 0 {
			continue
		}
		if rec, n, ok := decode(data[i:]); ok {
			if rec.Op == OpCommit || rec.Op == OpDecideCommit {
				commits = append(commits, rec.TxID)
			}
			i += n - 1
		}
	}
	return commits
}

// GroupKey encodes a 2PC commit-group id into a record Key (8 bytes,
// big-endian). OpPrepare records carry the coordinator's group id this way
// so recovery can resolve an in-doubt transaction against the coordinator
// log.
func GroupKey(gid uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], gid)
	return b[:]
}

// GroupID decodes a GroupKey (0 for a malformed key).
func GroupID(key []byte) uint64 {
	if len(key) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(key)
}

// String renders a record for diagnostics.
func (r Record) String() string {
	return fmt.Sprintf("%s tx=%d table=%q key=%x (%dB row)", r.Op, r.TxID, r.Table, r.Key, len(r.Row))
}
