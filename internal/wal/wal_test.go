package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"mvpbt/internal/sfile"
	"mvpbt/internal/simclock"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
)

// encode renders one framed record, the way Writer.Append lays it out.
func encode(dst []byte, r *Record) []byte { return frame(dst, encodeBody(nil, r)) }

func mustReader(t *testing.T, f *sfile.File) *Reader {
	t.Helper()
	img := readImage(f)
	if want := int(f.NumPages()) * storage.PageSize; len(img) != want {
		t.Fatalf("log image truncated at an unreadable page: %d of %d bytes", len(img), want)
	}
	return NewReaderFromBytes(img)
}

func newFile() *sfile.File {
	_, f := newDevFile(ssd.DeviceSpec{})
	return f
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Op: OpBegin, TxID: 7},
		{Op: OpInsert, TxID: 7, Table: "accounts", Key: []byte("k1"), Row: []byte("row-bytes")},
		{Op: OpUpdate, TxID: 7, Table: "accounts", Key: []byte("k1"), Row: []byte("new-row")},
		{Op: OpDelete, TxID: 7, Table: "accounts", Key: []byte("k1")},
		{Op: OpCommit, TxID: 7},
		{Op: OpAbort, TxID: 9},
	}
	var buf []byte
	for i := range recs {
		buf = encode(buf, &recs[i])
	}
	r := NewReaderFromBytes(buf)
	for i := range recs {
		got, ok := r.Next()
		if !ok {
			t.Fatalf("record %d missing", i)
		}
		if got.Op != recs[i].Op || got.TxID != recs[i].TxID || got.Table != recs[i].Table ||
			!bytes.Equal(got.Key, recs[i].Key) || !bytes.Equal(got.Row, recs[i].Row) {
			t.Fatalf("record %d: %+v != %+v", i, got, recs[i])
		}
	}
	if _, ok := r.Next(); ok {
		t.Fatal("reader returned extra record")
	}
}

func TestWriterReaderThroughFile(t *testing.T) {
	f := newFile()
	w := NewWriter(f)
	const n = 2000 // spans many pages
	for i := 0; i < n; i++ {
		w.Append(&Record{Op: OpInsert, TxID: uint64(i), Table: "t",
			Key: []byte(fmt.Sprintf("key-%05d", i)), Row: bytes.Repeat([]byte("x"), 40)})
		if i%10 == 9 {
			w.Flush()
		}
	}
	w.Flush()
	r := mustReader(t, f)
	for i := 0; i < n; i++ {
		rec, ok := r.Next()
		if !ok {
			t.Fatalf("record %d missing after file round trip", i)
		}
		if rec.TxID != uint64(i) {
			t.Fatalf("record %d out of order: tx=%d", i, rec.TxID)
		}
	}
	if _, ok := r.Next(); ok {
		t.Fatal("extra record after end")
	}
}

func TestUnflushedRecordsLost(t *testing.T) {
	f := newFile()
	w := NewWriter(f)
	w.Append(&Record{Op: OpBegin, TxID: 1})
	w.Flush()
	w.Append(&Record{Op: OpCommit, TxID: 1}) // never flushed: "crash"
	r := mustReader(t, f)
	rec, ok := r.Next()
	if !ok || rec.Op != OpBegin {
		t.Fatalf("flushed record lost: %+v %v", rec, ok)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("unflushed record survived the crash")
	}
}

func TestTornRecordEndsRecovery(t *testing.T) {
	var buf []byte
	buf = encode(buf, &Record{Op: OpBegin, TxID: 1})
	buf = encode(buf, &Record{Op: OpCommit, TxID: 1})
	whole := len(buf)
	buf = encode(buf, &Record{Op: OpInsert, TxID: 2, Table: "t", Row: bytes.Repeat([]byte("y"), 100)})
	// Tear the last record.
	buf = buf[:whole+(len(buf)-whole)/2]
	r := NewReaderFromBytes(buf)
	count := 0
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		count++
	}
	if count != 2 {
		t.Fatalf("recovered %d records, want 2 (torn tail must end recovery)", count)
	}
}

func TestCorruptChecksumRejected(t *testing.T) {
	var buf []byte
	buf = encode(buf, &Record{Op: OpInsert, TxID: 3, Table: "t", Key: []byte("k"), Row: []byte("v")})
	buf[len(buf)/2] ^= 0xFF
	r := NewReaderFromBytes(buf)
	if _, ok := r.Next(); ok {
		t.Fatal("corrupt record accepted")
	}
}

func TestTailPageRewrite(t *testing.T) {
	// Many small flushes must keep extending the same tail page, not
	// allocate a page per commit — and what each rewrites of it is the one
	// sector it dirtied, not the page.
	dev, f := newDevFile(ssd.DeviceSpec{})
	w := NewWriter(f)
	for i := 0; i < 20; i++ {
		w.Append(&Record{Op: OpCommit, TxID: uint64(i)})
		w.Flush()
	}
	if n := f.NumPages(); n > 2 {
		t.Fatalf("20 tiny commits used %d pages", n)
	}
	if st := dev.Stats(); st.Writes != 20 || st.BytesWritten != 20*ssd.SectorSize {
		t.Fatalf("20 tiny commits within one sector: %d writes, %d B, want 20 one-sector writes", st.Writes, st.BytesWritten)
	}
	r := mustReader(t, f)
	count := 0
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		count++
	}
	if count != 20 {
		t.Fatalf("recovered %d records, want 20", count)
	}
}

func TestWrittenCounter(t *testing.T) {
	f := newFile()
	w := NewWriter(f)
	if w.Written() != 0 {
		t.Fatal("fresh writer reports bytes")
	}
	w.Append(&Record{Op: OpBegin, TxID: 1})
	if w.Written() == 0 {
		t.Fatal("Written did not grow")
	}
	before := w.Written()
	w.Flush()
	if w.Written() != before {
		t.Fatal("Flush changed the logical byte count")
	}
}

func TestOpAndRecordStrings(t *testing.T) {
	for op, want := range map[Op]string{
		OpBegin: "begin", OpCommit: "commit", OpAbort: "abort",
		OpInsert: "insert", OpUpdate: "update", OpDelete: "delete", Op(99): "?",
	} {
		if op.String() != want {
			t.Fatalf("Op(%d).String()=%q want %q", op, op.String(), want)
		}
	}
	s := Record{Op: OpInsert, TxID: 4, Table: "t", Key: []byte{0xAB}, Row: []byte("xy")}.String()
	for _, want := range []string{"insert", "tx=4", `"t"`, "ab", "2B"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Fatalf("Record.String()=%q missing %q", s, want)
		}
	}
}

func TestEmptyLogRecovers(t *testing.T) {
	f := newFile()
	r := mustReader(t, f)
	if _, ok := r.Next(); ok {
		t.Fatal("empty log yielded a record")
	}
}

func TestRecordSpanningPages(t *testing.T) {
	f := newFile()
	w := NewWriter(f)
	big := bytes.Repeat([]byte("B"), 3*8192) // record larger than a page
	w.Append(&Record{Op: OpInsert, TxID: 1, Table: "t", Key: []byte("k"), Row: big})
	w.Append(&Record{Op: OpCommit, TxID: 1})
	w.Flush()
	r := mustReader(t, f)
	rec, ok := r.Next()
	if !ok || len(rec.Row) != len(big) {
		t.Fatalf("page-spanning record lost: ok=%v len=%d", ok, len(rec.Row))
	}
	if rec2, ok := r.Next(); !ok || rec2.Op != OpCommit {
		t.Fatal("record after page-spanner lost")
	}
}

func TestStoppedDistinguishesCleanEnd(t *testing.T) {
	var buf []byte
	buf = encode(buf, &Record{Op: OpBegin, TxID: 1})
	buf = encode(buf, &Record{Op: OpCommit, TxID: 1})
	r := NewReaderFromBytes(buf)
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if r.Stopped() {
		t.Fatal("clean end of image reported as stopped")
	}
	// Corrupt the second record: iteration must stop AND report it.
	buf[len(buf)-4] ^= 0x20
	r = NewReaderFromBytes(buf)
	n := 0
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		n++
	}
	if n != 1 || !r.Stopped() {
		t.Fatalf("n=%d stopped=%v, want 1 true", n, r.Stopped())
	}
}

func TestSalvageFindsCommitsPastCorruption(t *testing.T) {
	var buf []byte
	buf = encode(buf, &Record{Op: OpBegin, TxID: 1})
	buf = encode(buf, &Record{Op: OpCommit, TxID: 1})
	cut := len(buf)
	buf = encode(buf, &Record{Op: OpInsert, TxID: 2, Table: "t", Key: []byte("k"), Row: []byte("v")})
	buf = encode(buf, &Record{Op: OpCommit, TxID: 2})
	buf = encode(buf, &Record{Op: OpBegin, TxID: 3}) // no commit
	buf[cut+3] ^= 0x01                               // corrupt tx2's insert
	r := NewReaderFromBytes(buf)
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	if !r.Stopped() || r.Offset() != cut {
		t.Fatalf("stopped=%v off=%d, want true %d", r.Stopped(), r.Offset(), cut)
	}
	commits := Salvage(buf, r.Offset())
	if len(commits) != 1 || commits[0] != 2 {
		t.Fatalf("salvaged commits %v, want [2]", commits)
	}
}

func TestZeroedLengthMidPageIsCorruption(t *testing.T) {
	// A bit flip that zeroes a record's length byte must not be mistaken
	// for tail padding (which would silently skip the rest of the page).
	var buf []byte
	buf = encode(buf, &Record{Op: OpBegin, TxID: 1})
	cut := len(buf)
	buf = encode(buf, &Record{Op: OpCommit, TxID: 1})
	img := make([]byte, storage.PageSize)
	copy(img, buf)
	img[cut] = 0 // zero the commit record's length prefix
	r := NewReaderFromBytes(img)
	n := 0
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		n++
	}
	if n != 1 || !r.Stopped() {
		t.Fatalf("n=%d stopped=%v, want 1 true (zeroed length must stop iteration)", n, r.Stopped())
	}
}

func TestFlushRetriesTransientFaultAndResumes(t *testing.T) {
	dev := ssd.New(simclock.New(), ssd.IntelP3600)
	f := sfile.NewManager(dev).Create("wal", sfile.ClassMeta)
	w := NewWriter(f)
	// One-shot write fault: Flush's in-line retry must mask it.
	dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultWriteErr, Class: ssd.AnyClass, Ops: []uint64{1}})
	w.Append(&Record{Op: OpBegin, TxID: 1})
	if err := w.Flush(); err != nil {
		t.Fatalf("one-shot write fault should be masked by retry: %v", err)
	}
	// Sticky fault: Flush fails, records stay buffered; after disarm a new
	// Flush resumes at the same page and loses nothing.
	id := dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultWriteErr, Class: ssd.AnyClass, Sticky: true})
	w.Append(&Record{Op: OpCommit, TxID: 1})
	if err := w.Flush(); !errors.Is(err, storage.ErrIOFault) {
		t.Fatalf("sticky fault should surface, got %v", err)
	}
	dev.DisarmFault(id)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := mustReader(t, f)
	var ops []Op
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		ops = append(ops, rec.Op)
	}
	if len(ops) != 2 || ops[0] != OpBegin || ops[1] != OpCommit || r.Stopped() {
		t.Fatalf("log after faulty flushes: %v stopped=%v", ops, r.Stopped())
	}
	if n := f.NumPages(); n != 1 {
		t.Fatalf("failed flush left gap pages: %d pages", n)
	}
}

// TestFlushesCounter: the counter feeds the flushes/commit metric, so it
// must count exactly the successful flushes that wrote the device — not
// empty no-ops, not failed attempts.
func TestFlushesCounter(t *testing.T) {
	dev := ssd.New(simclock.New(), ssd.IntelP3600)
	f := sfile.NewManager(dev).Create("wal", sfile.ClassMeta)
	w := NewWriter(f)
	if err := w.Flush(); err != nil || w.Flushes() != 0 {
		t.Fatalf("empty flush: err=%v flushes=%d, want 0", err, w.Flushes())
	}
	w.Append(&Record{Op: OpBegin, TxID: 1})
	w.Append(&Record{Op: OpCommit, TxID: 1})
	if err := w.Flush(); err != nil || w.Flushes() != 1 {
		t.Fatalf("first flush: err=%v flushes=%d, want 1", err, w.Flushes())
	}
	if err := w.Flush(); err != nil || w.Flushes() != 1 {
		t.Fatalf("empty re-flush counted: err=%v flushes=%d, want still 1", err, w.Flushes())
	}
	id := dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultWriteErr, Class: ssd.AnyClass, Sticky: true})
	w.Append(&Record{Op: OpBegin, TxID: 2})
	if err := w.Flush(); err == nil || w.Flushes() != 1 {
		t.Fatalf("failed flush counted: err=%v flushes=%d, want still 1", err, w.Flushes())
	}
	dev.DisarmFault(id)
	if err := w.Flush(); err != nil || w.Flushes() != 2 {
		t.Fatalf("resumed flush: err=%v flushes=%d, want 2", err, w.Flushes())
	}
}
