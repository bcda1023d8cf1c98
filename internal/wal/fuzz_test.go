package wal

import (
	"bytes"
	"testing"

	"mvpbt/internal/page"
	"mvpbt/internal/storage"
)

// The log's two decoders read bytes off a device that tears, flips bits and
// (in the fault campaigns) serves reads mis-framed by earlier damage, behind
// a checksum that is not a MAC. Both must classify arbitrary bytes as "not a
// record" / "not a superblock" without panicking or slicing out of bounds,
// and whatever they do accept must round-trip.
//
// Run the full fuzzers with:
//
//	go test -fuzz=FuzzDecodeRecord -fuzztime=30s ./internal/wal/
//	go test -fuzz=FuzzSuperblock -fuzztime=30s ./internal/wal/

// framed wraps an arbitrary body in a valid length prefix and checksum, so
// that hostile bodies reach the code past the checksum comparison.
func framed(body []byte) []byte { return frame(nil, body) }

func FuzzDecodeRecord(f *testing.F) {
	for _, r := range []Record{
		{Op: OpBegin, TxID: 1},
		{Op: OpCommit, TxID: 1 << 40},
		{Op: OpAbort, TxID: 2},
		{Op: OpInsert, TxID: 3, Table: "shard-0/kv", Key: []byte("k"), Row: []byte("row")},
		{Op: OpUpdate, TxID: 3, Table: "t", Key: []byte("k"), Row: bytes.Repeat([]byte{0xAB}, 300)},
		{Op: OpDelete, TxID: 3, Table: "t", Key: []byte("k")},
		{Op: OpCkptBegin, TxID: 7},
		{Op: OpCkptRow, TxID: 7, Table: "t", Key: []byte("k"), Row: []byte("r")},
		{Op: OpCkptEnd, TxID: 1},
		{Op: OpPrepare, TxID: 9, Key: GroupKey(1<<32 | 5)},
		{Op: OpDecideCommit, TxID: 9, Key: GroupKey(1<<32 | 5)},
		{Op: OpDecideAbort, TxID: 9, Key: GroupKey(1<<32 | 5)},
		{Op: OpForget, TxID: 1<<32 | 5},
	} {
		f.Add(encode(nil, &r))
	}
	// Hostile shapes with a MATCHING checksum: inner lengths that overrun
	// the body, unterminated and overlong varints, a body that is only an op.
	f.Add(framed([]byte{byte(OpInsert), 1, 0xFF, 0x7F}))                                                 // table length 16383 in a 4-byte body
	f.Add(framed([]byte{byte(OpInsert), 1, 1, 't', 0xFF}))                                               // key length varint runs off the end
	f.Add(framed([]byte{byte(OpInsert), 0x80}))                                                          // unterminated TxID varint
	f.Add(framed([]byte{byte(OpCommit)}))                                                                // no TxID at all
	f.Add(framed(append([]byte{byte(OpInsert), 1}, bytes.Repeat([]byte{0xFF}, 11)...)))                  // 64-bit varint overflow
	f.Add(framed([]byte{byte(OpInsert), 1, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})) // row length near 2^63
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3})                         // record length near 2^63
	f.Add([]byte{0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Once as found on the device, once as a body under a checksum that
		// matches (which the mutator alone would practically never produce).
		for _, src := range [][]byte{data, framed(data)} {
			rec, n, ok := decode(src)
			if !ok {
				if n != 0 {
					t.Fatalf("rejected record consumed %d bytes", n)
				}
			} else {
				if n <= 0 || n > len(src) {
					t.Fatalf("accepted record consumed %d of %d bytes", n, len(src))
				}
				// Whatever was accepted is a record the encoder can express.
				again, _, ok2 := decode(encode(nil, &rec))
				if !ok2 || again.Op != rec.Op || again.TxID != rec.TxID || again.Table != rec.Table ||
					!bytes.Equal(again.Key, rec.Key) || !bytes.Equal(again.Row, rec.Row) {
					t.Fatalf("accepted record does not round-trip: %v -> %v (ok=%v)", rec, again, ok2)
				}
			}
			// The consumers of decode must hold up on the same bytes.
			r := NewReaderFromBytes(src)
			for {
				if _, more := r.Next(); !more {
					break
				}
			}
			if r.Offset() > len(src) {
				t.Fatalf("reader ran to %d of %d bytes", r.Offset(), len(src))
			}
			Salvage(src, 0)
		}
	})
}

// FuzzSuperblock's input is the two ends of a page, zeros in between: the
// whole superblock format lives in a page's first and last sector, and the
// mutator (and its minimizer) crawl on 8 KiB inputs.
func FuzzSuperblock(f *testing.F) {
	const end = 128
	super := func(seq uint64, id storage.FileID, aux uint64) (head, tail []byte) {
		buf := make([]byte, storage.PageSize)
		encodeSuper(buf, seq, id, aux)
		return buf[:end], buf[storage.PageSize-end:]
	}
	for _, s := range [][3]uint64{
		{1, 3, 0},                           // an engine's first checkpoint
		{2, 4, 7},                           // a coordinator generation carrying incarnation 7
		{^uint64(0), 1<<32 - 1, ^uint64(0)}, // extreme field values
	} {
		head, tail := super(s[0], storage.FileID(s[1]), s[2])
		f.Add(head, tail)
		f.Add(head, []byte{}) // torn: first sector new, the rest old (zero)
	}
	f.Add([]byte{}, []byte{}) // never-written slot: all zeros pass the page checksum

	f.Fuzz(func(t *testing.T, head, tail []byte) {
		raw := make([]byte, storage.PageSize)
		copy(raw, head)
		copy(raw[storage.PageSize-min(len(tail), storage.PageSize):], tail)
		// As found on the device; under a checksum that matches (which the
		// mutator alone would practically never produce); and not a page.
		stamped := append([]byte(nil), raw...)
		page.StampChecksum(stamped)
		for _, src := range [][]byte{raw, stamped, head} {
			seq, id, aux, ok := decodeSuper(src)
			if !ok {
				if seq != 0 || id != 0 || aux != 0 {
					t.Fatalf("rejected superblock leaked fields: %d %d %d", seq, id, aux)
				}
				continue
			}
			// Accepted fields are fields the encoder can express.
			again := make([]byte, storage.PageSize)
			encodeSuper(again, seq, id, aux)
			if s2, i2, a2, ok2 := decodeSuper(again); !ok2 || s2 != seq || i2 != id || a2 != aux {
				t.Fatalf("accepted superblock does not round-trip: (%d %d %d) -> (%d %d %d ok=%v)", seq, id, aux, s2, i2, a2, ok2)
			}
		}
	})
}
