package heap

import (
	"bytes"
	"errors"
	"testing"

	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
)

// A slot's bytes come off a page whose checksum held, which proves the page
// is what was written, not that a slot holds a version record. decodeVersion
// must refuse anything else with storage.ErrCorruptPage and never panic, and
// whatever encodeVersion writes must decode back to the input.
//
// Run the full fuzzer with:
//
//	go test -fuzz=FuzzDecodeVersion -fuzztime=30s ./internal/heap/
func FuzzDecodeVersion(f *testing.F) {
	f.Add([]byte{}, byte(0), uint64(0), uint64(0), uint64(0), uint16(0), uint64(0), []byte{})
	f.Add([]byte{0}, byte(flagTombstone), uint64(1), uint64(0), uint64(0), uint16(0), uint64(1), []byte("row"))
	f.Add([]byte{0, 0x80}, byte(flagSegmentRoot|flagRedirect), uint64(1<<40), uint64(1<<63), uint64(3<<32|99), uint16(7), uint64(1<<62), []byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 20), byte(0xFF), uint64(12345), uint64(67890), uint64(5), uint16(0xFFFF), uint64(424242), bytes.Repeat([]byte{0xAB}, 300))

	f.Fuzz(func(t *testing.T, raw []byte, flags byte, tc, ti, pg uint64, slot uint16, vid uint64, data []byte) {
		if _, err := decodeVersion(raw); err != nil && !errors.Is(err, storage.ErrCorruptPage) {
			t.Fatalf("decodeVersion(%x): %v does not wrap ErrCorruptPage", raw, err)
		}
		v := Version{
			Tombstone: flags&flagTombstone != 0, SegmentRoot: flags&flagSegmentRoot != 0, Redirect: flags&flagRedirect != 0,
			TCreate: txn.TxID(tc), TInvalidate: txn.TxID(ti),
			Next: storage.RecordID{Page: storage.PageID(pg), Slot: slot}, VID: vid, Data: data,
		}
		enc := encodeVersion(nil, &v)
		got, err := decodeVersion(enc)
		if err != nil || got.Tombstone != v.Tombstone || got.SegmentRoot != v.SegmentRoot || got.Redirect != v.Redirect ||
			got.TCreate != v.TCreate || got.TInvalidate != v.TInvalidate || got.Next != v.Next || got.VID != v.VID ||
			!bytes.Equal(got.Data, v.Data) {
			t.Fatalf("round trip of %+v: %+v, %v", v, got, err)
		}
		// Every cut inside the fixed fields is an error, not a shorter record.
		for n := 0; n < len(enc)-len(data); n++ {
			if _, err := decodeVersion(enc[:n]); !errors.Is(err, storage.ErrCorruptPage) {
				t.Fatalf("record cut to %d of %d header bytes decoded: %v", n, len(enc)-len(data), err)
			}
		}
	})
}
