package lsm

import (
	"bytes"
	"errors"
	"testing"

	"mvpbt/internal/storage"
)

// A run entry's body is read where it lies in a leaf whose checksum held,
// which proves the leaf is what was written, not that the body is one.
// decodeBody must refuse anything else with storage.ErrCorruptPage and never
// panic, and whatever encodeBody writes must decode back to the input.
//
// Run the full fuzzer with:
//
//	go test -fuzz=FuzzLSMBody -fuzztime=30s ./internal/index/lsm/
func FuzzLSMBody(f *testing.F) {
	f.Add([]byte{}, uint64(0), false, []byte{})
	f.Add([]byte{0x80}, uint64(1), true, []byte("v"))
	f.Add([]byte{3}, uint64(1<<63), false, bytes.Repeat([]byte{0xAB}, 300))
	f.Add([]byte{0xFF, 0xFF, 1, 'x'}, uint64(300), true, []byte{})

	f.Fuzz(func(t *testing.T, raw []byte, seq uint64, tomb bool, val []byte) {
		if _, err := decodeBody(raw); err != nil && !errors.Is(err, storage.ErrCorruptPage) {
			t.Fatalf("decodeBody(%x): %v does not wrap ErrCorruptPage", raw, err)
		}
		in := memEntry{seq: seq, tomb: tomb, val: val}
		enc := encodeBody(nil, in)
		got, err := decodeBody(enc)
		if err != nil || got.seq != in.seq || got.tomb != in.tomb || !bytes.Equal(got.val, in.val) {
			t.Fatalf("round trip of %+v: %+v, %v", in, got, err)
		}
		// Every cut before the flags byte ends is an error.
		for n := 0; n < len(enc)-len(val); n++ {
			if _, err := decodeBody(enc[:n]); !errors.Is(err, storage.ErrCorruptPage) {
				t.Fatalf("body cut to %d of %d header bytes decoded: %v", n, len(enc)-len(val), err)
			}
		}
	})
}
