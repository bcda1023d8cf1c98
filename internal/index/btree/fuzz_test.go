package btree

import (
	"bytes"
	"errors"
	"testing"

	"mvpbt/internal/storage"
)

// A node record comes off a page whose checksum held, which proves the page
// is what was written, not that a slot holds a record. decodeLeaf and
// decodeInternal must refuse anything else with storage.ErrCorruptPage and
// never panic, and whatever encodeLeaf and encodeInternal write must decode
// back to the input.
//
// Run the full fuzzer with:
//
//	go test -fuzz=FuzzBTreeRecord -fuzztime=30s ./internal/index/btree/
func FuzzBTreeRecord(f *testing.F) {
	f.Add([]byte{}, []byte{}, []byte{}, uint64(0))
	f.Add([]byte{5, 'a'}, []byte("key"), []byte("body"), uint64(7))
	f.Add([]byte{0x80}, []byte{}, bytes.Repeat([]byte{0xAB}, 300), uint64(1<<63))
	f.Add([]byte{1, 'k', 3, 'b'}, bytes.Repeat([]byte{'k'}, 200), []byte{}, uint64(1<<40|3))

	f.Fuzz(func(t *testing.T, raw, key, body []byte, child uint64) {
		if _, _, err := decodeLeaf(raw); err != nil && !errors.Is(err, storage.ErrCorruptPage) {
			t.Fatalf("decodeLeaf(%x): %v does not wrap ErrCorruptPage", raw, err)
		}
		if _, _, _, err := decodeInternal(raw); err != nil && !errors.Is(err, storage.ErrCorruptPage) {
			t.Fatalf("decodeInternal(%x): %v does not wrap ErrCorruptPage", raw, err)
		}
		leaf := encodeLeaf(key, body)
		k, b, err := decodeLeaf(leaf)
		if err != nil || !bytes.Equal(k, key) || !bytes.Equal(b, body) {
			t.Fatalf("leaf round trip of (%x, %x): (%x, %x), %v", key, body, k, b, err)
		}
		// A leaf record cut inside its key is an error, not a shorter key.
		for n := 0; n < len(leaf)-len(body); n++ {
			if _, _, err := decodeLeaf(leaf[:n]); !errors.Is(err, storage.ErrCorruptPage) {
				t.Fatalf("leaf record cut to %d of %d key bytes decoded: %v", n, len(leaf)-len(body), err)
			}
		}
		enc := encodeInternal(key, body, child)
		k, b, c, err := decodeInternal(enc)
		if err != nil || !bytes.Equal(k, key) || !bytes.Equal(b, body) || c != child {
			t.Fatalf("internal round trip of (%x, %x, %d): (%x, %x, %d), %v", key, body, child, k, b, c, err)
		}
		// An internal record cut anywhere is an error, not a shorter record.
		for n := 0; n < len(enc); n++ {
			if _, _, _, err := decodeInternal(enc[:n]); !errors.Is(err, storage.ErrCorruptPage) {
				t.Fatalf("internal record cut to %d of %d bytes decoded: %v", n, len(enc), err)
			}
		}
	})
}
