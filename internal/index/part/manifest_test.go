package part

import (
	"bytes"
	"testing"
)

// Segment metadata is read back from the manifest page of a device:
// DecodeMeta must turn any byte string into a segment or an error, never a
// panic. Run the full fuzzer with:
//
//	go test -fuzz=FuzzDecodeMeta -fuzztime=30s ./internal/index/part/

// metaSeeds returns the metadata encodings of a segment with both filters
// and of one with none.
func metaSeeds(tb testing.TB) [][]byte {
	var out [][]byte
	for _, opts := range []BuildOptions{{BloomBitsPerKey: 10, PrefixLen: 4}, {}} {
		e := newEnv(16)
		seg, err := Build(e.pool, e.file, 3, randomKVs(1, 40, 60, 2), 5, 9, opts)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, EncodeMeta(nil, seg))
	}
	return out
}

func FuzzDecodeMeta(f *testing.F) {
	for _, meta := range metaSeeds(f) {
		f.Add(meta)
		f.Add(meta[:len(meta)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Fuzz(func(t *testing.T, b []byte) {
		e := newEnv(4)
		seg, n, err := DecodeMeta(e.pool, e.file, b)
		if err == nil && (seg == nil || n <= 0 || n > len(b) || seg.NumPages <= 0 || seg.rootRel >= seg.NumPages) {
			t.Fatalf("accepted %x as %+v, %d bytes", b, seg, n)
		}
	})
}

// TestDecodeMetaRejectsDamage: every truncation of a valid encoding, and a
// key or filter length prefix rewritten to promise more bytes than follow, is
// an error; the intact encoding round-trips.
func TestDecodeMetaRejectsDamage(t *testing.T) {
	e := newEnv(4)
	for _, meta := range metaSeeds(t) {
		seg, n, err := DecodeMeta(e.pool, e.file, append(bytes.Clone(meta), "trailing"...))
		if err != nil || n != len(meta) || !bytes.Equal(EncodeMeta(nil, seg), meta) {
			t.Fatalf("intact encoding: %d of %d bytes, %v", n, len(meta), err)
		}
		for cut := 0; cut < len(meta); cut++ {
			if _, _, err := DecodeMeta(e.pool, e.file, meta[:cut]); err == nil {
				t.Fatalf("accepted the encoding cut to %d of %d bytes", cut, len(meta))
			}
		}
		// MinKey's length prefix is the first byte that equals the key length
		// and is followed by the key.
		at := bytes.Index(meta, append([]byte{byte(len(seg.MinKey))}, seg.MinKey...))
		if at < 0 {
			t.Fatal("MinKey not found in its own encoding")
		}
		long := bytes.Clone(meta)
		long[at] = 0x7f
		if _, _, err := DecodeMeta(e.pool, e.file, long[:at+1+len(seg.MinKey)]); err == nil {
			t.Fatal("accepted a key length past the end of the buffer")
		}
	}
}
