package index

import (
	"bytes"
	"testing"
	"testing/quick"

	"mvpbt/internal/storage"
)

func TestRefCodecRoundTrip(t *testing.T) {
	f := func(file uint32, pageNo uint64, slot uint16, vid uint64) bool {
		r := Ref{
			RID: storage.RecordID{
				Page: storage.NewPageID(storage.FileID(file&0xFFFFFF), pageNo&(1<<40-1)),
				Slot: slot,
			},
			VID: vid,
		}
		enc := EncodeRef(nil, r)
		if len(enc) != RefLen {
			return false
		}
		return DecodeRef(enc) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRefCodecBoundaries pins the exact encoding of the corner cases the
// randomized round-trip is unlikely to hit: the zero Ref, the all-ones VID,
// and RecordIDs at the edges of the 24-bit file / 40-bit page / 16-bit slot
// fields. DecodeRef(EncodeRef(r)) must be the identity and the encoding must
// be big-endian so encoded refs sort like (RID, VID).
func TestRefCodecBoundaries(t *testing.T) {
	maxRID := storage.RecordID{
		Page: storage.NewPageID(storage.FileID(1<<24-1), 1<<40-1),
		Slot: ^uint16(0),
	}
	cases := []struct {
		name string
		ref  Ref
	}{
		{"zero", Ref{}},
		{"zero rid, max vid", Ref{VID: ^uint64(0)}},
		{"max rid, zero vid", Ref{RID: maxRID}},
		{"max everything", Ref{RID: maxRID, VID: ^uint64(0)}},
		{"min valid rid", Ref{RID: storage.RecordID{Page: storage.NewPageID(1, 0)}, VID: 1}},
		{"slot only", Ref{RID: storage.RecordID{Slot: 7}}},
		{"page number overflow masked", Ref{RID: storage.RecordID{Page: storage.NewPageID(2, 1<<39)}, VID: 42}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			enc := EncodeRef(nil, c.ref)
			if len(enc) != RefLen {
				t.Fatalf("encoded length %d, want RefLen=%d", len(enc), RefLen)
			}
			if got := DecodeRef(enc); got != c.ref {
				t.Fatalf("round trip: got %+v, want %+v", got, c.ref)
			}
		})
	}

	// Encoding appends: a non-empty dst must be preserved, with the ref
	// starting exactly at the old length.
	prefix := []byte("key-bytes")
	r := Ref{RID: maxRID, VID: 0x0102030405060708}
	enc := EncodeRef(append([]byte(nil), prefix...), r)
	if len(enc) != len(prefix)+RefLen {
		t.Fatalf("appended length %d, want %d", len(enc), len(prefix)+RefLen)
	}
	if !bytes.Equal(enc[:len(prefix)], prefix) {
		t.Fatalf("prefix clobbered: %q", enc[:len(prefix)])
	}
	if got := DecodeRef(enc[len(prefix):]); got != r {
		t.Fatalf("appended round trip: got %+v, want %+v", got, r)
	}

	// Big-endian VID: encoded refs with equal RIDs compare like their VIDs.
	lo := EncodeRef(nil, Ref{RID: maxRID, VID: 1})
	hi := EncodeRef(nil, Ref{RID: maxRID, VID: 256})
	if bytes.Compare(lo, hi) >= 0 {
		t.Fatal("VID encoding is not big-endian: encoded order != numeric order")
	}
}

func TestKeyInRange(t *testing.T) {
	cases := []struct {
		key, lo, hi string
		hiNil       bool
		want        bool
	}{
		{"b", "a", "c", false, true},
		{"a", "a", "c", false, true},  // lo inclusive
		{"c", "a", "c", false, false}, // hi exclusive
		{"d", "a", "c", false, false},
		{"z", "a", "", true, true}, // nil hi = +inf
		{"a", "b", "", true, false},
	}
	for _, c := range cases {
		var hi []byte
		if !c.hiNil {
			hi = []byte(c.hi)
		}
		if got := KeyInRange([]byte(c.key), []byte(c.lo), hi); got != c.want {
			t.Errorf("KeyInRange(%q, %q, %q/nil=%v) = %v want %v", c.key, c.lo, c.hi, c.hiNil, got, c.want)
		}
	}
}
