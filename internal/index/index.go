// Package index defines the contracts shared by the four index
// implementations the paper evaluates: the mutable B⁺-Tree baseline
// (version-oblivious), the Partitioned B-Tree (version-oblivious,
// append-based), the Multi-Version Partitioned B-Tree (version-aware,
// index-only visibility check) and the LSM-Tree (KV baseline).
//
// Version-oblivious indexes return *candidates*: every matching index
// entry, regardless of version visibility. The caller must verify each
// candidate against the base table (random reads — the cost of Figure 2).
// The version-aware MV-PBT returns only entries visible to the calling
// transaction.
package index

import (
	"bytes"
	"fmt"

	"mvpbt/internal/storage"
)

// Ref is what an index entry points at: a physical RecordID, a logical VID
// (indirection layer), or both (§3.5).
type Ref struct {
	RID storage.RecordID
	VID uint64
}

// EncodeRef appends the fixed encoding of r to dst (RecordID then VID).
func EncodeRef(dst []byte, r Ref) []byte {
	dst = storage.EncodeRecordID(dst, r.RID)
	var b [8]byte
	v := r.VID
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
	return append(dst, b[:]...)
}

// RefLen is the encoded size of a Ref.
const RefLen = storage.RecordIDLen + 8

// ErrShortRef is a version-oblivious index's entry body too short to hold a
// Ref. Its page's checksum held, so the index wrote it wrong: the error wraps
// storage.ErrCorruptPage, and the table quarantines and rebuilds the index.
var ErrShortRef = fmt.Errorf("index: entry body shorter than a %d-byte ref: %w", RefLen, storage.ErrCorruptPage)

// DecodeRef reads a Ref written by EncodeRef. It reads RefLen bytes
// unchecked: a caller passing bytes off a page checks the length first.
func DecodeRef(src []byte) Ref {
	r := Ref{RID: storage.DecodeRecordID(src)}
	for i := 0; i < 8; i++ {
		r.VID = r.VID<<8 | uint64(src[storage.RecordIDLen+i])
	}
	return r
}

// Entry is one index result.
//
// LIFETIME: an Entry is handed to a callback, and its Key and Val are valid
// only until that callback returns. They may point into a buffer the index
// reads persisted pages through (part.Iterator) and reuses for the next
// record, the next leaf and the next call; a callback that keeps either
// copies it. Ref is a value and may be kept.
type Entry struct {
	Key []byte
	Ref Ref
	// Val is the inline payload for clustered (multi-version store)
	// indexes; nil for reference-only indexes.
	Val []byte
}

// Candidates is the version-oblivious index contract: results are version
// candidates that require a base-table visibility check.
type Candidates interface {
	// Insert adds an entry. Version-oblivious indexes are maintained on
	// tuple insert, on every update that creates a new entry-point
	// (physical references), and on key updates.
	Insert(key []byte, ref Ref) error
	// LookupCandidates calls fn for every entry with exactly this key, in
	// arbitrary version order. Returning false stops the scan.
	LookupCandidates(key []byte, fn func(Entry) bool) error
	// ScanCandidates calls fn for every entry with lo <= key < hi in key
	// order (ties in arbitrary version order).
	ScanCandidates(lo, hi []byte, fn func(Entry) bool) error
}

// KeyInRange reports lo <= key < hi, with nil hi meaning +infinity.
func KeyInRange(key, lo, hi []byte) bool {
	if bytes.Compare(key, lo) < 0 {
		return false
	}
	return hi == nil || bytes.Compare(key, hi) < 0
}
