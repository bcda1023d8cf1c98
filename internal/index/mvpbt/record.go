// Package mvpbt implements the paper's contribution: the Multi-Version
// Partitioned B-Tree (§4). MV-PBT is a partitioned B-Tree whose index
// records carry version information — a transaction timestamp plus
// record identifiers of the validated and invalidated tuple-versions —
// enabling the index-only visibility check of §4.4: lookups and scans
// return exactly the entries visible to the calling transaction, without
// fetching base-table version records.
package mvpbt

import (
	"errors"

	"mvpbt/internal/index"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
	"mvpbt/internal/util"
)

// RecType is the index-record type of §4.1.
type RecType uint8

// The four MV-PBT record types.
const (
	// Regular records are created by tuple inserts: pure matter.
	Regular RecType = iota
	// Replacement records are created by non-key updates: matter for the
	// new version plus anti-matter invalidating the predecessor.
	Replacement
	// Anti records are created (together with a replacement record under
	// the new key) by index-key updates: pure anti-matter extinguishing
	// the old-key record.
	Anti
	// Tombstone records are created by deletes: pure anti-matter
	// extinguishing the whole version chain.
	Tombstone
)

func (t RecType) String() string {
	switch t {
	case Regular:
		return "regular"
	case Replacement:
		return "replacement"
	case Anti:
		return "anti"
	default:
		return "tombstone"
	}
}

// Record is a decoded MV-PBT index record (the search key is stored
// separately).
type Record struct {
	Type RecType
	// TS is the logical timestamp of the creating transaction.
	TS txn.TxID
	// Ref is the matter: the reference of the tuple-version this record
	// validates (Regular, Replacement).
	Ref index.Ref
	// OldRID is the anti-matter: the recordID of the tuple-version (and
	// thereby the older index record) this record invalidates
	// (Replacement, Anti, Tombstone).
	OldRID storage.RecordID
	// Val is an optional inline payload: when MV-PBT serves as a
	// clustered multi-version store (the WiredTiger integration of §5),
	// matter records carry the tuple value itself.
	Val []byte
}

// Matter reports whether the record validates a tuple-version.
func (r *Record) Matter() bool { return r.Type == Regular || r.Type == Replacement }

// AntiMatter reports whether the record invalidates a predecessor.
func (r *Record) AntiMatter() bool { return r.Type != Regular && r.OldRID.Valid() }

// Flag bits after the type's two; bits 2 and 5–7 are unused.
const (
	flagOldRID = 1 << 3
	flagVal    = 1 << 4
)

// encodeRecord appends the body encoding of r (without the key).
func encodeRecord(dst []byte, r *Record) []byte {
	flags := byte(r.Type)
	if r.OldRID.Valid() {
		flags |= flagOldRID
	}
	if r.Val != nil {
		flags |= flagVal
	}
	dst = append(dst, flags)
	dst = util.PutUvarint(dst, uint64(r.TS))
	if r.Matter() {
		dst = index.EncodeRef(dst, r.Ref)
	}
	if r.OldRID.Valid() {
		dst = storage.EncodeRecordID(dst, r.OldRID)
	}
	if r.Val != nil {
		dst = util.PutBytes(dst, r.Val)
	}
	return dst
}

// recordLen is len(encodeRecord(nil, r)).
func recordLen(r *Record) int {
	n := 1 + util.UvarintLen(uint64(r.TS))
	if r.Matter() {
		n += index.RefLen
	}
	if r.OldRID.Valid() {
		n += storage.RecordIDLen
	}
	if r.Val != nil {
		n += util.UvarintLen(uint64(len(r.Val))) + len(r.Val)
	}
	return n
}

var errTruncatedRecord = errors.New("mvpbt: truncated record")

// decodeRecord parses a body produced by encodeRecord. The body is read where
// it lies in a page image, so every field is bounds-checked: a body cut short
// or a value length past its end is an error, not a panic.
func decodeRecord(src []byte) (Record, error) {
	if len(src) < 2 {
		return Record{}, errTruncatedRecord
	}
	var r Record
	flags := src[0]
	r.Type = RecType(flags & 3)
	i := 1
	ts, n := util.Uvarint(src[i:])
	if n <= 0 {
		return Record{}, errTruncatedRecord
	}
	i += n
	r.TS = txn.TxID(ts)
	if r.Matter() {
		if len(src)-i < index.RefLen {
			return Record{}, errTruncatedRecord
		}
		r.Ref = index.DecodeRef(src[i:])
		i += index.RefLen
	}
	if flags&flagOldRID != 0 {
		if len(src)-i < storage.RecordIDLen {
			return Record{}, errTruncatedRecord
		}
		r.OldRID = storage.DecodeRecordID(src[i:])
		i += storage.RecordIDLen
	}
	if flags&flagVal != 0 {
		v, _, ok := util.GetBytes(src[i:])
		if !ok {
			return Record{}, errTruncatedRecord
		}
		r.Val = v
	}
	return r, nil
}

// recordSize approximates the in-memory footprint of a PN entry.
func recordSize(key []byte, r *Record) int {
	s := len(key) + 24 // key bytes + flags/ts/bookkeeping
	if r.Matter() {
		s += index.RefLen
	}
	if r.OldRID.Valid() {
		s += storage.RecordIDLen
	}
	return s + len(r.Val)
}
