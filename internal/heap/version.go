// Package heap implements the two base-table organizations the paper
// evaluates (§3, §5):
//
//   - HotHeap: PostgreSQL-style heap with Heap-Only Tuples — physically
//     materialized versions, old-to-new chain ordering, two-point
//     invalidation, in-place page updates. Non-HOT updates start a new
//     chain segment and require index maintenance.
//   - SiasHeap: Snapshot Isolation Append Storage — append-only pages,
//     new-to-old ordering, one-point invalidation, sequential write
//     pattern, and an intrinsic VID indirection layer (entry-points).
//
// Both store each tuple-version as an independent slotted-page record
// carrying its version information (Figure 2.A), which is what makes the
// base-table visibility check of version-oblivious indexes cost one random
// read per matching version.
package heap

import (
	"errors"
	"fmt"

	"mvpbt/internal/buffer"
	"mvpbt/internal/page"
	"mvpbt/internal/sfile"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
	"mvpbt/internal/util"
)

// Version record flags.
const (
	flagTombstone   = 1 << 0 // logical delete marker (end of chain)
	flagSegmentRoot = 1 << 1 // version is an index entry-point (HOT heap)
	flagRedirect    = 1 << 2 // pruned entry-point forwarding to the survivor
)

// Version is a decoded tuple-version record: the paper's physically
// materialized version with creation/invalidation timestamps, chain link
// and virtual tuple identifier (Figures 2.A, 4, 5).
type Version struct {
	Tombstone bool
	// SegmentRoot marks versions that have their own index entries in the
	// HOT heap (initial inserts and non-HOT successors). Chain walks from
	// an older segment stop when they reach a root of a newer segment.
	SegmentRoot bool
	// Redirect marks a pruned entry-point (PostgreSQL's LP_REDIRECT):
	// the record carries no tuple, only a Next pointer to the surviving
	// version. Vacuum may never relocate a live version — MV-PBT records
	// hold direct physical references into the middle of HOT chains — so
	// pruning a dead chain prefix leaves the survivor in place and turns
	// the root slot into a redirect instead.
	Redirect bool
	TCreate  txn.TxID
	// TInvalidate is the invalidating transaction under two-point
	// invalidation (HotHeap). SiasHeap uses one-point invalidation and
	// leaves it zero.
	TInvalidate txn.TxID
	// Next links the chain: successor under old-to-new (HotHeap),
	// predecessor under new-to-old (SiasHeap).
	Next storage.RecordID
	// VID is the virtual tuple identifier (indirection layer, §3.5).
	VID uint64
	// Data is the tuple payload (row bytes).
	Data []byte
}

// encodeVersion appends the record encoding of v to dst.
func encodeVersion(dst []byte, v *Version) []byte {
	var flags byte
	if v.Tombstone {
		flags |= flagTombstone
	}
	if v.SegmentRoot {
		flags |= flagSegmentRoot
	}
	if v.Redirect {
		flags |= flagRedirect
	}
	dst = append(dst, flags)
	dst = util.PutUvarint(dst, uint64(v.TCreate))
	// The invalidation timestamp is fixed-width (like PostgreSQL's xmax
	// header field) so that stamping it in place under two-point
	// invalidation NEVER grows the record — an in-place update must always
	// succeed, even on a full page.
	dst = util.EncodeUint64(dst, uint64(v.TInvalidate))
	dst = storage.EncodeRecordID(dst, v.Next)
	dst = util.PutUvarint(dst, v.VID)
	return append(dst, v.Data...)
}

// pinVersion pins rid's page and decodes the version there; its Data aliases
// the page until the caller unpins fr. ok is false, and nothing stays
// pinned, when the slot is empty or err is set. A freed page reads as "gone"
// rather than an error: SIAS vacuum only frees extents whose every record
// was already deleted (invisible to all live snapshots), so a reference
// leading into one is by construction a dead-version reference — the case
// an append-only heap already resolves to "record gone" at the slot level
// (a HOT heap frees no page).
func pinVersion(pool *buffer.Pool, file *sfile.File, rid storage.RecordID) (fr *buffer.Frame, v Version, ok bool, err error) {
	if fr, err = pool.Get(file, rid.Page.PageNo()); err != nil {
		if errors.Is(err, storage.ErrFreedPage) {
			err = nil
		}
		return nil, v, false, err
	}
	if rec := page.Wrap(fr.Data()).Get(int(rid.Slot)); rec != nil {
		if v, err = decodeVersion(rec); err == nil {
			return fr, v, true, nil
		}
	}
	pool.Unpin(fr, false)
	return nil, Version{}, false, err
}

// encoder is a heap's version-encoding buffer, reused under the heap's mu:
// what encode returns is good until the next encode, and page.Insert and
// page.Replace copy it.
type encoder []byte

func (e *encoder) encode(v *Version) []byte {
	*e = encodeVersion((*e)[:0], v)
	return *e
}

// errShortVersion is a slot whose bytes end before a version record's fixed
// fields do. The page's checksum held, so the page is what was written; the
// record in it is not one.
var errShortVersion = fmt.Errorf("heap: short version record: %w", storage.ErrCorruptPage)

// decodeVersion parses a record produced by encodeVersion. The Data field
// aliases src. Any input that is not such a record — empty, or cut short
// before its fixed fields end — is errShortVersion, never a panic.
func decodeVersion(src []byte) (Version, error) {
	var v Version
	if len(src) == 0 {
		return v, errShortVersion
	}
	flags := src[0]
	v.Tombstone = flags&flagTombstone != 0
	v.SegmentRoot = flags&flagSegmentRoot != 0
	v.Redirect = flags&flagRedirect != 0
	tc, n := util.Uvarint(src[1:])
	i := 1 + n
	if n <= 0 || len(src)-i < 8+storage.RecordIDLen {
		return Version{}, errShortVersion
	}
	ti := util.DecodeUint64(src[i:])
	i += 8
	v.TCreate, v.TInvalidate = txn.TxID(tc), txn.TxID(ti)
	v.Next = storage.DecodeRecordID(src[i:])
	i += storage.RecordIDLen
	vid, n := util.Uvarint(src[i:])
	if n <= 0 {
		return Version{}, errShortVersion
	}
	v.VID = vid
	v.Data = src[i+n:]
	return v, nil
}

// UpdateResult reports the outcome of an update or delete.
type UpdateResult struct {
	// NewRID is the record id of the newly created version (the new chain
	// entry-point for SiasHeap; the new segment root for non-HOT updates).
	NewRID storage.RecordID
	// NeedsIndexUpdate is true when the new version is a new index
	// entry-point: physical-reference indexes must be maintained. HOT
	// same-page updates leave it false.
	NeedsIndexUpdate bool
}

// VisibleVersion is the result of a visibility check: the visible version's
// payload and location.
type VisibleVersion struct {
	RID  storage.RecordID
	VID  uint64
	Data []byte
}

// Heap is the base-table contract shared by both organizations.
type Heap interface {
	// Insert creates the initial version of a new tuple.
	Insert(tx *txn.Tx, vid uint64, data []byte) (storage.RecordID, error)
	// Update creates a successor version of the version at prev (which the
	// caller found visible). hotEligible is true when no indexed column
	// changed (the HOT condition); SiasHeap ignores it.
	Update(tx *txn.Tx, prev storage.RecordID, vid uint64, data []byte, hotEligible bool) (UpdateResult, error)
	// Delete appends a tombstone version ending the chain.
	Delete(tx *txn.Tx, prev storage.RecordID, vid uint64) (UpdateResult, error)
	// Visible performs the base-table visibility check starting from an
	// index candidate rid; ok is false when no version of that chain
	// (segment) is visible to tx. The version is returned by value, so that
	// a check allocates only the payload copy.
	Visible(tx *txn.Tx, candidate storage.RecordID) (v VisibleVersion, ok bool, err error)
	// ReadVersion fetches the exact version record at rid.
	ReadVersion(rid storage.RecordID) (Version, error)
	// Vacuum reclaims versions invisible to every snapshot below horizon.
	// It returns the number of version records removed.
	Vacuum(horizon txn.TxID) (int, error)
	// ScanVersions streams the versions a version-oblivious index would
	// hold entries for (HOT: chain-segment roots; SIAS: every non-tombstone
	// version), without applying visibility. It is the base-table side of an
	// index rebuild. fn returning false stops the scan.
	ScanVersions(fn func(rid storage.RecordID, v Version) bool) error
}

// ErrWriteConflict is returned when an update hits a version that a
// concurrent (or later committed) transaction already superseded:
// first-updater-wins under snapshot isolation.
type conflictError struct{}

func (conflictError) Error() string { return "heap: write-write conflict" }

// ErrWriteConflict is the sentinel write-write conflict error.
var ErrWriteConflict error = conflictError{}
