package storage

import "errors"

// Typed storage errors. They live in package storage — the one package every
// storage-layer component already imports — so that ssd, sfile, buffer, heap,
// the indexes, wal and db can all wrap and test for them without
// import cycles. Callers classify with errors.Is.
var (
	// ErrIOFault marks a device-level I/O failure (an injected or simulated
	// media error). It is transient from the caller's point of view: retrying
	// the operation may succeed (see Transient and Retry).
	ErrIOFault = errors.New("storage: device I/O fault")

	// ErrCorruptPage marks a page whose checksum did not match its contents
	// (bit rot, torn write, firmware bug). It is permanent: re-reading the
	// same media returns the same corrupt bytes. Derived structures
	// (B-Tree/PBT runs) respond by quarantine-and-rebuild; base-table and
	// WAL pages surface it as a hard error.
	ErrCorruptPage = errors.New("storage: corrupt page (checksum mismatch)")

	// ErrFreedPage marks an access to a page of a freed or never-allocated
	// run — a use-after-free at the space-manager level. It indicates a
	// stale reference (e.g. an index entry pointing into a reclaimed
	// partition) rather than a media problem.
	ErrFreedPage = errors.New("storage: access to freed or unallocated page")

	// ErrNoSpace marks an extent allocation the device capacity budget
	// cannot satisfy (or an injected ENOSPC fault). It is neither transient
	// like ErrIOFault — retrying without reclaiming space fails the same
	// way — nor permanent like ErrCorruptPage: space reclamation (garbage
	// collection, partition merges, WAL truncation) can clear it. The
	// engine responds by degrading to read-only until reclamation brings
	// usage back under its soft watermark.
	ErrNoSpace = errors.New("storage: device capacity exhausted")
)

// Transient reports whether the operation that returned err may succeed if
// it is issued again: true for ErrIOFault only. A freed page, a corrupt page
// and an exhausted device answer a second try the way they answered the
// first.
func Transient(err error) bool { return errors.Is(err, ErrIOFault) }

// IOAttempts bounds the tries of one device I/O: transient faults are the
// device's normal behaviour under the fault campaigns and worth re-issuing
// in line before the error is surfaced.
const IOAttempts = 3

// Retry is the one in-line retry rule for a device I/O — a page fetch or
// write-back of the buffer pool, a sector run or page of the log, a page of
// a partition under construction, an extent read of a merge: op is issued
// until it succeeds, fails with an error that is not Transient, or has been
// tried IOAttempts times. It returns how many times op was re-issued and
// op's last error.
func Retry(op func() error) (retries int, err error) {
	for {
		if err = op(); err == nil || !Transient(err) || retries == IOAttempts-1 {
			return retries, err
		}
		retries++
	}
}
