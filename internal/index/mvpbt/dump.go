package mvpbt

import (
	"bytes"
	"fmt"
)

// RawEntry is one physical index record as stored, with its source. In a
// DumpRange callback Key and Rec.Val follow index.Entry's lifetime rule:
// good until the callback returns.
type RawEntry struct {
	// Source is "PN" for the main-memory partition and "P<no>" for
	// persisted partitions, newest first — the §4.3 processing order.
	Source string
	Key    []byte
	Rec    Record
}

// String renders the entry for diagnostics (cmd/mvpbt-inspect).
func (d RawEntry) String() string {
	s := fmt.Sprintf("%-4s key=%q %s ts=%d", d.Source, d.Key, d.Rec.Type, d.Rec.TS)
	if d.Rec.Matter() {
		s += fmt.Sprintf(" rid=%v vid=%d", d.Rec.Ref.RID, d.Rec.Ref.VID)
	}
	if d.Rec.OldRID.Valid() {
		s += fmt.Sprintf(" old=%v", d.Rec.OldRID)
	}
	return s
}

// DumpRange streams every index record with lo <= key < hi (hi nil =
// +inf), source by source in processing order (PN, then the partitions
// newest to oldest), each source in key order, a key's records
// last-written first. No visibility filtering; fn returning false stops.
// Safe to run concurrently with readers and writers — it sees the view
// current at call time. A partition it cannot read or decode is an error,
// not a shorter dump.
func (t *Tree) DumpRange(lo, hi []byte, fn func(RawEntry) bool) error {
	return t.dump(lo, hi, false, fn)
}

// DumpKey is DumpRange's point case, collected: every index record for key,
// copied so that it may be kept.
func (t *Tree) DumpKey(key []byte) ([]RawEntry, error) {
	var out []RawEntry
	err := t.dump(key, nil, true, func(e RawEntry) bool {
		e.Key, e.Rec.Val = bytes.Clone(e.Key), bytes.Clone(e.Rec.Val)
		out = append(out, e)
		return true
	})
	return out, err
}

// dump is the walk behind both, with no partition filter: the dumps show
// what is there.
func (t *Tree) dump(lo, hi []byte, point bool, fn func(RawEntry) bool) error {
	at, name := walkSrc{n: -1}, "" // the source being dumped and its name, made once per source
	return t.walk(nil, nil, lo, hi, point, filterNone, func(src walkSrc, key []byte, rec *Record) bool {
		if src != at {
			at, name = src, src.String()
		}
		return fn(RawEntry{Source: name, Key: key, Rec: *rec})
	})
}
