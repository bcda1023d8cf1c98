package mvpbt

import (
	"bytes"
	"fmt"
)

// DumpEntry describes one index record for diagnostics (cmd/mvpbt-inspect).
type DumpEntry struct {
	Where string // "PN" or "P<n>"
	Key   string
	Rec   Record
}

func (d DumpEntry) String() string {
	s := fmt.Sprintf("%-4s key=%q %s ts=%d", d.Where, d.Key, d.Rec.Type, d.Rec.TS)
	if d.Rec.Matter() {
		s += fmt.Sprintf(" rid=%v vid=%d", d.Rec.Ref.RID, d.Rec.Ref.VID)
	}
	if d.Rec.OldRID.Valid() {
		s += fmt.Sprintf(" old=%v", d.Rec.OldRID)
	}
	if d.Rec.GCMarked() {
		s += " GC"
	}
	return s
}

// DumpKey returns every index record for key, in processing order (PN
// first, then frozen eviction-pending PNs newest first as F<i>, then
// partitions newest to oldest). A partition it cannot read or decode is an
// error, not a shorter dump.
func (t *Tree) DumpKey(key []byte) ([]DumpEntry, error) {
	var out []DumpEntry
	err := t.walk(nil, nil, key, nil, true, filterNone, func(src walkSrc, _ []byte, rec *Record) bool {
		r := rec.snapshot()
		r.Val = bytes.Clone(r.Val) // kept past the walk
		out = append(out, DumpEntry{Where: src.String(), Key: string(key), Rec: r})
		return true
	})
	return out, err
}
