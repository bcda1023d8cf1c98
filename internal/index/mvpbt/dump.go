package mvpbt

import (
	"bytes"
	"fmt"

	"mvpbt/internal/txn"
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
// partitions newest to oldest).
func (t *Tree) DumpKey(key []byte) []DumpEntry {
	t.gate.RLock()
	defer t.gate.RUnlock()
	v := t.view.Load()
	rs := t.newReadState(nil)
	defer rs.release()
	segIt := &rs.it
	var out []DumpEntry
	for it := v.pn.Seek(pnKey{key: key, ts: ^txn.TxID(0), seq: ^uint64(0)}); it.Valid(); it.Next() {
		if !bytes.Equal(it.Key().key, key) {
			break
		}
		out = append(out, DumpEntry{Where: "PN", Key: string(key), Rec: it.Value().snapshot()})
	}
	for fi, fz := range v.frozen {
		for it := fz.Seek(pnKey{key: key, ts: ^txn.TxID(0), seq: ^uint64(0)}); it.Valid(); it.Next() {
			if !bytes.Equal(it.Key().key, key) {
				break
			}
			out = append(out, DumpEntry{Where: fmt.Sprintf("F%d", fi), Key: string(key), Rec: it.Value().snapshot()})
		}
	}
	for i := len(v.parts) - 1; i >= 0; i-- {
		seg := v.parts[i]
		for segIt.Seek(seg, key); segIt.Valid(); segIt.Next() {
			r := segIt.Record()
			if !bytes.Equal(r.Key, key) {
				break
			}
			rec, err := decodeRecord(r.Body)
			if err != nil {
				continue
			}
			rec.Val = bytes.Clone(rec.Val) // kept past the iterator's next move
			out = append(out, DumpEntry{Where: fmt.Sprintf("P%d", seg.No), Key: string(key), Rec: rec})
		}
	}
	return out
}
