package mvpbt

import (
	"errors"
	"strings"
	"testing"

	"mvpbt/internal/sfile"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
)

func TestDumpKeyShowsAllLocations(t *testing.T) {
	e := newEnv(256, 1<<22)
	tr := e.tree(Options{})
	v0, v1, v2 := e.ref(), e.ref(), e.ref()
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("k"), v0) })
	tr.EvictPN()
	e.commit(func(tx *txn.Tx) { tr.InsertReplacement(tx, []byte("k"), v1, v0.RID) })
	tr.EvictPN()
	e.commit(func(tx *txn.Tx) { tr.InsertReplacement(tx, []byte("k"), v2, v1.RID) })

	dump, err := tr.DumpKey([]byte("k"))
	if err != nil || len(dump) != 3 {
		t.Fatalf("dump has %d entries (%v), want 3", len(dump), err)
	}
	if dump[0].Source != "PN" {
		t.Fatalf("newest record not in PN: %+v", dump[0])
	}
	// Rendering mentions the record type and location.
	s := dump[0].String()
	for _, want := range []string{"PN", "replacement", "rid="} {
		if !strings.Contains(s, want) {
			t.Fatalf("dump rendering %q missing %q", s, want)
		}
	}
	// Partitions newest to oldest.
	if dump[1].Source != "P1" || dump[2].Source != "P0" {
		t.Fatalf("partition order wrong: %s then %s", dump[1].Source, dump[2].Source)
	}
	if dump[2].Rec.Type != Regular {
		t.Fatalf("oldest record should be the regular insert: %v", dump[2].Rec.Type)
	}
	if dump, err := tr.DumpKey([]byte("absent")); err != nil || len(dump) != 0 {
		t.Fatalf("dump of absent key returned %d records (%v)", len(dump), err)
	}

	// A partition that cannot be read is an error, not a shorter dump.
	for _, seg := range tr.Partitions() {
		e.pool.DropFilePages(tr.file, seg.StartPage, seg.NumLeaves)
	}
	e.dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultBitFlip, Class: int(sfile.ClassIndex), ByteOffset: 777, Sticky: true})
	if dump, err := tr.DumpKey([]byte("k")); !errors.Is(err, storage.ErrCorruptPage) {
		t.Fatalf("dump through a rotted partition: %d entries, %v; want ErrCorruptPage", len(dump), err)
	}
}

func TestStatsSnapshotIndependent(t *testing.T) {
	e := newEnv(256, 1<<22)
	tr := e.tree(Options{BloomBits: 10})
	e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte("k"), e.ref()) })
	tr.EvictPN()
	s1 := tr.Stats()
	r := e.mgr.Begin()
	lookupRIDs(t, tr, r, []byte("k"))
	e.mgr.Commit(r)
	s2 := tr.Stats()
	if s1.Bloom.Positives == s2.Bloom.Positives && s1.Evictions != 1 {
		t.Fatalf("stats not advancing: %+v vs %+v", s1, s2)
	}
	if s1.Evictions != 1 || s2.Evictions != 1 {
		t.Fatalf("eviction counter wrong: %d %d", s1.Evictions, s2.Evictions)
	}
}
