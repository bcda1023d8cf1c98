package mvpbt

import (
	"bytes"
	"fmt"
	"testing"

	"mvpbt/internal/index"
	"mvpbt/internal/storage"
	"mvpbt/internal/txn"
	"mvpbt/internal/util"
)

// TestPersistedPartitionOrderingInvariant verifies §4.3 on disk: within
// every persisted partition, records are sorted by search key ascending,
// and records with equal keys appear newest-timestamp first. Partitions keep
// a key's records last-written first; the transactions here run one after
// another, so that is timestamp order too. The whole visibility check
// depends on this invariant.
func TestPersistedPartitionOrderingInvariant(t *testing.T) {
	e := newEnv(2048, 1<<26)
	tr := e.tree(Options{BloomBits: 10, DisableGC: true}) // keep every record
	r := util.NewRand(4321)
	type tuple struct {
		ref index.Ref
		key string
	}
	live := map[int]*tuple{}
	for step := 0; step < 4000; step++ {
		id := r.Intn(120)
		tx := e.mgr.Begin()
		tp := live[id]
		switch {
		case tp == nil:
			key := fmt.Sprintf("key-%03d", r.Intn(200))
			ref := e.ref()
			tr.InsertRegular(tx, []byte(key), ref)
			live[id] = &tuple{ref: ref, key: key}
		case r.Intn(12) == 0:
			tr.InsertTombstone(tx, []byte(tp.key), tp.ref.RID)
			delete(live, id)
		case r.Intn(5) == 0:
			nk := fmt.Sprintf("key-%03d", r.Intn(200))
			ref := e.ref()
			tr.InsertKeyUpdate(tx, []byte(tp.key), []byte(nk), ref, tp.ref.RID)
			tp.key, tp.ref = nk, ref
		default:
			ref := e.ref()
			tr.InsertReplacement(tx, []byte(tp.key), ref, tp.ref.RID)
			tp.ref = ref
		}
		e.mgr.Commit(tx)
		if r.Intn(300) == 0 {
			if err := tr.EvictPN(); err != nil {
				t.Fatal(err)
			}
		}
	}
	tr.EvictPN()
	if tr.NumPartitions() < 3 {
		t.Fatalf("want several partitions, got %d", tr.NumPartitions())
	}
	for _, seg := range tr.Partitions() {
		var prevKey []byte
		var prevTS txn.TxID
		n := 0
		for it := seg.Seek(nil); it.Valid(); it.Next() {
			rec, err := decodeRecord(it.Record().Body)
			if err != nil {
				t.Fatal(err)
			}
			k := it.Record().Key
			if prevKey != nil {
				switch bytes.Compare(prevKey, k) {
				case 1:
					t.Fatalf("P%d: keys out of order: %q after %q", seg.No, k, prevKey)
				case 0:
					if rec.TS > prevTS {
						t.Fatalf("P%d key %q: timestamps not descending: %d after %d",
							seg.No, k, rec.TS, prevTS)
					}
				}
			}
			prevKey = append(prevKey[:0], k...)
			prevTS = rec.TS
			n++
		}
		if n != seg.NumRecords {
			t.Fatalf("P%d: iterated %d records, metadata says %d", seg.No, n, seg.NumRecords)
		}
	}
}

// TestLookupAcrossRestartSlots: one key's 96 versions (three of part's
// restart intervals of 32) follow 40 small records in one partition, so they
// cover restart slots of all its leaves and cross the boundaries between
// them. A lookup's seek must land on the newest version, not on a restart
// slot inside the run: under each of three snapshots, unique and not, Lookup
// returns the version that snapshot sees.
func TestLookupAcrossRestartSlots(t *testing.T) {
	for _, unique := range []bool{false, true} {
		e := newEnv(256, 1<<24)
		tr := e.tree(Options{Unique: unique, BloomBits: 10, DisableGC: true}) // keep every version
		for i := 0; i < 40; i++ {
			e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte(fmt.Sprintf("a%03d", i)), e.ref()) })
		}
		hot := []byte("hot")
		refs := make([]index.Ref, 96)
		snaps := map[int]*txn.Tx{} // after which version
		for v := range refs {
			refs[v] = e.ref()
			rec := &Record{Type: Regular, Ref: refs[v], Val: bytes.Repeat([]byte{byte(v)}, 120)}
			if v > 0 {
				rec.Type, rec.OldRID = Replacement, refs[v-1].RID
			}
			e.commit(func(tx *txn.Tx) {
				rec.TS = tx.ID
				if err := tr.pnPut(hot, *rec); err != nil {
					t.Fatal(err)
				}
			})
			if v == 10 || v == 50 || v == 95 {
				snaps[v] = e.mgr.Begin()
			}
		}
		if err := tr.EvictPN(); err != nil {
			t.Fatal(err)
		}
		// ~150-byte versions, ~50 to a leaf: the run ends the partition and
		// fills every leaf after the first, each past its slot 32.
		if seg := tr.Partitions()[0]; tr.NumPartitions() != 1 || seg.NumLeaves < 2 || seg.NumRecords != 136 {
			t.Fatalf("%d partitions, %d leaves, %d records; want the run across leaves", tr.NumPartitions(), seg.NumLeaves, seg.NumRecords)
		}
		for v, s := range snaps {
			var got []storage.RecordID
			var val []byte
			if err := tr.Lookup(s, hot, func(en index.Entry) bool {
				got, val = append(got, en.Ref.RID), bytes.Clone(en.Val)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0] != refs[v].RID || len(val) != 120 || val[0] != byte(v) {
				t.Fatalf("unique %v, snapshot after version %d: got %v, want %v", unique, v, got, refs[v].RID)
			}
			e.mgr.Commit(s)
		}
	}
}
