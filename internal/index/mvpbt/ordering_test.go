package mvpbt

import (
	"bytes"
	"fmt"
	"testing"

	"mvpbt/internal/index"
	"mvpbt/internal/txn"
	"mvpbt/internal/util"
)

// TestPersistedPartitionOrderingInvariant verifies §4.3 on disk: within
// every persisted partition, records are sorted by search key ascending,
// and records with equal keys appear newest-timestamp first. The whole
// visibility check depends on this invariant.
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
