package chbench

import (
	"testing"

	"mvpbt/internal/db"
	"mvpbt/internal/workload/tpcc"
)

func build(t *testing.T, idx db.IndexKind) *Bench {
	t.Helper()
	eng := db.NewEngine(db.Config{BufferPages: 4096, PartitionBufferBytes: 1 << 22})
	b, err := New(eng, tpcc.Config{
		Warehouses: 1, CustomersPerDistrict: 20, Items: 80,
		Heap: db.HeapSIAS, Index: idx, BloomBits: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Load(); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestQueriesConsistentAcrossEngines(t *testing.T) {
	// Same seeded history on MV-PBT and B-Tree engines must produce
	// identical analytical answers.
	mv := build(t, db.IdxMVPBT)
	bt := build(t, db.IdxBTree)
	if err := mv.Run(200); err != nil {
		t.Fatal(err)
	}
	if err := bt.Run(200); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 4; q++ {
		txm := mv.Engine().Begin()
		rm, err := mv.AnalyticalQuery(txm, q)
		if err != nil {
			t.Fatal(err)
		}
		mv.Engine().Commit(txm)
		txb := bt.Engine().Begin()
		rb, err := bt.AnalyticalQuery(txb, q)
		if err != nil {
			t.Fatal(err)
		}
		bt.Engine().Commit(txb)
		if rm != rb {
			t.Fatalf("query %d diverged: mvpbt=%+v btree=%+v", q, rm, rb)
		}
	}
}

func TestSnapshotStableDuringOLTP(t *testing.T) {
	// The HTAP core: an analytical query under an old snapshot must see
	// the database as of snapshot time even as hundreds of transactions
	// commit (transient versions accumulate).
	b := build(t, db.IdxMVPBT)
	snap := b.Engine().Begin()
	before, err := b.Q1OrderLineAggregate(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(200); err != nil {
		t.Fatal(err)
	}
	after, err := b.Q1OrderLineAggregate(snap)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("snapshot drifted: %+v -> %+v", before, after)
	}
	b.Engine().Commit(snap)
	fresh := b.Engine().Begin()
	now, _ := b.Q1OrderLineAggregate(fresh)
	b.Engine().Commit(fresh)
	if now.Rows <= before.Rows {
		t.Fatalf("fresh snapshot should see new order lines: %d <= %d", now.Rows, before.Rows)
	}
}
