package check

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"mvpbt/internal/db"
	"mvpbt/internal/index/part"
	"mvpbt/internal/ssd"
)

// TestMain runs every test of this package with part.SetPoison on: whatever
// the differential harness and the campaigns read from a persisted partition
// is overwritten with 0xDB the moment the index.Entry lifetime rule says it
// is gone, so a consumer anywhere in the stack that keeps a key or a value
// too long disagrees with the oracle instead of happening to read the right
// bytes from a buffer nobody has reused yet.
func TestMain(m *testing.M) {
	part.SetPoison(true)
	os.Exit(m.Run())
}

// TestCampaignSeedsUnderPoison is one seed of the two slices whose cells are
// run at their default size (the hostile scenarios on one device of the zoo,
// and the chaos campaign's crash plan, kind=2pc), exactly as `make
// check-scenarios` and `make check-chaos` run them; TestCampaignSmoke's
// slices and TestHarnessSmoke are poisoned with the rest of the package.
func TestCampaignSeedsUnderPoison(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign seeds are seconds-long")
	}
	for name, sel := range map[string]Selection{
		"scenarios": {Seeds: []uint64{1}, Filter: map[string][]string{"device": {ssd.Zoo()[0].Name}}},
		"chaos":     {Seeds: []uint64{1}, Filter: map[string][]string{"kind": {"2pc"}}},
	} {
		var out strings.Builder
		if _, failed := CampaignByName(name).Run(sel, &out); failed {
			t.Errorf("%s", out.String())
		}
	}
}

// TestRetainedRowRefUnderPoison keeps the RowRefs of a Table.Scan over
// persisted partitions past the scan, the way TPC-C and the harness do. What
// RowRef promises to outlive the callback does — RID, VID, the Row copied
// from the heap, and a Key the callback copied — and the Key it does not
// promise (RowRef.Key) is loud: it reads 0xDB, not the next entry's key.
func TestRetainedRowRefUnderPoison(t *testing.T) {
	e := db.NewEngine(db.Config{})
	tbl, err := e.NewTable("t", db.HeapSIAS, db.IndexDef{
		Name: "pk", Kind: db.IdxMVPBT, Unique: true,
		Extract: func(row []byte) []byte { return row[:8] },
	})
	if err != nil {
		t.Fatal(err)
	}
	const rows, parts = 600, 3
	row := func(i int) []byte { return []byte(fmt.Sprintf("key%05d|payload-%05d", i, i)) }
	pk := tbl.Index("pk")
	for p := 0; p < parts; p++ {
		tx := e.Begin()
		for i := p; i < rows; i += parts {
			if _, _, err := tbl.Insert(tx, row(i)); err != nil {
				t.Fatal(err)
			}
		}
		e.Commit(tx)
		if err := pk.MV().EvictPN(); err != nil {
			t.Fatal(err)
		}
	}
	tx := e.Begin()
	defer e.Commit(tx)
	var kept []db.RowRef
	var keys [][]byte
	if err := tbl.Scan(tx, pk, nil, nil, true, func(rr db.RowRef) bool {
		kept = append(kept, rr)
		keys = append(keys, append([]byte(nil), rr.Key...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(kept) != rows {
		t.Fatalf("scan returned %d rows, want %d", len(kept), rows)
	}
	for i, rr := range kept {
		want := row(i)
		if !bytes.Equal(rr.Row, want) || !bytes.Equal(keys[i], want[:8]) {
			t.Fatalf("row %d: kept Row %q with copied Key %q, want %q", i, rr.Row, keys[i], want)
		}
		if got, found, err := tbl.LookupOne(tx, pk, keys[i], true); err != nil || !found || got.RID != rr.RID || got.VID != rr.VID {
			t.Fatalf("row %d: lookup by the copied key: %+v, %v; the scan had RID %v VID %d", i, got, err, rr.RID, rr.VID)
		}
		if !bytes.Equal(rr.Key, bytes.Repeat([]byte{0xDB}, len(rr.Key))) {
			t.Fatalf("row %d: the Key kept without a copy reads %q: it should have been poisoned", i, rr.Key)
		}
	}
}
