package db

import (
	"fmt"
	"testing"

	"mvpbt/internal/util"
)

// TestAbortStorm injects a high abort rate into a randomized history:
// half of all transactions roll back after doing real work. No aborted
// effect may ever become visible, on any engine, and the surviving state
// must match a model that only applies committed transactions.
func TestAbortStorm(t *testing.T) {
	for _, c := range combos() {
		t.Run(c.name, func(t *testing.T) {
			e, tbl, ix := newTable(t, c)
			r := util.NewRand(4242)
			model := map[string]string{}
			for step := 0; step < 1200; step++ {
				k := fmt.Sprintf("k%03d", r.Intn(120))
				commit := r.Intn(2) == 0
				tx := e.Begin()
				cur, found, err := tbl.LookupOne(tx, ix, []byte(k), true)
				if err != nil {
					t.Fatal(err)
				}
				v := fmt.Sprintf("s%d", step)
				switch {
				case !found:
					_, _, err = tbl.Insert(tx, row(k, v))
				case r.Intn(8) == 0:
					err = tbl.Delete(tx, cur)
					v = ""
				default:
					_, err = tbl.Update(tx, cur, row(k, v))
				}
				if err != nil {
					t.Fatal(err)
				}
				if commit {
					e.Commit(tx)
					if v == "" {
						delete(model, k)
					} else {
						model[k] = v
					}
				} else {
					e.Abort(tx)
				}
			}
			// Verify the final state matches the committed-only model.
			tx := e.Begin()
			defer e.Commit(tx)
			got := map[string]string{}
			err := tbl.Scan(tx, ix, []byte("k"), []byte("l"), true, func(rr RowRef) bool {
				got[string(keyExtract(rr.Row))] = string(kvValue(rr.Row))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(model) {
				t.Fatalf("live rows %d, model %d", len(got), len(model))
			}
			for k, v := range model {
				if got[k] != v {
					t.Fatalf("key %s: got %q want %q", k, got[k], v)
				}
			}
		})
	}
}

// TestAbortStormWithVacuumAndEviction adds vacuum passes and forced
// MV-PBT evictions to the abort storm: garbage collection must never
// resurrect aborted effects or destroy committed ones.
func TestAbortStormWithVacuumAndEviction(t *testing.T) {
	c := combo{"sias-mvpbt", HeapSIAS, IdxMVPBT, RefPhysical}
	e, tbl, ix := newTable(t, c)
	r := util.NewRand(777)
	model := map[string]string{}
	for step := 0; step < 1500; step++ {
		k := fmt.Sprintf("k%03d", r.Intn(80))
		commit := r.Intn(3) != 0
		tx := e.Begin()
		cur, found, err := tbl.LookupOne(tx, ix, []byte(k), true)
		if err != nil {
			t.Fatal(err)
		}
		v := fmt.Sprintf("s%d", step)
		if !found {
			_, _, err = tbl.Insert(tx, row(k, v))
		} else {
			_, err = tbl.Update(tx, cur, row(k, v))
		}
		if err != nil {
			t.Fatal(err)
		}
		if commit {
			e.Commit(tx)
			model[k] = v
		} else {
			e.Abort(tx)
		}
		switch {
		case step%301 == 0:
			if _, err := tbl.Vacuum(); err != nil {
				t.Fatal(err)
			}
		case step%407 == 0:
			if err := ix.MV().EvictPN(); err != nil {
				t.Fatal(err)
			}
		}
	}
	tx := e.Begin()
	defer e.Commit(tx)
	for k, v := range model {
		rr, found, err := tbl.LookupOne(tx, ix, []byte(k), true)
		if err != nil {
			t.Fatal(err)
		}
		if !found || string(kvValue(rr.Row)) != v {
			t.Fatalf("key %s wrong after GC under aborts: %+v want %q", k, rr, v)
		}
	}
}
