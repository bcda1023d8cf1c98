package bench

import (
	"fmt"

	"mvpbt/internal/db"
	"mvpbt/internal/txn"
	"mvpbt/internal/util"
)

// fig3Engine is one storage configuration under test.
type fig3Engine struct {
	name    string
	eng     *db.Engine
	tbl     *db.Table
	ix      *db.Index
	r       *util.Rand
	hot     []byte
	long    *txn.Tx // the long-running reader pinning the chain
	chain   int     // current hot-tuple chain length
	records int
}

// kvRow encodes [keyLen][key][payload] rows; kvKeyExtract is its index key.
func kvRow(key string, payload []byte) []byte {
	row := make([]byte, 0, 1+len(key)+len(payload))
	row = append(row, byte(len(key)))
	row = append(row, key...)
	return append(row, payload...)
}

func kvKeyExtract(row []byte) []byte { return row[1 : 1+int(row[0])] }

func fig3Key(i int) string { return fmt.Sprintf("user%08d", i) }

// runFig3 reproduces the §2 motivation experiment (Figure 3): a mixed
// update/scan workload with a point query on one tuple whose version
// chain grows to 50 versions while a long-running transaction keeps every
// version alive. The version-oblivious B-Tree collapses with chain
// length; PBT does better thanks to append writes; MV-PBT stays flat
// thanks to the index-only visibility check.
func runFig3(s Scale) (*Result, error) {
	records := s.pick(6000, 20000)
	batch := s.pick(150, 400)
	buffer := s.pick(96, 192)
	lengths := []int{1, 2, 4, 6, 8, 10, 15, 20, 30, 40, 50}
	if s == Full {
		lengths = nil
		for l := 1; l <= 50; l += 2 {
			lengths = append(lengths, l)
		}
	}
	payload := make([]byte, 120)

	build := func(name string, hk db.HeapKind, ik db.IndexKind) (*fig3Engine, error) {
		eng := db.NewEngine(engineConfig(buffer, 2<<20))
		tbl, err := eng.NewTable("r", hk, db.IndexDef{
			Name: "pk", Kind: ik, RefMode: db.RefPhysical, Unique: true,
			BloomBits: 10, Extract: kvKeyExtract,
		})
		if err != nil {
			return nil, err
		}
		fe := &fig3Engine{name: name, eng: eng, tbl: tbl, ix: tbl.Indexes()[0],
			r: util.NewRand(1234), hot: []byte(fig3Key(0)), records: records}
		for i := 0; i < records; i += 500 {
			tx := eng.Begin()
			for j := i; j < i+500 && j < records; j++ {
				fe.r.Letters(payload)
				if _, _, err := tbl.Insert(tx, kvRow(fig3Key(j), payload)); err != nil {
					return nil, err
				}
			}
			eng.Commit(tx)
		}
		eng.Pool.FlushAll()
		fe.chain = 1          // the initial insert is version 1
		fe.long = eng.Begin() // pins every version from here on
		return fe, nil
	}

	engines := []*fig3Engine{}
	for _, spec := range []struct {
		name string
		hk   db.HeapKind
		ik   db.IndexKind
	}{
		{"BTree", db.HeapHOT, db.IdxBTree},
		{"PBT", db.HeapSIAS, db.IdxPBT},
		{"MVPBT", db.HeapSIAS, db.IdxMVPBT},
	} {
		fe, err := build(spec.name, spec.hk, spec.ik)
		if err != nil {
			return nil, err
		}
		engines = append(engines, fe)
	}

	res := &Result{
		ID:     "fig3",
		Title:  "Throughput (tx/s) vs version-chain length",
		Header: []string{"chain", "BTree", "PBT", "MVPBT"},
	}
	for _, target := range lengths {
		row := []Cell{count(target, 0)}
		for _, fe := range engines {
			// Grow the hot tuple's chain to the target length. The growth
			// interleaves with unrelated updates (as in the combined
			// workload), so successive versions land on different pages.
			for fe.chain < target {
				if err := fig3Update(fe, fe.hot); err != nil {
					return nil, err
				}
				fe.chain++
				for j := 0; j < 10; j++ {
					k := []byte(fig3Key(1 + fe.r.Intn(fe.records-1)))
					if err := fig3Update(fe, k); err != nil {
						return nil, err
					}
				}
			}
			tput, err := fig3Batch(fe, batch, payload)
			if err != nil {
				return nil, err
			}
			row = append(row, timed(tput, 1))
		}
		res.Add(row...)
	}
	for _, fe := range engines {
		fe.eng.Commit(fe.long)
	}
	res.Note("long-running reader keeps all versions alive; chain = versions of the hot tuple")
	res.Headline("btree_tx/s@50", "tx/s", must(res.Last("BTree")))
	res.Headline("pbt_tx/s@50", "tx/s", must(res.Last("PBT")))
	res.Headline("mvpbt_tx/s@50", "tx/s", must(res.Last("MVPBT")))
	return res, nil
}

// fig3Update creates one successor version of key.
func fig3Update(fe *fig3Engine, key []byte) error {
	tx := fe.eng.Begin()
	cur, found, err := fe.tbl.LookupOne(tx, fe.ix, key, true)
	if err != nil || !found {
		fe.eng.Abort(tx)
		if err == nil {
			err = fmt.Errorf("fig3: hot tuple lost")
		}
		return err
	}
	buf := make([]byte, 120)
	fe.r.Letters(buf)
	if _, err := fe.tbl.Update(tx, cur, kvRow(string(key), buf)); err != nil {
		fe.eng.Abort(tx)
		return err
	}
	fe.eng.Commit(tx)
	return nil
}

// fig3Batch runs the measured mix: updates on random tuples, point
// queries on random tuples and on the hot tuple, and short scans covering
// the hot tuple. Returns tx/s in composite time.
func fig3Batch(fe *fig3Engine, n int, payload []byte) (float64, error) {
	el, err := measure(fe.eng.Clock, func() error {
		for i := 0; i < n; i++ {
			if i%10 == 0 {
				// The paper cleans the OS page cache every second; the
				// equivalent here is periodically evicting the pool, so
				// visibility-check reads pay cold random I/O.
				fe.eng.Pool.EvictAll()
			}
			switch i % 10 {
			case 0, 1: // point query on the HOT tuple (the Figure 1 query)
				tx := fe.eng.Begin()
				if _, _, err := fe.tbl.LookupOne(tx, fe.ix, fe.hot, false); err != nil {
					fe.eng.Abort(tx)
					return err
				}
				fe.eng.Commit(tx)
			case 2, 3, 4: // short scan over the hot tuple's key range (YCSB E)
				tx := fe.eng.Begin()
				cnt := 0
				hi := []byte(fig3Key(10))
				err := fe.tbl.Scan(tx, fe.ix, fe.hot, hi, false, func(db.RowRef) bool {
					cnt++
					return true
				})
				fe.eng.Commit(tx)
				if err != nil {
					return err
				}
			case 5: // point query on a random tuple
				k := []byte(fig3Key(fe.r.Intn(fe.records)))
				tx := fe.eng.Begin()
				if _, _, err := fe.tbl.LookupOne(tx, fe.ix, k, false); err != nil {
					fe.eng.Abort(tx)
					return err
				}
				fe.eng.Commit(tx)
			default: // update a random tuple (but never the hot one)
				k := []byte(fig3Key(1 + fe.r.Intn(fe.records-1)))
				if err := fig3Update(fe, k); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return perSecond(n, el), nil
}
