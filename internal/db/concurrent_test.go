package db

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mvpbt/internal/heap"
	"mvpbt/internal/index/lsm"
	"mvpbt/internal/util"
)

// TestConcurrentTransfersSnapshotInvariant is the classic snapshot
// isolation test: concurrent transfers move money between accounts
// (write-write conflicts abort), while concurrent readers scan all
// balances under their snapshots — every reader must see the exact total,
// at every moment, on every engine.
func TestConcurrentTransfersSnapshotInvariant(t *testing.T) {
	for _, c := range combos() {
		t.Run(c.name, func(t *testing.T) {
			e, tbl, ix := newTable(t, c)
			const accounts = 40
			const initial = 1000

			acctRow := func(id int, balance int64) []byte {
				key := fmt.Sprintf("acct-%03d", id)
				val := make([]byte, 8)
				binary.BigEndian.PutUint64(val, uint64(balance))
				return encodeKVRow([]byte(key), val)
			}
			balanceOf := func(row []byte) int64 {
				return int64(binary.BigEndian.Uint64(kvValue(row)))
			}

			tx := e.Begin()
			for i := 0; i < accounts; i++ {
				if _, _, err := tbl.Insert(tx, acctRow(i, initial)); err != nil {
					t.Fatal(err)
				}
			}
			e.Commit(tx)

			var writerWG, readerWG sync.WaitGroup
			var conflicts, commits atomic.Int64
			stop := make(chan struct{})

			// Writers: random transfers.
			for w := 0; w < 4; w++ {
				writerWG.Add(1)
				go func(seed uint64) {
					defer writerWG.Done()
					r := util.NewRand(seed)
					for i := 0; i < 200; i++ {
						from, to := r.Intn(accounts), r.Intn(accounts)
						if from == to {
							continue
						}
						amount := int64(1 + r.Intn(50))
						tx := e.Begin()
						src, found, err := tbl.LookupOne(tx, ix, []byte(fmt.Sprintf("acct-%03d", from)), true)
						if err != nil || !found {
							e.Abort(tx)
							continue
						}
						dst, found, err := tbl.LookupOne(tx, ix, []byte(fmt.Sprintf("acct-%03d", to)), true)
						if err != nil || !found {
							e.Abort(tx)
							continue
						}
						if _, err := tbl.Update(tx, src, acctRow(from, balanceOf(src.Row)-amount)); err != nil {
							e.Abort(tx)
							if err == heap.ErrWriteConflict {
								conflicts.Add(1)
								continue
							}
							t.Error(err)
							return
						}
						if _, err := tbl.Update(tx, dst, acctRow(to, balanceOf(dst.Row)+amount)); err != nil {
							e.Abort(tx)
							if err == heap.ErrWriteConflict {
								conflicts.Add(1)
								continue
							}
							t.Error(err)
							return
						}
						e.Commit(tx)
						commits.Add(1)
					}
				}(uint64(w + 100))
			}

			// Readers: the total must be constant under every snapshot.
			for rdr := 0; rdr < 2; rdr++ {
				readerWG.Add(1)
				go func() {
					defer readerWG.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						tx := e.Begin()
						total := int64(0)
						n := 0
						err := tbl.Scan(tx, ix, []byte("acct-"), []byte("acct-~"), true, func(rr RowRef) bool {
							total += balanceOf(rr.Row)
							n++
							return true
						})
						e.Commit(tx)
						if err != nil {
							t.Error(err)
							return
						}
						if n != accounts || total != accounts*initial {
							t.Errorf("snapshot violation: %d accounts, total %d (want %d, %d)",
								n, total, accounts, accounts*initial)
							return
						}
					}
				}()
			}

			writerWG.Wait()
			close(stop)
			readerWG.Wait()

			t.Logf("commits=%d conflicts=%d", commits.Load(), conflicts.Load())
			if commits.Load() == 0 {
				t.Fatal("no transfer committed")
			}
			// Final ground truth.
			tx = e.Begin()
			total := int64(0)
			tbl.Scan(tx, ix, []byte("acct-"), []byte("acct-~"), true, func(rr RowRef) bool {
				total += balanceOf(rr.Row)
				return true
			})
			e.Commit(tx)
			if total != accounts*initial {
				t.Fatalf("money not conserved: %d", total)
			}
		})
	}
}

func TestConcurrentKVEngines(t *testing.T) {
	mk := map[string]func() KV{
		"lsm": func() KV {
			return NewLSMKV(NewEngine(Config{BufferPages: 1024}), "l", lsm.Options{MemtableBytes: 64 << 10})
		},
		"mvpbt": func() KV {
			kv, err := NewMVPBTKV(NewEngine(Config{BufferPages: 1024, PartitionBufferBytes: 128 << 10}), "m", MVPBTKVOptions{BloomBits: 10})
			if err != nil {
				t.Fatal(err)
			}
			return kv
		},
		"btree": func() KV {
			kv, err := NewBTreeKV(NewEngine(Config{BufferPages: 1024}), "b")
			if err != nil {
				t.Fatal(err)
			}
			return kv
		},
	}
	for name, make := range mk {
		t.Run(name, func(t *testing.T) {
			kv := make()
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					r := util.NewRand(uint64(g + 1))
					val := []byte("payload")
					for i := 0; i < 400; i++ {
						k := []byte(fmt.Sprintf("g%d-%04d", g, r.Intn(200)))
						switch r.Intn(4) {
						case 0:
							if _, _, err := kv.Get(k); err != nil {
								t.Error(err)
								return
							}
						case 1:
							if err := kv.Delete(k); err != nil {
								t.Error(err)
								return
							}
						default:
							if err := kv.Put(k, val); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			// Each goroutine owned a disjoint key range: verify no
			// cross-contamination and scannability.
			n := 0
			if err := kv.Scan([]byte("g"), 1<<30, func(k, v []byte) bool {
				if string(v) != "payload" {
					t.Errorf("corrupted value %q at %q", v, k)
				}
				n++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatal("nothing survived the concurrent run")
			}
		})
	}
}
