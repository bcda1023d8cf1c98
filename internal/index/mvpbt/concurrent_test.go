package mvpbt

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvpbt/internal/index"
	"mvpbt/internal/storage"
	"mvpbt/internal/util"
)

// TestConcurrentReadersWriters is the race-focused stress test for the
// lock-free read path: parallel Lookup/Scan/ScanAllMatter/DumpKey readers
// run against concurrent writers (inserts, tombstones, key updates) while
// forced evictions and merges republish the partition snapshot. Run under
// -race this exercises the SWMR skiplist, the view publication protocol,
// the segment-reclamation grace period and the recycling of evicted P_Ns'
// memory.
// Correctness check: a reader's snapshot must never see more than one
// visible version per logical tuple, every value read must carry its key's
// id (a recycled buffer reused too early fails that, or -race), and every
// reader must read across several evictions.
func TestConcurrentReadersWriters(t *testing.T) {
	env := newEnv(512, 32<<10) // small partition buffer: constant evictions
	tr := env.tree(Options{Name: "stress", BloomBits: 10, MaxPartitions: 4})

	const keys = 200
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }
	val := func(i int) []byte { return bytes.Repeat([]byte(fmt.Sprintf("v%05d|", i)), 8) }
	// valOK checks an entry's inline value against the id in its key.
	valOK := func(k, v []byte) error {
		i, err := strconv.Atoi(string(k[1:]))
		if err != nil || !bytes.Equal(v, val(i)) {
			return fmt.Errorf("key %q carries value %q", k, v)
		}
		return nil
	}

	// Seed every key with one committed version.
	var rid atomic.Uint64
	newRef := func() index.Ref {
		return index.Ref{RID: storage.RecordID{Page: storage.NewPageID(9, rid.Add(1)), Slot: 0}}
	}
	refs := make([]index.Ref, keys)
	seed := env.mgr.Begin()
	for i := 0; i < keys; i++ {
		refs[i] = newRef()
		if err := tr.InsertRegularVal(seed, key(i), refs[i], val(i)); err != nil {
			t.Fatal(err)
		}
	}
	env.mgr.Commit(seed)

	deadline := time.Now().Add(1 * time.Second)
	if testing.Short() {
		deadline = time.Now().Add(200 * time.Millisecond)
	}
	stop := func() bool { return time.Now().After(deadline) }

	var wg sync.WaitGroup
	fail := make(chan error, 16)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}

	// Writers: version churn through replacements and delete+re-insert
	// pairs. Each writer owns a disjoint key slice (writer w owns keys with
	// i%numWriters == w) so every version chain stays linear — write-write
	// conflicts on one tuple are the heap's job, not the index's.
	const numWriters = 2
	cur := make([]index.Ref, keys) // last COMMITTED head of each chain
	for i := range cur {
		cur[i] = refs[i]
	}
	for w := 0; w < numWriters; w++ {
		wg.Add(1)
		go func(w int, seed uint64) {
			defer wg.Done()
			r := util.NewRand(seed)
			for !stop() {
				i := r.Intn(keys/numWriters)*numWriters + w
				k := key(i)
				tx := env.mgr.Begin()
				next := newRef()
				var err error
				if r.Intn(4) == 0 {
					// Delete the tuple and insert a brand-new one (fresh
					// chain) in the same transaction.
					err = tr.InsertTombstone(tx, k, cur[i].RID)
					if err == nil {
						err = tr.InsertRegularVal(tx, k, next, val(i))
					}
				} else {
					err = tr.pnPut(k, Record{Type: Replacement, TS: tx.ID, Ref: next, OldRID: cur[i].RID, Val: val(i)})
				}
				if err != nil {
					env.mgr.Abort(tx)
					report(err)
					return
				}
				if r.Intn(8) == 0 {
					env.mgr.Abort(tx) // chain head stays cur[i]
				} else {
					env.mgr.Commit(tx)
					cur[i] = next
				}
			}
		}(w, uint64(w+1))
	}

	// Maintenance: forced evictions and merges republish views and free
	// old segments under readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop() {
			if err := tr.EvictPN(); err != nil {
				report(err)
				return
			}
			if err := tr.MergePartitions(); err != nil {
				report(err)
				return
			}
		}
	}()

	// Readers: point lookups and range scans under fresh snapshots. Each
	// notes the evictions it read across.
	var spans [4][2]int64
	for rd := range spans {
		wg.Add(1)
		go func(seed uint64, span *[2]int64) {
			defer wg.Done()
			r := util.NewRand(seed)
			span[0] = tr.Stats().Evictions
			defer func() { span[1] = tr.Stats().Evictions }()
			for !stop() {
				tx := env.mgr.Begin()
				for b := 0; b < 16; b++ {
					k := key(r.Intn(keys))
					switch r.Intn(4) {
					case 0:
						n := 0
						err := tr.Lookup(tx, k, func(e index.Entry) bool {
							if !bytes.Equal(e.Key, k) {
								report(fmt.Errorf("lookup returned key %q for %q", e.Key, k))
							} else if err := valOK(e.Key, e.Val); err != nil {
								report(err)
							}
							n++
							return true
						})
						if err != nil {
							report(err)
						}
						if n > 1 {
							report(fmt.Errorf("snapshot saw %d visible versions of %q", n, k))
						}
					case 1:
						seen := make(map[string]int)
						err := tr.Scan(tx, k, nil, func(e index.Entry) bool {
							if err := valOK(e.Key, e.Val); err != nil {
								report(err)
							}
							seen[string(e.Key)]++
							return len(seen) < 20
						})
						if err != nil {
							report(err)
						}
						for sk, n := range seen {
							if n > 1 {
								report(fmt.Errorf("scan saw %d visible versions of %q", n, sk))
							}
						}
					case 2:
						err := tr.ScanAllMatter(k, nil, func(e index.Entry) bool { return false })
						if err != nil {
							report(err)
						}
					default:
						if _, err := tr.DumpKey(k); err != nil {
							report(err)
						}
					}
				}
				env.mgr.Commit(tx)
			}
		}(uint64(rd+100), &spans[rd])
	}

	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	if env.pbuf.Used() != tr.PNBytes() {
		t.Fatalf("partition buffer total %d, PNBytes %d", env.pbuf.Used(), tr.PNBytes())
	}

	// Ground truth after the storm: every key decides to exactly one
	// visible version under a fresh snapshot (writers always end keys with
	// a committed or aborted regular insert; tombstones are always
	// followed by a re-insert in the same transaction).
	tx := env.mgr.Begin()
	defer env.mgr.Commit(tx)
	for i := 0; i < keys; i++ {
		n := 0
		if err := tr.Lookup(tx, key(i), func(e index.Entry) bool {
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("key %d: %d visible versions after quiesce", i, n)
		}
	}
	for rd, sp := range spans {
		if sp[1]-sp[0] < 3 {
			t.Errorf("reader %d read across %d evictions, want at least 3", rd, sp[1]-sp[0])
		}
	}
}
