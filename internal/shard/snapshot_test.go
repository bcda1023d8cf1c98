package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"mvpbt/internal/db"
)

// pairOnDistinctShards probes for two keys owned by two different shards:
// the smallest unit of a cross-shard logical operation.
func pairOnDistinctShards(t *testing.T, r *Router, tag string) (k1, k2 []byte) {
	t.Helper()
	k1 = []byte(fmt.Sprintf("%s-left", tag))
	s1 := r.ShardOf(k1)
	for i := 0; i < 10000; i++ {
		k2 = []byte(fmt.Sprintf("%s-right-%04d", tag, i))
		if r.ShardOf(k2) != s1 {
			return k1, k2
		}
	}
	t.Fatal("no cross-shard pair found")
	return nil, nil
}

// TestSnapshotNoTornCut is the randomized multi-client consistency test:
// per key pair, one writer commits version v to BOTH keys in one
// multi-shard transaction (K1@shard-A, K2@shard-B, one logical op);
// concurrent readers take cross-shard snapshots and must always observe
// the pair at the SAME version — both-or-neither for every commit, never
// a torn cut where one shard's half landed and the other's did not.
//
// Each pair has a single writer (versions are then monotone per shard),
// while readers are many and pick pairs at random, so a snapshot that
// interleaved with the middle of any commit group would read k1@v and
// k2@v' with v != v' and fail loudly.
func TestSnapshotNoTornCut(t *testing.T) {
	r := newRouter(t, 4)

	const pairs = 3
	const commitsPerPair = 120
	const readers = 4

	type pair struct{ k1, k2 []byte }
	ps := make([]pair, pairs)
	for i := range ps {
		k1, k2 := pairOnDistinctShards(t, r, fmt.Sprintf("p%d", i))
		ps[i] = pair{k1, k2}
		// Seed version 0 so readers never see the pair half-initialized.
		tx, err := r.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Put(k1, []byte("00000000")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Put(k2, []byte("00000000")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	var writersDone atomic.Int32
	var wg sync.WaitGroup
	errc := make(chan error, pairs+readers)

	for pi := range ps {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			defer writersDone.Add(1)
			p := ps[pi]
			for v := 1; v <= commitsPerPair; v++ {
				tx, err := r.Begin()
				if err != nil {
					errc <- err
					return
				}
				val := []byte(fmt.Sprintf("%08d", v))
				if err := tx.Put(p.k1, val); err != nil {
					tx.Abort()
					errc <- err
					return
				}
				if err := tx.Put(p.k2, val); err != nil {
					tx.Abort()
					errc <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errc <- err
					return
				}
			}
		}(pi)
	}

	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(ri)))
			for writersDone.Load() < pairs {
				p := ps[rng.Intn(pairs)]
				tx, err := r.Begin()
				if err != nil {
					errc <- err
					return
				}
				v1, ok1, err1 := tx.AppendGet(nil, p.k1)
				v2, ok2, err2 := tx.AppendGet(nil, p.k2)
				tx.Commit()
				if err1 != nil || err2 != nil {
					errc <- fmt.Errorf("snapshot read: %v / %v", err1, err2)
					return
				}
				if !ok1 || !ok2 {
					errc <- fmt.Errorf("torn cut: pair half-visible (%v/%v)", ok1, ok2)
					return
				}
				if string(v1) != string(v2) {
					errc <- fmt.Errorf("torn cut: %q@%q vs %q@%q", p.k1, v1, p.k2, v2)
					return
				}
			}
		}(ri)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Every pair ends at its final version on both shards.
	want := fmt.Sprintf("%08d", commitsPerPair)
	for _, p := range ps {
		v1, ok1, _ := r.Get(p.k1)
		v2, ok2, _ := r.Get(p.k2)
		if !ok1 || !ok2 || string(v1) != want || string(v2) != want {
			t.Fatalf("final state wrong: %q=%q(%v) %q=%q(%v) want %q",
				p.k1, v1, ok1, p.k2, v2, ok2, want)
		}
	}
}

// TestScanNoTornCut: the consistent cut must hold for multi-shard SCANS
// too — a scan that merges per-shard streams at one snapshot vector must
// see a concurrently rewritten pair at a single version.
func TestScanNoTornCut(t *testing.T) {
	r := newRouter(t, 2)
	k1, k2 := pairOnDistinctShards(t, r, "scanpair")

	seed, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	seed.Put(k1, []byte("00000000"))
	seed.Put(k2, []byte("00000000"))
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	const commits = 100
	var done atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 2)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for v := 1; v <= commits; v++ {
			tx, err := r.Begin()
			if err != nil {
				errc <- err
				return
			}
			val := []byte(fmt.Sprintf("%08d", v))
			if e1, e2 := tx.Put(k1, val), tx.Put(k2, val); e1 != nil || e2 != nil {
				tx.Abort()
				errc <- fmt.Errorf("writer put: %v / %v", e1, e2)
				return
			}
			if err := tx.Commit(); err != nil {
				errc <- err
				return
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			got := map[string]string{}
			if err := r.Scan([]byte("scanpair"), 10, func(k, v []byte) bool {
				got[string(k)] = string(v)
				return true
			}); err != nil {
				errc <- err
				return
			}
			v1, v2 := got[string(k1)], got[string(k2)]
			if v1 == "" || v2 == "" {
				errc <- fmt.Errorf("scan missed a pair member: %v", got)
				return
			}
			if v1 != v2 {
				errc <- fmt.Errorf("scan saw torn cut: %s vs %s", v1, v2)
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestSnapshotWithDegradedShard: cross-shard snapshots must keep working
// (including on the degraded shard's data) while one shard is read-only,
// and multi-shard commit groups touching it must fail without leaving a
// torn half on the healthy shard visible as the pair's newest version —
// the writer aborts the healthy leg on the first degraded-leg failure.
func TestSnapshotWithDegradedShard(t *testing.T) {
	r := newRouter(t, 2)
	k1, k2 := pairOnDistinctShards(t, r, "degpair")

	tx, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx.Put(k1, []byte("v0"))
	tx.Put(k2, []byte("v0"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	degraded := r.ShardOf(k2)
	r.Shard(degraded).Engine.ForceReadOnly(true)
	defer r.Shard(degraded).Engine.ForceReadOnly(false)

	// A writer that hits the degraded leg aborts the whole logical op.
	w, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put(k1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Put(k2, []byte("v1")); !errors.Is(err, db.ErrReadOnly) {
		t.Fatalf("degraded shard write: %v, want db.ErrReadOnly", err)
	}
	w.Abort()

	// Snapshots still read both shards and observe the untorn v0 state.
	s, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Commit()
	v1, ok1, err1 := s.AppendGet(nil, k1)
	v2, ok2, err2 := s.AppendGet(nil, k2)
	if err1 != nil || err2 != nil || !ok1 || !ok2 {
		t.Fatalf("snapshot read with degraded shard: %v %v %v %v", ok1, err1, ok2, err2)
	}
	if string(v1) != "v0" || string(v2) != "v0" {
		t.Fatalf("degraded-era snapshot saw %q/%q, want v0/v0", v1, v2)
	}
}
