package shard

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvpbt/internal/db"
)

// newTwoPCRouter builds a supervised WAL router with 2PC crash hooks and
// fast restart timing.
func newTwoPCRouter(t *testing.T, shards int, hooks TwoPCHooks) *Router {
	t.Helper()
	r, err := New(Config{
		Shards: shards,
		Engine: db.Config{
			BufferPages:          256,
			PartitionBufferBytes: 64 << 10,
			EnableWAL:            true,
		},
		TwoPC: hooks,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// crossShardCommit writes one key to each of two shards in a single
// transaction and commits, returning the commit error.
func crossShardCommit(t *testing.T, r *Router, kA, kB, val []byte) error {
	t.Helper()
	tx, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(kA, val); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(kB, val); err != nil {
		t.Fatal(err)
	}
	return tx.Commit()
}

// TestRestartResolvesInDoubtCommit is the satellite regression for the
// restart/2PC interaction, commit side: every participant crashes AFTER the
// commit decision became durable in the coordinator log, so both shards
// restart holding a prepared-but-undecided leg. The supervisor's recovery
// must re-enter in-doubt resolution against the coordinator log — committing
// both legs and retiring the group — never salvage-drop them as uncommitted
// work.
func TestRestartResolvesInDoubtCommit(t *testing.T) {
	var armed atomic.Bool
	r := newTwoPCRouter(t, 2, TwoPCHooks{
		AfterDecide: func(gid uint64) error {
			if armed.Load() {
				return errors.New("test: all participants crash after decision")
			}
			return nil
		},
	})
	kA, kB := keyOnShard(t, r, 0, "idc-a"), keyOnShard(t, r, 1, "idc-b")

	armed.Store(true)
	err := crossShardCommit(t, r, kA, kB, []byte("v1"))
	armed.Store(false)
	if !errors.Is(err, ErrTxInDoubt) {
		t.Fatalf("commit with all participants crashed post-decision: %v, want ErrTxInDoubt", err)
	}

	// The restarts must converge: both shards healthy, no leg in doubt, and
	// the group fully acknowledged (decision forgotten).
	waitFor(t, "in-doubt legs resolved by restart", func() bool {
		if r.Health(0).State != Healthy || r.Health(1).State != Healthy {
			return false
		}
		st := r.TwoPCInfo()
		return st.InDoubt == 0 && st.Coordinator.LiveDecisions == 0
	})
	for _, k := range [][]byte{kA, kB} {
		v, ok, err := r.Get(k)
		if err != nil || !ok || !bytes.Equal(v, []byte("v1")) {
			t.Fatalf("decided-commit leg %q lost after restart: %q %v %v", k, v, ok, err)
		}
	}
	st := r.TwoPCInfo()
	if st.Coordinator.Decides < 1 || st.Coordinator.Forgets < 1 {
		t.Fatalf("coordinator never decided/retired the group: %+v", st.Coordinator)
	}
	if commits, _ := resolved(r); commits < 2 {
		t.Fatalf("expected both legs resolved to commit, got %d", commits)
	}
	// The recovered shards keep serving cross-shard commits.
	if err := crossShardCommit(t, r, kA, kB, []byte("v2")); err != nil {
		t.Fatalf("post-recovery cross-shard commit: %v", err)
	}
}

// TestRestartResolvesInDoubtAbort, abort side: the first leg's participant
// crashes after its durable YES vote, then the second leg refuses to prepare
// — the group aborts WITHOUT a coordinator-log record. The crashed shard
// restarts holding a prepared-undecided transaction whose group the
// coordinator does not vouch for; recovery must presume abort and leave no
// residue on either shard.
func TestRestartResolvesInDoubtAbort(t *testing.T) {
	var armed atomic.Bool
	r := newTwoPCRouter(t, 2, TwoPCHooks{
		AfterPrepare: func(gid uint64, shard int) error {
			if armed.Load() && shard == 0 {
				return errors.New("test: participant 0 crashes after voting")
			}
			return nil
		},
		BeforePrepare: func(gid uint64, shard int) error {
			if armed.Load() && shard == 1 {
				return errors.New("test: participant 1 refuses to vote")
			}
			return nil
		},
	})
	kA, kB := keyOnShard(t, r, 0, "ida-a"), keyOnShard(t, r, 1, "ida-b")

	armed.Store(true)
	err := crossShardCommit(t, r, kA, kB, []byte("doomed"))
	armed.Store(false)
	if err == nil || errors.Is(err, ErrTxInDoubt) {
		t.Fatalf("aborted group commit error = %v, want the injected prepare failure", err)
	}

	waitFor(t, "presumed abort resolved by restart", func() bool {
		return r.Health(0).State == Healthy && r.TwoPCInfo().InDoubt == 0
	})
	for _, k := range [][]byte{kA, kB} {
		if v, ok, err := r.Get(k); ok || err != nil {
			t.Fatalf("presumed-abort residue at %q: %q %v %v", k, v, ok, err)
		}
	}
	st := r.TwoPCInfo()
	if st.Coordinator.LiveDecisions != 0 || st.Coordinator.Decides != 0 {
		t.Fatalf("aborted group left a coordinator decision: %+v", st.Coordinator)
	}
	if _, aborts := resolved(r); aborts < 1 {
		t.Fatalf("crashed YES voter never resolved to abort: %d aborts resolved", aborts)
	}
	// The shard works again and the group id space moved on.
	if err := crossShardCommit(t, r, kA, kB, []byte("after")); err != nil {
		t.Fatalf("post-abort cross-shard commit: %v", err)
	}
}

// TestRouterCloseRacesTwoPC hammers Close against in-flight multi-shard
// commit groups (run under -race). Every commit either completes cleanly or
// is refused with a typed error — never a panic, never an untyped failure.
// Afterward each shard's log is recovered into a fresh engine and every
// group is checked all-or-nothing: both legs applied or neither, with every
// acknowledged commit present on both shards.
func TestRouterCloseRacesTwoPC(t *testing.T) {
	const goroutines, iters = 6, 25
	for round := 0; round < 4; round++ {
		r := newTwoPCRouter(t, 2, TwoPCHooks{})

		type attempt struct {
			kA, kB []byte
			val    []byte
			acked  atomic.Bool
		}
		attempts := make([]*attempt, goroutines*iters)
		for g := 0; g < goroutines; g++ {
			for i := 0; i < iters; i++ {
				idx := g*iters + i
				attempts[idx] = &attempt{
					kA:  keyOnShard(t, r, 0, fmt.Sprintf("r%d-g%d-i%d-a", round, g, i)),
					kB:  keyOnShard(t, r, 1, fmt.Sprintf("r%d-g%d-i%d-b", round, g, i)),
					val: []byte(fmt.Sprintf("v%d-%d-%d", round, g, i)),
				}
			}
		}
		typed := func(err error) {
			if err == nil {
				return
			}
			if !errors.Is(err, ErrRouterClosed) && !errors.Is(err, ErrShardUnavailable) &&
				!errors.Is(err, ErrTxInDoubt) && !errors.Is(err, db.ErrClosed) {
				t.Errorf("op racing close: untyped error %v", err)
			}
		}

		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < goroutines; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < iters; i++ {
					a := attempts[g*iters+i]
					tx, err := r.Begin()
					if err != nil {
						typed(err)
						return
					}
					if err := tx.Put(a.kA, a.val); err != nil {
						typed(err)
						tx.Abort()
						continue
					}
					if err := tx.Put(a.kB, a.val); err != nil {
						typed(err)
						tx.Abort()
						continue
					}
					err = tx.Commit()
					typed(err)
					if err == nil {
						a.acked.Store(true)
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			time.Sleep(time.Duration(round) * 200 * time.Microsecond)
			typed(r.Close())
		}()
		close(start)
		wg.Wait()
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}

		// Recover each closed shard's log into a fresh engine (the closed
		// engine's device is still readable in the simulator) and resolve
		// any leg left in doubt against the coordinator log, exactly as a
		// restarted shard would.
		kvs := make([]*db.MVPBTKV, r.NumShards())
		for i := 0; i < r.NumShards(); i++ {
			img := r.Shard(i).Engine.LogImage()
			eng := db.NewEngine(r.cfg.Engine)
			kv, err := db.NewMVPBTKV(eng, r.Shard(i).Dir+"/kv", r.cfg.KVOptions)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Recover(img); err != nil {
				t.Fatalf("shard %d: post-close recovery: %v", i, err)
			}
			for _, d := range eng.InDoubtList() {
				committed, inflight := r.coord.decisionOf(d.GID)
				if inflight {
					t.Fatalf("shard %d: group %d still inflight after close", i, d.GID)
				}
				if n, err := eng.ResolveGroup(d.GID, committed); err != nil || n != 1 {
					t.Fatalf("shard %d: resolving group %d: n=%d err=%v", i, d.GID, n, err)
				}
			}
			kvs[i] = kv
			defer eng.Close()
		}
		for _, a := range attempts {
			_, okA, errA := kvs[0].Get(a.kA)
			_, okB, errB := kvs[1].Get(a.kB)
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			if okA != okB {
				t.Fatalf("half-applied group after close: %q=%v %q=%v", a.kA, okA, a.kB, okB)
			}
			if a.acked.Load() && !okA {
				t.Fatalf("acknowledged commit %q/%q lost", a.kA, a.kB)
			}
		}
	}
}

// TestWALLessGroupIsAllOrNothing: a router without a WAL has the same single
// multi-shard commit path as a durable one. The second leg of a two-shard
// group is invalidated between Put and Commit (its shard restarts — empty,
// there is no log to recover from); the commit must fail as a whole. The
// pre-2PC per-leg path committed leg 1 before it found leg 2 dead.
func TestWALLessGroupIsAllOrNothing(t *testing.T) {
	r, err := New(Config{
		Shards: 2,
		Engine: db.Config{BufferPages: 256, PartitionBufferBytes: 64 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	kA, kB := keyOnShard(t, r, 0, "aon-a"), keyOnShard(t, r, 1, "aon-b")

	tx, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(kA, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(kB, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := r.FailShard(1, errors.New("test: shard 1 dies under the open transaction")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "shard 1 restarted", func() bool {
		h := r.Health(1)
		return h.State == Healthy && h.Restarts == 1
	})
	if err := tx.Commit(); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("commit with a superseded leg: %v, want ErrShardUnavailable", err)
	}
	for _, k := range [][]byte{kA, kB} {
		if v, ok, err := r.Get(k); err != nil || ok {
			t.Fatalf("aborted group left %q = %q (found=%v err=%v)", k, v, ok, err)
		}
	}
	st := r.TwoPCInfo()
	if _, aborts := resolved(r); st.InDoubt != 0 || aborts != 1 || st.Coordinator.Decides != 0 {
		t.Fatalf("after the aborted group: %+v, %d aborts resolved", st, aborts)
	}
	// The same router still commits groups, atomically and without a log.
	if err := crossShardCommit(t, r, kA, kB, []byte("v2")); err != nil {
		t.Fatalf("WAL-less cross-shard commit: %v", err)
	}
	for _, k := range [][]byte{kA, kB} {
		if v, ok, err := r.Get(k); err != nil || !ok || !bytes.Equal(v, []byte("v2")) {
			t.Fatalf("committed group lost %q: %q %v %v", k, v, ok, err)
		}
	}
}

// resolved sums the shards' in-doubt transactions resolved to commit and to
// abort, as the router's report has them.
func resolved(r *Router) (commits, aborts int64) {
	for _, sh := range r.Report().Shards {
		commits += sh.TwoPC.ResolvedCommits
		aborts += sh.TwoPC.ResolvedAborts
	}
	return commits, aborts
}
