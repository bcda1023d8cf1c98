package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvpbt/internal/db"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
)

// newSupervisedRouter builds a supervised router with the given hooks.
func newSupervisedRouter(t *testing.T, shards int, sup SupervisorConfig) *Router {
	t.Helper()
	r, err := New(Config{
		Shards: shards,
		Engine: db.Config{
			BufferPages:          256,
			PartitionBufferBytes: 64 << 10,
			EnableWAL:            true,
		},
		Supervisor: sup,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSupervisorRestartUnderFaultStorm is the headline resilience test: a
// sticky device-level write-fault storm on one shard drives it through
// failed → recovering → healthy via a real WAL crash recovery, while
// concurrent clients of the OTHER shards see zero errors and clients of
// the storm shard see only retriable causes. Pre-storm acked writes
// survive the restart.
func TestSupervisorRestartUnderFaultStorm(t *testing.T) {
	var transitions sync.Map // "from→to" -> count
	r := newSupervisedRouter(t, 3, SupervisorConfig{
		OnTransition: func(shard int, from, to HealthState) {
			k := fmt.Sprintf("%v→%v", from, to)
			v, _ := transitions.LoadOrStore(k, new(atomic.Int64))
			v.(*atomic.Int64).Add(1)
		},
	})

	// Seed every shard, remembering shard 0's acked keys: they must
	// survive the crash-restart.
	stormKeys := make([][]byte, 0, 8)
	for i := 0; i < 8; i++ {
		k := keyOnShard(t, r, 0, fmt.Sprintf("storm-%d", i))
		if err := r.Put(k, []byte("pre-storm")); err != nil {
			t.Fatal(err)
		}
		stormKeys = append(stormKeys, k)
	}
	otherKeys := [][]byte{keyOnShard(t, r, 1, "other1"), keyOnShard(t, r, 2, "other2")}
	for _, k := range otherKeys {
		if err := r.Put(k, []byte("ok")); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent traffic on the healthy shards: must never see an error.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var otherErrs atomic.Int64
	for _, k := range otherKeys {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := r.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
					otherErrs.Add(1)
					t.Errorf("healthy shard: %v", err)
					return
				}
				if _, _, err := r.Get(k); err != nil {
					otherErrs.Add(1)
					t.Errorf("healthy shard: %v", err)
					return
				}
			}
		}()
	}

	// Storm: every write to shard 0's device fails until the supervisor
	// swaps the engine (the fresh engine gets a fresh device, so the
	// armed rule does not follow it).
	r.Shard(0).Engine.Dev.ArmFault(ssd.FaultRule{
		Kind: ssd.FaultWriteErr, Class: ssd.AnyClass, Sticky: true,
	})
	for i := 0; i < 200; i++ {
		err := r.Put(stormKeys[0], []byte("during-storm"))
		if err == nil {
			break // storm over: shard restarted and healthy again
		}
		// Only retriable causes may surface on the storm shard.
		if !errors.Is(err, storage.ErrIOFault) && !errors.Is(err, ErrShardUnavailable) &&
			!errors.Is(err, db.ErrClosed) {
			t.Fatalf("storm shard: non-retriable error: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	// The hook runs just after the state is published, so wait for both.
	waitFor(t, "shard 0 healthy", func() bool {
		h := r.Health(0)
		_, hooked := transitions.Load("recovering→healthy")
		return h.State == Healthy && h.Restarts >= 1 && hooked
	})
	close(stop)
	wg.Wait()

	if n := otherErrs.Load(); n != 0 {
		t.Fatalf("%d errors on healthy shards during the storm", n)
	}
	for _, want := range []string{"healthy→failed", "failed→recovering", "recovering→healthy"} {
		v, ok := transitions.Load(want)
		if !ok || v.(*atomic.Int64).Load() == 0 {
			t.Fatalf("transition %s never observed", want)
		}
	}
	// Acked pre-storm writes survived the crash recovery.
	for _, k := range stormKeys {
		v, ok, err := r.Get(k)
		if err != nil || !ok {
			t.Fatalf("pre-storm key %s lost: %q %v %v", k, v, ok, err)
		}
	}
	// And the recovered shard accepts writes again.
	if err := r.Put(stormKeys[1], []byte("post-storm")); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
}

// TestSupervisorRestartBackoff drives restart failures through the
// RestartHook seam: refused attempts keep being retried and RestartFailures
// counts them, and the first attempt the hook allows brings the shard back
// to Healthy with the count cleared.
func TestSupervisorRestartBackoff(t *testing.T) {
	const refusals = 3
	var allow atomic.Bool
	var attempts atomic.Int64
	r := newSupervisedRouter(t, 2, SupervisorConfig{
		RestartHook: func(shard int) error {
			attempts.Add(1)
			if !allow.Load() {
				return errors.New("restart refused by test hook")
			}
			return nil
		},
	})

	if err := r.FailShard(0, errors.New("test-induced failure")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "refused restarts", func() bool { return r.Health(0).RestartFailures >= refusals })
	if st := r.Health(0).State; st != Failed && st != Recovering {
		t.Fatalf("shard state after refused restarts = %v", st)
	}

	// While failed, operations bounce with the typed retriable cause.
	k := keyOnShard(t, r, 0, "k")
	if err := r.Put(k, []byte("x")); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("failed-shard Put err = %v, want ErrShardUnavailable", err)
	}
	var se *ShardError
	if err := r.Put(k, []byte("x")); !errors.As(err, &se) || se.Shard != 0 {
		t.Fatalf("failed-shard Put err = %v, want ShardError{Shard: 0}", err)
	}

	// Let the next attempt succeed: the shard heals.
	allow.Store(true)
	waitFor(t, "shard healthy after an allowed restart", func() bool {
		h := r.Health(0)
		return h.State == Healthy && h.RestartFailures == 0
	})
	if h := r.Health(0); h.Restarts != 1 {
		t.Fatalf("health after the allowed restart: %+v, want 1 restart", h)
	}
	if err := r.Put(k, []byte("healed")); err != nil {
		t.Fatalf("post-heal write: %v", err)
	}
	if attempts.Load() <= refusals {
		t.Fatalf("only %d restart attempts recorded", attempts.Load())
	}
}

// TestRestartDelayCapped: the wait before every restart attempt after the
// first is above zero and at most maxBackoff, however many attempts failed
// — a doubling that overflowed would go to zero or below and spin the
// restart loop.
func TestRestartDelayCapped(t *testing.T) {
	for _, c := range []struct {
		attempt int
		want    time.Duration
	}{
		{0, 0},
		{1, restartBackoff},
		{2, 2 * restartBackoff},
		{3, 4 * restartBackoff},
		{8, maxBackoff},
		{41, maxBackoff},
		{100, maxBackoff},
	} {
		if got := restartDelay(c.attempt); got != c.want {
			t.Errorf("restartDelay(%d) = %v, want %v", c.attempt, got, c.want)
		}
	}
	for n := 1; n <= 100; n++ {
		if d := restartDelay(n); d <= 0 || d > maxBackoff {
			t.Fatalf("restartDelay(%d) = %v, want in (0, %v]", n, d, maxBackoff)
		}
	}
}

// TestSupervisorStatsHealth: Report carries supervision state for failed
// shards while still serving engine-derived fields — here the device
// counters of a durable write — for healthy ones.
func TestSupervisorStatsHealth(t *testing.T) {
	block := make(chan struct{})
	r := newSupervisedRouter(t, 2, SupervisorConfig{
		RestartHook: func(shard int) error { <-block; return nil },
	})
	defer close(block)
	// A durable write on shard 0 gives its device counters something to
	// show.
	if err := r.Put(keyOnShard(t, r, 0, "d"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := r.FailShard(1, errors.New("held down")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "shard 1 out of service", func() bool {
		st := r.Health(1).State
		return st == Failed || st == Recovering
	})
	stats := r.Report().Shards
	if stats[0].Health.State != Healthy || stats[0].Device.Writes == 0 || stats[0].Device.BytesWritten == 0 {
		t.Fatalf("healthy shard stats: %+v", stats[0])
	}
	if st := stats[1].Health.State; st != Failed && st != Recovering {
		t.Fatalf("failed shard health = %v", st)
	}
	if stats[1].Health.LastError == "" {
		t.Fatal("failed shard lost its cause")
	}
}

// TestHealthDegradedFollowsEngine: Degraded is read from the shard's
// current engine. Forcing it read-only degrades the shard before any
// operation, a successful read keeps it degraded, and re-opening the engine
// makes it healthy with no operation in between; the report's health and
// read-only flag agree at every step.
func TestHealthDegradedFollowsEngine(t *testing.T) {
	r := newSupervisedRouter(t, 2, SupervisorConfig{})
	const ro = 1
	k := keyOnShard(t, r, ro, "ro")
	if err := r.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	check := func(step string, want HealthState) {
		t.Helper()
		if got := r.Health(ro).State; got != want {
			t.Fatalf("%s: Health = %v, want %v", step, got, want)
		}
		for i, st := range r.Report().Shards {
			if (st.Health.State == Degraded) != st.Space.ReadOnly || st.Space.ReadOnly != (i == ro && want == Degraded) {
				t.Fatalf("%s: shard %d reports %v with ReadOnly %v", step, i, st.Health.State, st.Space.ReadOnly)
			}
		}
	}
	r.Shard(ro).Engine.ForceReadOnly(true)
	check("forced read-only", Degraded)
	if v, ok, err := r.Get(k); err != nil || !ok || string(v) != "v" {
		t.Fatalf("read on the read-only shard: %q %v %v", v, ok, err)
	}
	check("after a successful read", Degraded)
	if err := r.Put(k, []byte("w")); !errors.Is(err, db.ErrReadOnly) {
		t.Fatalf("write on the read-only shard: %v", err)
	}
	check("after a refused write", Degraded)
	r.Shard(ro).Engine.ForceReadOnly(false)
	check("re-opened", Healthy)
}

// TestRouterCloseDrainFence hammers Close against concurrent operations:
// under -race this is the satellite regression test for the unsafe
// Close-vs-inflight-ops window. Every operation either completes cleanly
// or is refused with ErrRouterClosed — never a panic, never a torn engine.
func TestRouterCloseDrainFence(t *testing.T) {
	for round := 0; round < 5; round++ {
		r := newRouter(t, 4)
		var wg sync.WaitGroup
		start := make(chan struct{})
		check := func(err error) {
			if err != nil && !errors.Is(err, ErrRouterClosed) {
				t.Errorf("op during close: %v", err)
			}
		}
		for g := 0; g < 8; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					k := []byte(fmt.Sprintf("close-%d-%d", g, i))
					check(r.Put(k, []byte("v")))
					_, _, err := r.Get(k)
					check(err)
					if i%10 == 0 {
						check(r.Scan(nil, 5, func(k, v []byte) bool { return true }))
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			time.Sleep(time.Duration(round) * 100 * time.Microsecond)
			check(r.Close())
		}()
		close(start)
		wg.Wait()
		// Idempotent, and permanently closed.
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if err := r.Put([]byte("after"), []byte("v")); !errors.Is(err, ErrRouterClosed) {
			t.Fatalf("post-close Put err = %v", err)
		}
	}
}
