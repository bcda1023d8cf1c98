package part

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvpbt/internal/maint"
)

// atomicOwner is a concurrency-safe fake Owner: Grow simulates PN inserts
// and EvictPN zeroes the size (optionally failing or making no progress).
type atomicOwner struct {
	name     string
	size     atomic.Int64
	evicted  atomic.Int64
	evictErr error
	noop     bool // EvictPN succeeds but frees nothing
}

func (o *atomicOwner) Name() string { return o.name }
func (o *atomicOwner) PNBytes() int { return int(o.size.Load()) }
func (o *atomicOwner) Grow(n int)   { o.size.Add(int64(n)) }
func (o *atomicOwner) EvictPN() error {
	if o.evictErr != nil {
		return o.evictErr
	}
	o.evicted.Add(1)
	if !o.noop {
		o.size.Store(0)
	}
	return nil
}

func TestPartitionBufferNoVictim(t *testing.T) {
	// An owner whose eviction makes no progress must surface ErrNoVictim
	// (and bump the counter) instead of looping forever or silently
	// returning nil — the satellite-1 bug.
	b := NewPartitionBuffer(100)
	o := &atomicOwner{name: "stuck", noop: true}
	o.Grow(500)
	b.Register(o)
	if err := b.MaybeEvict(); !errors.Is(err, ErrNoVictim) {
		t.Fatalf("MaybeEvict = %v, want ErrNoVictim", err)
	}
	if b.NoVictims() != 1 {
		t.Fatalf("NoVictims = %d, want 1", b.NoVictims())
	}
}

// refillOwner is an owner whose writer outruns the evictor: every EvictPN
// persists the whole PN, and by the time the evictor looks again the writer
// has refilled it to just under its old size.
type refillOwner struct{ size, evicted int }

func (o *refillOwner) Name() string { return "refill" }
func (o *refillOwner) PNBytes() int { return o.size }
func (o *refillOwner) EvictPN() error {
	o.evicted++
	o.size-- // shrank to 0, then refilled to one byte short
	return nil
}

// TestPartitionBufferOutrunIsBackpressure: an evictor that made progress on
// every attempt but never reached its target was outrun by the writer. That
// is backpressure — nil, NoVictims untouched — not ErrNoVictim, which
// maint.Service would keep as its sticky error and Engine.Close would
// report after all the work succeeded (the TestMaintShape flake).
func TestPartitionBufferOutrunIsBackpressure(t *testing.T) {
	b := NewPartitionBuffer(100)
	o := &refillOwner{size: 500}
	b.Register(o)
	if err := b.EvictToLow(); err != nil {
		t.Fatalf("EvictToLow outrun by the writer = %v, want nil", err)
	}
	if o.evicted == 0 || b.Evictions() != int64(o.evicted) {
		t.Fatalf("evicted %d times, counter %d", o.evicted, b.Evictions())
	}
	if b.NoVictims() != 0 {
		t.Fatalf("NoVictims = %d, want 0 (progress was made)", b.NoVictims())
	}
}

func TestPartitionBufferNoVictimCounterAccounting(t *testing.T) {
	// Pin the counter semantics of the ErrNoVictim path: every failing
	// MaybeEvict adds exactly one to NoVictims, the no-progress eviction
	// attempts still count as Evictions (the owner WAS asked), and a later
	// successful eviction neither increments NoVictims nor clears it.
	b := NewPartitionBuffer(100)
	stuck := &atomicOwner{name: "stuck", noop: true}
	stuck.Grow(500)
	b.Register(stuck)

	for i := 1; i <= 3; i++ {
		if err := b.MaybeEvict(); !errors.Is(err, ErrNoVictim) {
			t.Fatalf("call %d: MaybeEvict = %v, want ErrNoVictim", i, err)
		}
		if got := b.NoVictims(); got != int64(i) {
			t.Fatalf("call %d: NoVictims = %d, want %d", i, got, i)
		}
	}
	if b.EvictErrors() != 0 {
		t.Fatalf("EvictErrors = %d, want 0 (no-progress is not an error)", b.EvictErrors())
	}

	// A healthy owner larger than the stuck one turns the next call into a
	// success: Evictions grows, NoVictims stays frozen.
	healthy := &atomicOwner{name: "healthy"}
	healthy.Grow(600)
	b.Register(healthy)
	stuck.size.Store(0)
	before := b.Evictions()
	if err := b.MaybeEvict(); err != nil {
		t.Fatalf("MaybeEvict with healthy victim = %v", err)
	}
	if healthy.evicted.Load() != 1 {
		t.Fatalf("healthy owner evicted %d times, want 1", healthy.evicted.Load())
	}
	if b.Evictions() <= before {
		t.Fatalf("Evictions did not grow (%d -> %d)", before, b.Evictions())
	}
	if b.NoVictims() != 3 {
		t.Fatalf("NoVictims = %d after success, want 3 (monotonic)", b.NoVictims())
	}

	// Under the limit nothing is counted at all.
	if err := b.MaybeEvict(); err != nil {
		t.Fatalf("MaybeEvict under limit = %v", err)
	}
	if b.NoVictims() != 3 || b.Evictions() != before+1 {
		t.Fatalf("under-limit call changed counters: noVictims=%d evictions=%d",
			b.NoVictims(), b.Evictions())
	}
}

func TestPartitionBufferEvictionError(t *testing.T) {
	b := NewPartitionBuffer(100)
	boom := errors.New("device gone")
	o := &atomicOwner{name: "bad", evictErr: boom}
	o.Grow(500)
	b.Register(o)
	if err := b.MaybeEvict(); !errors.Is(err, boom) {
		t.Fatalf("MaybeEvict = %v, want injected error", err)
	}
	if b.EvictErrors() != 1 {
		t.Fatalf("EvictErrors = %d, want 1", b.EvictErrors())
	}
}

func TestPartitionBufferWatermarkDefaults(t *testing.T) {
	b := NewPartitionBuffer(1000)
	if b.Low() != 800 || b.High() != 1250 {
		t.Fatalf("default watermarks low=%d high=%d", b.Low(), b.High())
	}
	b.SetWatermarks(2000, 500) // both clamp to the limit
	if b.Low() != 1000 || b.High() != 1000 {
		t.Fatalf("clamped watermarks low=%d high=%d", b.Low(), b.High())
	}
}

func TestPartitionBufferBackgroundTrigger(t *testing.T) {
	b := NewPartitionBuffer(1000)
	o := &atomicOwner{name: "o"}
	b.Register(o)
	var triggers atomic.Int64
	b.SetNotifier(func() { triggers.Add(1) })

	o.Grow(100)
	if err := b.DidInsert(context.Background()); err != nil {
		t.Fatal(err)
	}
	if triggers.Load() != 0 {
		t.Fatal("notifier fired below the low watermark")
	}
	o.Grow(800) // 900 >= low(800), < high(1250)
	if err := b.DidInsert(context.Background()); err != nil {
		t.Fatal(err)
	}
	if triggers.Load() != 1 {
		t.Fatalf("notifier fired %d times, want 1", triggers.Load())
	}
	if n, _ := b.Stalls(); n != 0 {
		t.Fatal("stalled below the high watermark")
	}
}

func TestPartitionBufferWriteStall(t *testing.T) {
	// Above the high watermark with eviction lagging, DidInsert must block
	// (bounded) and wake early when an eviction completes.
	b := NewPartitionBuffer(1000)
	b.SetStallTimeout(2 * time.Second) // generous: the eviction wake must beat it
	o := &atomicOwner{name: "o"}
	b.Register(o)

	evictStarted := make(chan struct{})
	var once sync.Once
	b.SetNotifier(func() {
		once.Do(func() { close(evictStarted) })
	})

	o.Grow(2000) // way above high(1250)
	go func() {
		<-evictStarted
		time.Sleep(10 * time.Millisecond) // let the writer reach stallWait
		b.EvictToLow()
	}()
	start := time.Now()
	if err := b.DidInsert(context.Background()); err != nil {
		t.Fatal(err)
	}
	el := time.Since(start)
	if n, d := b.Stalls(); n != 1 || d <= 0 {
		t.Fatalf("stall not recorded: n=%d d=%v", n, d)
	}
	if el >= 2*time.Second {
		t.Fatalf("writer waited the full timeout (%v); eviction wake-up lost", el)
	}
	if o.evicted.Load() == 0 {
		t.Fatal("background eviction did not run")
	}
}

func TestPartitionBufferStallTimesOut(t *testing.T) {
	// With no eviction happening at all, the stall must release the writer
	// after the bounded timeout rather than hanging.
	b := NewPartitionBuffer(1000)
	b.SetStallTimeout(5 * time.Millisecond)
	o := &atomicOwner{name: "o"}
	b.Register(o)
	b.SetNotifier(func() {}) // notifier that never evicts
	o.Grow(2000)
	done := make(chan struct{})
	go func() {
		b.DidInsert(context.Background())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("stalled writer hung past its timeout")
	}
	if n, d := b.Stalls(); n != 1 || d < 5*time.Millisecond {
		t.Fatalf("stall stats n=%d d=%v", n, d)
	}
}

// TestPartitionBufferConcurrent drives Register / DidInsert / Used /
// EvictToLow from many goroutines with a real maintenance service doing
// the background eviction — the satellite-3 race test, including an
// owner that injects eviction errors.
func TestPartitionBufferConcurrent(t *testing.T) {
	b := NewPartitionBuffer(64 << 10)
	b.SetStallTimeout(time.Millisecond)

	svc := maint.New(maint.Config{Workers: 2})
	defer svc.Close()
	b.SetNotifier(func() {
		svc.Submit(maint.Evict, "pbuf", b.EvictToLow)
	})

	owners := make([]*atomicOwner, 4)
	for i := range owners {
		owners[i] = &atomicOwner{name: string(rune('a' + i))}
		b.Register(owners[i])
	}
	// One owner occasionally fails its eviction.
	boom := errors.New("injected")
	bad := &atomicOwner{name: "bad", evictErr: boom}
	b.Register(bad)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			o := owners[g%len(owners)]
			for i := 0; i < 3000; i++ {
				o.Grow(64)
				b.DidInsert(context.Background())
				if i%64 == 0 {
					_ = b.Used()
				}
				if i%500 == 0 {
					// late registration races with the owner scan
					b.Register(&atomicOwner{name: "late"})
				}
				if i%1000 == 0 {
					bad.Grow(128) // keep the failing owner in contention
				}
			}
		}(g)
	}
	wg.Wait()
	svc.Drain()
	if b.Evictions() == 0 {
		t.Fatal("no background evictions happened")
	}
	// The injected error is allowed to surface (or not, if "bad" was never
	// the largest), but nothing may have deadlocked or raced to get here.
	t.Logf("evictions=%d errors=%d noVictims=%d stalls=%v",
		b.Evictions(), b.EvictErrors(), b.NoVictims(), func() int64 { n, _ := b.Stalls(); return n }())
}

func TestPartitionBufferSyncModeUnchanged(t *testing.T) {
	// Without a notifier DidInsert must behave exactly like MaybeEvict.
	b := NewPartitionBuffer(100)
	o := &atomicOwner{name: "o"}
	b.Register(o)
	o.Grow(150)
	if err := b.DidInsert(context.Background()); err != nil {
		t.Fatal(err)
	}
	if o.evicted.Load() != 1 || b.Used() != 0 {
		t.Fatalf("sync DidInsert did not evict inline: evicted=%d used=%d", o.evicted.Load(), b.Used())
	}
	if n, _ := b.Stalls(); n != 0 {
		t.Fatal("sync mode stalled")
	}
}

func TestPartitionBufferStallCanceledContext(t *testing.T) {
	// A canceled (or deadline-expired) context must release a stalled
	// writer promptly — well before the stall timeout — with ctx.Err().
	b := NewPartitionBuffer(1000)
	b.SetStallTimeout(10 * time.Second) // the context must beat this
	o := &atomicOwner{name: "o"}
	b.Register(o)
	b.SetNotifier(func() {}) // notifier that never evicts
	o.Grow(2000)             // way above high(1250)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- b.DidInsert(ctx) }()
	time.Sleep(5 * time.Millisecond) // let the writer reach stallWait
	start := time.Now()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("stalled DidInsert returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled writer still stalled")
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("cancellation took %v to release the stall", el)
	}

	// A context with an already-expired deadline must not stall at all.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if err := b.DidInsert(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline DidInsert returned %v, want DeadlineExceeded", err)
	}
}
