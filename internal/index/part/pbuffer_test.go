package part

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// atomicOwner is a concurrency-safe fake Owner of buffer b: Grow simulates
// PN inserts and EvictPN zeroes the size (optionally failing or making no
// progress), each reported to b.
type atomicOwner struct {
	name     string
	b        *PartitionBuffer
	size     atomic.Int64
	evicted  atomic.Int64
	evictErr error
	noop     bool // EvictPN succeeds but frees nothing
}

func (o *atomicOwner) PNBytes() int { return int(o.size.Load()) }
func (o *atomicOwner) Grow(n int) {
	o.size.Add(int64(n))
	o.b.Add(n)
}
func (o *atomicOwner) EvictPN() error {
	if o.evictErr != nil {
		return o.evictErr
	}
	o.evicted.Add(1)
	if !o.noop {
		o.b.Add(-int(o.size.Swap(0)))
	}
	return nil
}

func TestPartitionBufferNoVictim(t *testing.T) {
	// An owner whose eviction makes no progress must surface ErrNoVictim
	// (and bump the counter) instead of looping forever or silently
	// returning nil — the satellite-1 bug.
	b := NewPartitionBuffer(100)
	o := &atomicOwner{name: "stuck", b: b, noop: true}
	b.Register(o)
	o.Grow(500)
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
type refillOwner struct {
	b             *PartitionBuffer
	size, evicted int
}

func (o *refillOwner) PNBytes() int { return o.size }
func (o *refillOwner) EvictPN() error {
	o.evicted++
	o.size-- // shrank to 0, then refilled to one byte short
	o.b.Add(-1)
	return nil
}

// TestPartitionBufferOutrunIsBackpressure: an evictor that made progress on
// every attempt but never reached its target was outrun by the writer. That
// is backpressure — nil, NoVictims untouched — not ErrNoVictim, which the
// inserting writer would otherwise get back from a Put that succeeded.
func TestPartitionBufferOutrunIsBackpressure(t *testing.T) {
	b := NewPartitionBuffer(100)
	o := &refillOwner{b: b, size: 500}
	b.Register(o)
	if err := b.MaybeEvict(); err != nil {
		t.Fatalf("MaybeEvict outrun by the writer = %v, want nil", err)
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
	stuck := &atomicOwner{name: "stuck", b: b, noop: true}
	b.Register(stuck)
	stuck.Grow(500)

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
	healthy := &atomicOwner{name: "healthy", b: b}
	b.Register(healthy)
	healthy.Grow(600)
	stuck.Grow(-500)
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
	o := &atomicOwner{name: "bad", b: b, evictErr: boom}
	b.Register(o)
	o.Grow(500)
	if err := b.MaybeEvict(); !errors.Is(err, boom) {
		t.Fatalf("MaybeEvict = %v, want injected error", err)
	}
	if b.EvictErrors() != 1 {
		t.Fatalf("EvictErrors = %d, want 1", b.EvictErrors())
	}
}

// TestPartitionBufferConcurrent drives Register / MaybeEvict / Used from
// many goroutines, each evicting inline when its insert crosses the limit
// — the race test, including an owner that injects eviction errors.
func TestPartitionBufferConcurrent(t *testing.T) {
	b := NewPartitionBuffer(64 << 10)

	owners := make([]*atomicOwner, 4)
	for i := range owners {
		owners[i] = &atomicOwner{name: string(rune('a' + i)), b: b}
		b.Register(owners[i])
	}
	// One owner occasionally fails its eviction.
	boom := errors.New("injected")
	bad := &atomicOwner{name: "bad", b: b, evictErr: boom}
	b.Register(bad)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			o := owners[g%len(owners)]
			for i := 0; i < 3000; i++ {
				o.Grow(64)
				b.MaybeEvict() //nolint:errcheck // the bad owner's injected error may surface here
				if i%64 == 0 {
					_ = b.Used()
				}
				if i%500 == 0 {
					// late registration races with the owner scan
					b.Register(&atomicOwner{name: "late", b: b})
				}
				if i%1000 == 0 {
					bad.Grow(128) // keep the failing owner in contention
				}
			}
		}(g)
	}
	wg.Wait()
	if b.Evictions() == 0 {
		t.Fatal("no evictions happened")
	}
	// The injected error is allowed to surface (or not, if "bad" was never
	// the largest), but nothing may have deadlocked or raced to get here.
	t.Logf("evictions=%d errors=%d noVictims=%d", b.Evictions(), b.EvictErrors(), b.NoVictims())
}
