package part

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Owner is an index holding a main-memory partition PN inside the shared
// MV-PBT buffer.
type Owner interface {
	// Name identifies the index in diagnostics.
	Name() string
	// PNBytes returns the current size of the index's main-memory
	// partition.
	PNBytes() int
	// EvictPN freezes and persists the main-memory partition (paper
	// Algorithm 4).
	EvictPN() error
}

// ErrNoVictim reports that the buffer is over its target but no owner has
// a non-empty PN to evict (no owners registered, all PNs empty, or
// evictions made no progress). Previously this condition was silently
// swallowed; now it is surfaced via both the error and the NoVictims
// counter so an undersized buffer or a broken owner is observable. An
// evictor that shrank every PN it was handed and was merely refilled by a
// faster writer is NOT this condition: that is backpressure, and the next
// insert over the watermark re-arms eviction.
var ErrNoVictim = errors.New("partition buffer over limit but no evictable partition")

// PartitionBuffer is the shared MV-PBT buffer of §4.5: all partitioned
// indexes place their PN here, and when the total size crosses the limit
// the LARGEST partition is evicted as a whole — giving update-intensive
// indexes room to grow while small partitions are flushed before they
// fragment the index into many tiny partitions.
//
// Two operating modes:
//
//   - Synchronous (no notifier installed): DidInsert behaves like the
//     original MaybeEvict — the inserting writer evicts inline once the
//     hard limit is crossed.
//
//   - Background (SetNotifier installed by the maintenance service): the
//     notifier fires when usage crosses the LOW watermark, and a
//     background worker calls EvictToLow. Writers only block — a bounded
//     RocksDB-style write stall — when usage exceeds the HIGH watermark,
//     i.e. when eviction has fallen behind the insert rate.
//
// Eviction itself never runs under the buffer's exclusive lock: owner
// list and sizes are read under RLock, and the (expensive, I/O-charging)
// EvictPN call is serialized only by evictMu. Concurrent writers of
// different indexes therefore never serialize here unless they stall.
type PartitionBuffer struct {
	mu     sync.RWMutex
	owners []Owner

	limit int          // hard target the sync path enforces
	low   atomic.Int64 // background-eviction trigger (<= limit)
	high  atomic.Int64 // write-stall threshold (>= limit)

	// evictMu serializes evictions; deliberately not b.mu so readers and
	// writers proceed while a partition is being persisted.
	evictMu sync.Mutex

	notify atomic.Pointer[func()] // background-mode trigger; nil = sync mode

	// stall machinery: stallCh is closed (and replaced) after every
	// eviction to wake all stalled writers at once. stallTimers pools the
	// stall timers per buffer: one literal timer would be shared mutable
	// state across concurrent stallers, while a per-call time.NewTimer is
	// an allocation on the hottest degraded path — the pool gives each
	// staller a private timer that is Reset-reused across stalls.
	stallMu      sync.Mutex
	stallCh      chan struct{}
	stallTimeout atomic.Int64 // ns
	stallTimers  sync.Pool

	evictions   atomic.Int64
	evictErrors atomic.Int64
	noVictims   atomic.Int64
	stalls      atomic.Int64
	stallNS     atomic.Int64
}

// DefaultStallTimeout bounds how long one DidInsert call may block when
// the buffer is above the high watermark. Writers re-trigger eviction and
// retry, so the total stall across calls can exceed this, but a single
// insert never hangs.
const DefaultStallTimeout = 5 * time.Millisecond

// NewPartitionBuffer returns a buffer with the given byte limit. The low
// watermark defaults to 80% of the limit and the high watermark to 125%.
func NewPartitionBuffer(limit int) *PartitionBuffer {
	if limit < 1 {
		limit = 1
	}
	b := &PartitionBuffer{
		limit:   limit,
		stallCh: make(chan struct{}),
	}
	b.low.Store(int64(limit - limit/5))
	b.high.Store(int64(limit + limit/4))
	b.stallTimeout.Store(int64(DefaultStallTimeout))
	return b
}

// Register adds an index to the buffer's accounting.
func (b *PartitionBuffer) Register(o Owner) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.owners = append(b.owners, o)
}

// Unregister removes an index from the buffer's accounting (a quarantined
// tree being replaced by a rebuild). No-op when o was never registered.
func (b *PartitionBuffer) Unregister(o Owner) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, own := range b.owners {
		if own == o {
			b.owners = append(b.owners[:i], b.owners[i+1:]...)
			return
		}
	}
}

// Used returns the total bytes of all main-memory partitions.
func (b *PartitionBuffer) Used() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	total := 0
	for _, o := range b.owners {
		total += o.PNBytes()
	}
	return total
}

// Limit returns the configured byte limit.
func (b *PartitionBuffer) Limit() int { return b.limit }

// Low returns the background-eviction trigger watermark.
func (b *PartitionBuffer) Low() int { return int(b.low.Load()) }

// High returns the write-stall watermark.
func (b *PartitionBuffer) High() int { return int(b.high.Load()) }

// SetWatermarks overrides the low/high watermarks (tests, tuning). Values
// are clamped to low <= limit <= high.
func (b *PartitionBuffer) SetWatermarks(low, high int) {
	if low > b.limit {
		low = b.limit
	}
	if high < b.limit {
		high = b.limit
	}
	b.low.Store(int64(low))
	b.high.Store(int64(high))
}

// SetStallTimeout overrides the per-call stall bound.
func (b *PartitionBuffer) SetStallTimeout(d time.Duration) {
	if d > 0 {
		b.stallTimeout.Store(int64(d))
	}
}

// SetNotifier switches the buffer to background mode: fn is invoked
// (non-blocking, possibly concurrently) whenever an insert observes usage
// at or above the low watermark. Pass nil to return to synchronous mode.
func (b *PartitionBuffer) SetNotifier(fn func()) {
	if fn == nil {
		b.notify.Store(nil)
		return
	}
	b.notify.Store(&fn)
}

// Evictions returns the number of partition evictions so far.
func (b *PartitionBuffer) Evictions() int64 { return b.evictions.Load() }

// EvictErrors returns the number of failed eviction attempts.
func (b *PartitionBuffer) EvictErrors() int64 { return b.evictErrors.Load() }

// NoVictims returns how often the buffer was over target with nothing to
// evict (see ErrNoVictim).
func (b *PartitionBuffer) NoVictims() int64 { return b.noVictims.Load() }

// Stalls returns the number of write stalls and the cumulative time
// writers spent stalled.
func (b *PartitionBuffer) Stalls() (int64, time.Duration) {
	return b.stalls.Load(), time.Duration(b.stallNS.Load())
}

// DidInsert is called by indexes after every PN insert, with the context
// of the inserting transaction. In synchronous mode it evicts inline (the
// original MaybeEvict behavior). In background mode it triggers the
// notifier at the low watermark and stalls the caller — bounded, with
// periodic re-triggering — above the high watermark until eviction catches
// up. A canceled or expired ctx ends the stall immediately and its error
// is returned; the insert itself has already happened, so callers treat it
// as "insert done, deadline hit while absorbing backpressure".
func (b *PartitionBuffer) DidInsert(ctx context.Context) error {
	fn := b.notify.Load()
	if fn == nil {
		return b.MaybeEvict()
	}
	used := b.Used()
	if used < b.Low() {
		return nil
	}
	(*fn)()
	if used < b.High() {
		return nil
	}
	return b.stallWait(ctx, fn)
}

// acquireTimer takes a stopped timer from the pool (or makes one) and arms
// it for d.
func (b *PartitionBuffer) acquireTimer(d time.Duration) *time.Timer {
	if t, _ := b.stallTimers.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// releaseTimer stops and drains t, returning it to the pool ready for the
// next Reset.
func (b *PartitionBuffer) releaseTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	b.stallTimers.Put(t)
}

// stallWait blocks until usage drops below the high watermark, the stall
// timeout elapses (returns nil — the writer proceeds and will stall again
// on its next insert if eviction is still behind), or ctx is done (returns
// ctx.Err()), waking early whenever an eviction completes.
func (b *PartitionBuffer) stallWait(ctx context.Context, fn *func()) error {
	start := time.Now()
	timer := b.acquireTimer(time.Duration(b.stallTimeout.Load()))
	defer b.releaseTimer(timer)
	defer func() { b.stallNS.Add(int64(time.Since(start))) }()
	b.stalls.Add(1)
	for {
		b.stallMu.Lock()
		ch := b.stallCh
		b.stallMu.Unlock()
		if b.Used() < b.High() {
			return nil
		}
		(*fn)() // keep the eviction queue primed while we wait
		select {
		case <-ch:
			// an eviction finished; re-check usage
		case <-timer.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// wakeStalled releases every writer currently blocked in stallWait.
func (b *PartitionBuffer) wakeStalled() {
	b.stallMu.Lock()
	close(b.stallCh)
	b.stallCh = make(chan struct{})
	b.stallMu.Unlock()
}

// MaybeEvict evicts largest-first until the buffer is within its hard
// limit (the synchronous path, kept for callers that manage their own
// scheduling). Returns ErrNoVictim when over the limit with nothing to
// evict.
func (b *PartitionBuffer) MaybeEvict() error {
	return b.evictDownTo(b.limit)
}

// EvictToLow evicts largest-first until usage is at or below the low
// watermark — the background maintenance job.
func (b *PartitionBuffer) EvictToLow() error {
	return b.evictDownTo(b.Low())
}

// evictDownTo performs largest-first whole-partition evictions until
// Used() <= target. The owner scan holds only the read lock and the
// EvictPN call holds only evictMu, so foreground inserts (which touch
// b.mu) are never blocked by an in-flight eviction.
func (b *PartitionBuffer) evictDownTo(target int) error {
	if b.Used() <= target {
		return nil
	}
	b.evictMu.Lock()
	defer b.evictMu.Unlock()
	// Bound the loop: an owner whose EvictPN makes no progress (PNBytes
	// unchanged) must not spin us forever, and neither must a writer that
	// refills PN as fast as we drain it.
	b.mu.RLock()
	attempts := 2*len(b.owners) + 4
	b.mu.RUnlock()
	progressed := false
	for ; attempts > 0; attempts-- {
		b.mu.RLock()
		used := 0
		var victim Owner
		max := 0
		for _, o := range b.owners {
			s := o.PNBytes()
			used += s
			if s > max {
				max, victim = s, o
			}
		}
		b.mu.RUnlock()
		if used <= target {
			return nil
		}
		if victim == nil {
			b.noVictims.Add(1)
			return ErrNoVictim
		}
		if err := victim.EvictPN(); err != nil {
			b.evictErrors.Add(1)
			return err
		}
		b.evictions.Add(1)
		b.wakeStalled()
		progressed = progressed || victim.PNBytes() < max
	}
	if progressed {
		// Evictions drained their PNs and usage is still over target: the
		// writers outran us. Their next insert re-triggers eviction (inline,
		// or through the notifier and, past the high watermark, a stall).
		return nil
	}
	b.noVictims.Add(1)
	return ErrNoVictim
}
