package part

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Owner is an index holding a main-memory partition PN inside the shared
// MV-PBT buffer. While registered, it reports every change of its PNBytes
// to the buffer's running total (PartitionBuffer.Add).
type Owner interface {
	// PNBytes returns the current size of the index's main-memory
	// partition.
	PNBytes() int
	// EvictPN persists the main-memory partition (paper Algorithm 4).
	EvictPN() error
}

// ErrNoVictim reports that the buffer is over its limit but no owner has
// a non-empty PN to evict (no owners registered, all PNs empty, or
// evictions made no progress). The condition is surfaced via both the
// error and the NoVictims counter so an undersized buffer or a broken owner
// is observable. An evictor that shrank every PN it was handed and was
// merely refilled by a faster writer is NOT this condition: the next insert
// over the limit evicts again.
var ErrNoVictim = errors.New("partition buffer over limit but no evictable partition")

// PartitionBuffer is the shared MV-PBT buffer of §4.5: all partitioned
// indexes place their PN here, and when the total size crosses the limit
// the LARGEST partition is evicted as a whole — giving update-intensive
// indexes room to grow while small partitions are flushed before they
// fragment the index into many tiny partitions. The writer whose insert
// crosses the limit runs the eviction (MaybeEvict, paper Algorithm 4).
//
// Eviction itself never runs under the buffer's exclusive lock: owner
// list and sizes are read under RLock, and the (expensive, I/O-charging)
// EvictPN call is serialized only by evictMu, so readers and writers that
// stay under the limit proceed while a partition is being persisted.
type PartitionBuffer struct {
	mu     sync.RWMutex
	owners []Owner

	limit int
	used  atomic.Int64 // the owners' PNBytes, summed as they report changes

	// evictMu serializes evictions; deliberately not b.mu.
	evictMu sync.Mutex

	evictions   atomic.Int64
	evictErrors atomic.Int64
	noVictims   atomic.Int64
}

// NewPartitionBuffer returns a buffer with the given byte limit.
func NewPartitionBuffer(limit int) *PartitionBuffer {
	if limit < 1 {
		limit = 1
	}
	return &PartitionBuffer{limit: limit}
}

// Register adds an index to the buffer's accounting.
func (b *PartitionBuffer) Register(o Owner) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.owners = append(b.owners, o)
	b.used.Add(int64(o.PNBytes()))
}

// Unregister removes an index from the buffer's accounting (a quarantined
// tree being replaced by a rebuild). No-op when o was never registered.
func (b *PartitionBuffer) Unregister(o Owner) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, own := range b.owners {
		if own == o {
			b.owners = append(b.owners[:i], b.owners[i+1:]...)
			b.used.Add(-int64(o.PNBytes()))
			return
		}
	}
}

// Used returns the total bytes of all main-memory partitions.
func (b *PartitionBuffer) Used() int { return int(b.used.Load()) }

// Add adds n bytes, negative when freed, to the running total.
func (b *PartitionBuffer) Add(n int) { b.used.Add(int64(n)) }

// Evictions returns the number of partition evictions so far.
func (b *PartitionBuffer) Evictions() int64 { return b.evictions.Load() }

// EvictErrors returns the number of failed eviction attempts.
func (b *PartitionBuffer) EvictErrors() int64 { return b.evictErrors.Load() }

// NoVictims returns how often the buffer was over its limit with nothing to
// evict (see ErrNoVictim).
func (b *PartitionBuffer) NoVictims() int64 { return b.noVictims.Load() }

// Stalls always returns zeros: write stalls went with the background
// maintenance mode. It remains only because benchmarks/sut.go reads it; a
// benchmark-scoped PR removes it together with the part.stalls and
// part.stall_ms metrics.
func (b *PartitionBuffer) Stalls() (int64, time.Duration) { return 0, 0 }

// MaybeEvict is called by indexes after every PN insert: once the buffer is
// over its limit it evicts whole partitions, largest first, inline on the
// calling writer until Used() <= Limit(). Returns ErrNoVictim when over the
// limit with nothing to evict. The owner scan holds only the read lock and
// the EvictPN call holds only evictMu, so inserts of other indexes that
// stay under the limit are never blocked by an in-flight eviction.
func (b *PartitionBuffer) MaybeEvict() error {
	if b.Used() <= b.limit {
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
		if used <= b.limit {
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
		progressed = progressed || victim.PNBytes() < max
	}
	if progressed {
		// Evictions drained their PNs and usage is still over the limit: the
		// writers outran us. Their next insert evicts again.
		return nil
	}
	b.noVictims.Add(1)
	return ErrNoVictim
}
