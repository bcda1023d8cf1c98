// Package maint is the background maintenance subsystem: a small worker
// pool that runs the reorganizations the paper describes as background
// work — MV-PBT partition eviction (Algorithm 4, §4.5), partition merges,
// PN garbage sweeps (§4.6) and LSM flush/compaction — asynchronously, off
// the foreground write path. The producer side (internal/index/part's
// partition buffer) applies RocksDB-style write stalls when maintenance
// falls behind.
package maint

import (
	"sync"
	"sync/atomic"
	"time"

	"mvpbt/internal/storage"
)

// Kind identifies a class of maintenance job. Per-kind stats are kept so
// the inspect tooling can report how the background budget was spent.
type Kind int

const (
	Evict   Kind = iota // MV-PBT partition-buffer eviction (Algorithm 4)
	Merge               // MV-PBT partition merge
	GC                  // PN garbage sweep (§4.6 phase 1)
	Flush               // LSM memtable flush
	Compact             // LSM compaction
	Reclaim             // space reclamation under watermark pressure (urgent lane)
	nKinds
)

func (k Kind) String() string {
	switch k {
	case Evict:
		return "evict"
	case Merge:
		return "merge"
	case GC:
		return "gc"
	case Flush:
		return "flush"
	case Compact:
		return "compact"
	case Reclaim:
		return "reclaim"
	}
	return "unknown"
}

// Config parameterizes a maintenance Service.
type Config struct {
	// Workers is the pool size; defaults to 2 (one heavy job — an
	// eviction build or a merge — plus one light one can overlap).
	Workers int
	// WrittenBytes reports cumulative device bytes written; the service
	// accounts each job's before/after delta to the job's kind
	// (JobStats.Bytes). Nil disables byte accounting.
	WrittenBytes func() int64

	// MaxRetries bounds how often a job failing with a TRANSIENT error
	// (storage.ErrIOFault) is re-run in place before the service gives up
	// on that instance. Defaults to 3; negative disables retrying.
	// Permanent errors (corrupt pages, freed pages, logic errors) are
	// never retried.
	MaxRetries int
	// RetryBase is the delay before the first retry; each further retry
	// doubles it (exponential backoff). Defaults to 1ms.
	RetryBase time.Duration

	// Sleep is the test seam for the retry backoff.
	Sleep func(time.Duration)
}

type task struct {
	kind Kind
	key  string
	run  func() error
}

// JobStats aggregates one job kind's lifetime counters.
type JobStats struct {
	Runs    int64
	Errors  int64
	Retries int64         // transient-fault re-runs (not counted in Runs)
	GiveUps int64         // jobs abandoned after exhausting the retry budget
	Bytes   int64         // device bytes written while jobs of this kind ran
	Busy    time.Duration // wall time spent running (excludes queueing)
}

// Stats is a snapshot of the service's counters.
type Stats struct {
	Jobs      [nKinds]JobStats
	Submitted int64 // Submit calls accepted (enqueued)
	Deduped   int64 // Submit calls coalesced into an already-pending task
	Urgent    int64 // SubmitUrgent calls accepted (also counted in Submitted)
}

// Service owns the worker pool. Jobs are closures submitted with a
// (kind, key) identity; a job already pending under the same identity is
// coalesced rather than queued twice, but a job submitted while an
// instance of it is RUNNING is enqueued again — the running instance
// observed state from before the new trigger.
type Service struct {
	written    func() int64
	maxRetries int
	retryBase  time.Duration
	sleep      func(time.Duration)

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []task
	pending map[string]bool
	paused  bool
	closed  bool
	lastErr error
	wg      sync.WaitGroup
	done    chan struct{} // closed on Kill/Close; unblocks retry backoffs

	stats     [nKinds]struct{ runs, errors, retries, giveUps, bytes, busyNS atomic.Int64 }
	submitted atomic.Int64
	deduped   atomic.Int64
	urgent    atomic.Int64
	active    atomic.Int64
}

// New starts the worker pool and returns the service.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = time.Millisecond
	}
	s := &Service{
		written:    cfg.WrittenBytes,
		maxRetries: cfg.MaxRetries,
		retryBase:  cfg.RetryBase,
		pending:    make(map[string]bool),
		done:       make(chan struct{}),
	}
	if cfg.Sleep != nil {
		s.sleep = cfg.Sleep
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit enqueues a job unless one with the same identity is already
// waiting in the queue. Returns false when coalesced or when the service
// is closed.
func (s *Service) Submit(kind Kind, key string, run func() error) bool {
	return s.submit(kind, key, run, false)
}

// SubmitUrgent enqueues a job on the priority lane: it goes to the FRONT
// of the queue — this is the path the engine's space governor uses,
// because queueing the work that frees space behind the writes that need
// it would be a priority inversion. An already-pending job with the same
// identity is promoted to the front instead of being queued twice.
func (s *Service) SubmitUrgent(kind Kind, key string, run func() error) bool {
	return s.submit(kind, key, run, true)
}

func (s *Service) submit(kind Kind, key string, run func() error, urgent bool) bool {
	id := kind.String() + "/" + key
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	if s.pending[id] {
		if urgent {
			// Promote the queued instance to the front of the queue.
			for i := range s.queue {
				if s.queue[i].kind == kind && s.queue[i].key == key {
					t := s.queue[i]
					copy(s.queue[1:i+1], s.queue[:i])
					s.queue[0] = t
					break
				}
			}
			s.cond.Broadcast()
		}
		s.mu.Unlock()
		s.deduped.Add(1)
		return false
	}
	s.pending[id] = true
	t := task{kind: kind, key: key, run: run}
	if urgent {
		s.queue = append([]task{t}, s.queue...)
		s.urgent.Add(1)
	} else {
		s.queue = append(s.queue, t)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.submitted.Add(1)
	return true
}

// Pause stops workers from starting new jobs (running jobs finish).
func (s *Service) Pause() {
	s.mu.Lock()
	s.paused = true
	s.mu.Unlock()
}

// Resume undoes Pause.
func (s *Service) Resume() {
	s.mu.Lock()
	s.paused = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Pending returns the number of queued (not yet started) jobs.
func (s *Service) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for (len(s.queue) == 0 || s.paused) && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.closed {
			// Closed and drained (Close clears paused so the remaining
			// queue is processed before exit).
			s.mu.Unlock()
			return
		}
		t := s.queue[0]
		s.queue = s.queue[1:]
		// Drop the pending marker BEFORE running: a re-trigger during the
		// run must enqueue a fresh instance, not be coalesced away.
		delete(s.pending, t.kind.String()+"/"+t.key)
		s.active.Add(1)
		s.mu.Unlock()

		var before int64
		if s.written != nil {
			before = s.written()
		}
		start := time.Now()
		err := t.run()
		st := &s.stats[t.kind]
		// Transient device faults are retried in place with exponential
		// backoff: the job closure is idempotent (it re-reads current state),
		// so re-running it after the fault clears is safe. Permanent errors
		// (corrupt pages, freed pages, logic bugs) skip the loop entirely.
		if storage.Transient(err) && s.maxRetries > 0 {
			delay := s.retryBase
			for attempt := 0; attempt < s.maxRetries && storage.Transient(err); attempt++ {
				if !s.backoff(delay) {
					// The service is being killed/closed; abandon the retry
					// loop instead of sleeping through the shutdown.
					break
				}
				delay *= 2
				st.retries.Add(1)
				err = t.run()
			}
			if storage.Transient(err) {
				st.giveUps.Add(1)
			}
		}
		st.busyNS.Add(int64(time.Since(start)))
		st.runs.Add(1)
		if s.written != nil {
			if delta := s.written() - before; delta > 0 {
				st.bytes.Add(delta)
			}
		}
		if err != nil {
			st.errors.Add(1)
			s.mu.Lock()
			if s.lastErr == nil {
				s.lastErr = err
			}
			s.mu.Unlock()
		}
		s.active.Add(-1)
	}
}

// backoff waits d before a retry. It returns false — without having waited
// the full delay — when the service is shut down meanwhile, so a worker
// never holds up Kill/Close by sleeping in an exponential-backoff loop.
// The cfg.Sleep test seam, when installed, is used as-is (virtual time).
func (s *Service) backoff(d time.Duration) bool {
	if s.sleep != nil {
		s.sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.done:
		return false
	}
}

// Drain blocks until the queue is empty and no job is running. It does
// not stop the workers; new submissions after Drain returns run normally.
// A paused service with queued work never drains — callers must Resume
// first.
func (s *Service) Drain() {
	for {
		s.mu.Lock()
		empty := len(s.queue) == 0
		s.mu.Unlock()
		if empty && s.active.Load() == 0 {
			// Re-check the queue: a job that finished between the two loads
			// may have submitted a follow-up (flush → compact).
			s.mu.Lock()
			empty = len(s.queue) == 0
			s.mu.Unlock()
			if empty {
				return
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Quiesce is the deterministic checkpoint barrier: it resumes a paused
// service (a paused queue never drains), processes every queued job, and
// returns only when the queue is empty AND no job is running. Anything the
// background jobs were going to publish has been published when Quiesce
// returns; the service keeps running. Follow-up submissions made BY running
// jobs (flush → compact) are covered — a job's submissions happen while it
// still counts as active — but submissions from other goroutines racing
// Quiesce are naturally outside the barrier.
func (s *Service) Quiesce() {
	s.Resume()
	for {
		s.Drain()
		s.mu.Lock()
		idle := len(s.queue) == 0 && s.active.Load() == 0
		s.mu.Unlock()
		if idle {
			return
		}
	}
}

// Kill simulates a crash: queued jobs are DISCARDED (never run) and the
// workers stop as soon as any currently running job finishes. Unlike
// Close, nothing is drained — state the discarded jobs would have
// published simply never appears, exactly like power loss with work
// pending. Idempotent; a subsequent Close is a no-op.
func (s *Service) Kill() {
	s.mu.Lock()
	if !s.closed {
		close(s.done)
	}
	s.closed = true
	s.queue = nil
	s.pending = make(map[string]bool)
	s.paused = false
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// Close drains the remaining queue, stops the workers, and returns the
// first error any job recorded over the service's lifetime.
func (s *Service) Close() error {
	s.mu.Lock()
	if !s.closed {
		close(s.done)
	}
	s.closed = true
	s.paused = false // drain everything even if paused
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Err returns the first error any job recorded (nil if none).
func (s *Service) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// Stats returns a snapshot of all counters.
func (s *Service) Stats() Stats {
	var out Stats
	for k := Kind(0); k < nKinds; k++ {
		st := &s.stats[k]
		out.Jobs[k] = JobStats{
			Runs:    st.runs.Load(),
			Errors:  st.errors.Load(),
			Retries: st.retries.Load(),
			GiveUps: st.giveUps.Load(),
			Bytes:   st.bytes.Load(),
			Busy:    time.Duration(st.busyNS.Load()),
		}
	}
	out.Submitted = s.submitted.Load()
	out.Deduped = s.deduped.Load()
	out.Urgent = s.urgent.Load()
	return out
}
