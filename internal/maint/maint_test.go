package maint

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvpbt/internal/storage"
)

func TestServiceRunsJobs(t *testing.T) {
	s := New(Config{Workers: 2})
	var n atomic.Int64
	for i := 0; i < 10; i++ {
		s.Submit(Evict, "pbuf", func() error { n.Add(1); return nil })
		s.Submit(Merge, "tree", func() error { n.Add(1); return nil })
	}
	s.Drain()
	if got := n.Load(); got == 0 {
		t.Fatal("no jobs ran")
	}
	st := s.Stats()
	if st.Jobs[Evict].Runs == 0 || st.Jobs[Merge].Runs == 0 {
		t.Fatalf("per-kind runs not recorded: %+v", st.Jobs)
	}
	if st.Submitted+st.Deduped != 20 {
		t.Fatalf("submitted %d + deduped %d != 20", st.Submitted, st.Deduped)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServiceDedupe(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	s.Pause()
	var n atomic.Int64
	run := func() error { n.Add(1); return nil }
	if !s.Submit(GC, "t1", run) {
		t.Fatal("first submit rejected")
	}
	if s.Submit(GC, "t1", run) {
		t.Fatal("duplicate pending submit not coalesced")
	}
	if !s.Submit(GC, "t2", run) {
		t.Fatal("distinct key wrongly coalesced")
	}
	if got := s.Pending(); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	s.Resume()
	s.Drain()
	if got := n.Load(); got != 2 {
		t.Fatalf("ran %d jobs, want 2", got)
	}
	if st := s.Stats(); st.Deduped != 1 {
		t.Fatalf("deduped = %d, want 1", st.Deduped)
	}
}

// A job submitted while an instance of it is running must be enqueued
// again: the running instance saw pre-trigger state.
func TestServiceResubmitDuringRun(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	var runs atomic.Int64
	s.Submit(Flush, "lsm", func() error {
		close(started)
		<-release
		runs.Add(1)
		return nil
	})
	<-started
	if !s.Submit(Flush, "lsm", func() error { runs.Add(1); return nil }) {
		t.Fatal("resubmit during run was coalesced")
	}
	close(release)
	s.Drain()
	if got := runs.Load(); got != 2 {
		t.Fatalf("ran %d, want 2", got)
	}
}

func TestServicePauseResume(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	s.Pause()
	var n atomic.Int64
	s.Submit(Compact, "x", func() error { n.Add(1); return nil })
	time.Sleep(5 * time.Millisecond)
	if n.Load() != 0 {
		t.Fatal("job ran while paused")
	}
	s.Resume()
	s.Drain()
	if n.Load() != 1 {
		t.Fatal("job did not run after resume")
	}
}

func TestServiceCloseDrainsAndReportsError(t *testing.T) {
	s := New(Config{Workers: 1})
	boom := errors.New("boom")
	var n atomic.Int64
	for i := 0; i < 5; i++ {
		k := i
		s.Submit(Evict, string(rune('a'+k)), func() error {
			n.Add(1)
			if k == 2 {
				return boom
			}
			return nil
		})
	}
	if err := s.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close err = %v, want boom", err)
	}
	if got := n.Load(); got != 5 {
		t.Fatalf("Close drained %d jobs, want 5", got)
	}
	if s.Submit(Evict, "late", func() error { return nil }) {
		t.Fatal("Submit accepted after Close")
	}
	if st := s.Stats(); st.Jobs[Evict].Errors != 1 {
		t.Fatalf("errors = %d, want 1", st.Jobs[Evict].Errors)
	}
}

func TestServiceChargesWrittenBytes(t *testing.T) {
	var written atomic.Int64
	s := New(Config{Workers: 1, WrittenBytes: written.Load})
	defer s.Close()
	for i := 0; i < 3; i++ {
		s.Submit(Flush, "lsm"+string(rune('0'+i)), func() error {
			written.Add(2 << 20)
			return nil
		})
	}
	s.Drain()
	st := s.Stats()
	if st.Jobs[Flush].Bytes != 6<<20 {
		t.Fatalf("bytes = %d, want %d", st.Jobs[Flush].Bytes, 6<<20)
	}
}

func TestServiceConcurrentSubmit(t *testing.T) {
	s := New(Config{Workers: 4})
	var n atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Submit(Kind(i%int(nKinds)), string(rune('a'+g)), func() error {
					n.Add(1)
					return nil
				})
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n.Load() == 0 {
		t.Fatal("no jobs ran")
	}
	st := s.Stats()
	if st.Submitted+st.Deduped != 8*200 {
		t.Fatalf("submitted %d + deduped %d != 1600", st.Submitted, st.Deduped)
	}
}

// Transient device faults (storage.ErrIOFault) are retried in place with
// exponential backoff: N-1 failures followed by success must be invisible
// to the error counters, and each retry must wait longer than the last.
func TestRetryMasksTransientFaults(t *testing.T) {
	var mu sync.Mutex
	var delays []time.Duration
	s := New(Config{
		Workers:    1,
		MaxRetries: 3,
		RetryBase:  time.Millisecond,
		Sleep: func(d time.Duration) {
			mu.Lock()
			delays = append(delays, d)
			mu.Unlock()
		},
	})
	defer s.Close()
	var calls atomic.Int64
	s.Submit(Compact, "lsm", func() error {
		if calls.Add(1) < 3 {
			return fmt.Errorf("compact: %w", storage.ErrIOFault)
		}
		return nil
	})
	s.Drain()
	st := s.Stats().Jobs[Compact]
	if calls.Load() != 3 {
		t.Fatalf("job ran %d times, want 3 (2 faults + success)", calls.Load())
	}
	if st.Runs != 1 || st.Retries != 2 || st.Errors != 0 || st.GiveUps != 0 {
		t.Fatalf("stats %+v, want Runs=1 Retries=2 Errors=0 GiveUps=0", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delays) != 2 || delays[1] <= delays[0] {
		t.Fatalf("backoff delays %v: want 2 growing delays", delays)
	}
}

// A job that keeps faulting exhausts the retry budget, lands in the error
// and give-up counters, and must NOT wedge the queue: later jobs still run.
func TestRetryExhaustionDoesNotWedgeQueue(t *testing.T) {
	s := New(Config{
		Workers:    1,
		MaxRetries: 2,
		RetryBase:  time.Microsecond,
		Sleep:      func(time.Duration) {},
	})
	var faulty atomic.Int64
	s.Submit(Merge, "tree", func() error {
		faulty.Add(1)
		return fmt.Errorf("merge: %w", storage.ErrIOFault)
	})
	var ok atomic.Bool
	s.Submit(Merge, "other", func() error { ok.Store(true); return nil })
	s.Drain()
	st := s.Stats().Jobs[Merge]
	if faulty.Load() != 3 { // initial run + 2 retries
		t.Fatalf("faulty job ran %d times, want 3", faulty.Load())
	}
	if st.Errors != 1 || st.GiveUps != 1 || st.Retries != 2 {
		t.Fatalf("stats %+v, want Errors=1 GiveUps=1 Retries=2", st)
	}
	if !ok.Load() {
		t.Fatal("job behind the exhausted one never ran: queue wedged")
	}
	if err := s.Close(); !errors.Is(err, storage.ErrIOFault) {
		t.Fatalf("Close error %v, want the recorded fault", err)
	}
}

// Permanent errors (anything that is not storage.ErrIOFault) must not be
// retried: re-running a job that hit corruption or a logic bug cannot help.
func TestPermanentErrorsNotRetried(t *testing.T) {
	slept := atomic.Int64{}
	s := New(Config{
		Workers:    1,
		MaxRetries: 3,
		Sleep:      func(time.Duration) { slept.Add(1) },
	})
	defer s.Close()
	var calls atomic.Int64
	s.Submit(GC, "tree", func() error {
		calls.Add(1)
		return fmt.Errorf("gc: %w", storage.ErrCorruptPage)
	})
	s.Drain()
	st := s.Stats().Jobs[GC]
	if calls.Load() != 1 || st.Retries != 0 || st.GiveUps != 0 || st.Errors != 1 {
		t.Fatalf("calls=%d stats=%+v, want a single non-retried error", calls.Load(), st)
	}
	if slept.Load() != 0 {
		t.Fatal("backoff slept for a permanent error")
	}
}
