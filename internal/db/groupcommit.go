package db

import (
	"runtime"
	"time"

	"mvpbt/internal/wal"
)

// ErrClosed is returned by a durable commit, prepare or commit decision that
// reaches the engine after Close or Crash has fenced its log: the
// transaction was NOT committed (in memory or on the device) and the caller
// must not acknowledge it.
var ErrClosed = wal.ErrClosed

// GroupCommitConfig tunes WAL group commit (Config.GroupCommit). Group
// commit needs no batcher: a flush covers every record appended before it,
// so a committer appends its commit record and flushes the log through it,
// and a flush that already covered the record ends its wait (DESIGN.md §11).
type GroupCommitConfig struct {
	// Enabled has no effect: every durable commit takes the one path above.
	// It stays only because benchmarks/sut.go still sets it.
	Enabled bool
	// MaxDelay bounds how long a committer waits for another committer's
	// flush to cover its record before flushing the log itself. 0 (the
	// default) flushes at once; only a window makes commits share flushes.
	MaxDelay time.Duration
}

// awaitFlush gives a commit record ending at end up to MaxDelay to be
// covered by another committer's flush. It spins with Gosched rather than
// sleeping: the delays in play are in the microseconds, far below timer
// resolution.
func (e *Engine) awaitFlush(end int64) {
	if e.cfg.GroupCommit.MaxDelay <= 0 {
		return
	}
	deadline := time.Now().Add(e.cfg.GroupCommit.MaxDelay)
	for !e.log.Synced(end) && time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// GroupCommitStats counts CommitDurable's side of the log.
type GroupCommitStats struct {
	Batches int64 // commit flushes that wrote the device
	Commits int64 // durable commits
}

// WALStats aggregates commit-pipeline counters for inspection.
type WALStats struct {
	Flushes         int64 // successful log flushes that wrote the device (monotonic across checkpoints)
	DeviceBytes     int64 // device bytes those flushes wrote, checkpoint generations included
	LogicalBytes    int64 // record bytes appended to the log, checkpoint generations included
	Commits         int64 // durable commits that appended a commit record
	ReadOnlyCommits int64 // commits elided entirely (transaction never logged)
	Group           GroupCommitStats
}

// WALStatsSnapshot returns the engine's commit-pipeline counters; zero
// values when logging is disabled.
func (e *Engine) WALStatsSnapshot() WALStats {
	s := WALStats{
		Commits:         e.walCommits.Load(),
		ReadOnlyCommits: e.walROCommits.Load(),
	}
	if e.log != nil {
		st := e.log.Stats()
		s.Flushes, s.DeviceBytes, s.LogicalBytes = st.Flushes, st.FlushedBytes, st.Written
	}
	s.Group = GroupCommitStats{Batches: e.commitFlushes.Load(), Commits: e.durableCommits.Load()}
	return s
}
