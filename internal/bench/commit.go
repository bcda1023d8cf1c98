package bench

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"time"

	"mvpbt/internal/db"
	"mvpbt/internal/util"
)

// The commit experiment measures the durable-commit pipeline in isolation:
// closed-loop committer goroutines each run begin → one small insert →
// CommitDurable against a WAL-logged table, at batching window 0 and
// commitMaxDelay. A commit appends its record and flushes the log through
// it; a flush covers every record appended before it, so a committer whose
// record another's flush covered writes nothing (DESIGN.md §11). The window
// is how long a committer waits for that to happen before flushing itself,
// which is where the throughput multiple comes from.
const (
	commitKeyLen = 16
	commitRowLen = 64
	// commitMaxDelay is the batching window (GroupCommitConfig.MaxDelay):
	// long enough for concurrent committers to share a flush, short enough
	// that single-client latency stays in the tens of µs.
	commitMaxDelay = 50 * time.Microsecond
)

// newCommitEngine builds a WAL-enabled engine with one SIAS table indexed
// by a unique MV-PBT primary key (the minimal shape whose row operations
// actually hit the log).
func newCommitEngine(s Scale, window time.Duration) (*db.Engine, *db.Table, error) {
	cfg := engineConfig(s.pick(4096, 16384), 4<<20)
	cfg.EnableWAL = true
	cfg.GroupCommit.MaxDelay = window
	e := db.NewEngine(cfg)
	tbl, err := e.NewTable("commits", db.HeapSIAS, db.IndexDef{
		Name:   "pk",
		Kind:   db.IdxMVPBT,
		Unique: true,
		Extract: func(row []byte) []byte {
			return row[:commitKeyLen]
		},
	})
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	return e, tbl, nil
}

// commitRun drives `clients` closed-loop committers for ~total commits on
// a fresh engine and adds the run's row to res. Throughput uses composite
// time (wall + simulated device time: the flush I/O is virtual); per-commit
// latency is the wall-clock p99 of begin→insert→commit, so the batching
// window shows up honestly as added latency.
func commitRun(s Scale, res *Result, window time.Duration, clients, total int) error {
	e, tbl, err := newCommitEngine(s, window)
	if err != nil {
		return err
	}
	defer e.Close()

	per := total / clients
	total = per * clients
	rows := make([][]byte, clients)
	for g := range rows {
		rows[g] = make([]byte, commitRowLen)
	}
	var seq atomic.Uint64

	before := e.WALStatsSnapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	all, el, err := drive(clients, per, nil,
		func(g, _ int) error {
			binary.BigEndian.PutUint64(rows[g], seq.Add(1))
			tx := e.Begin()
			if _, _, err := tbl.Insert(tx, rows[g]); err != nil {
				e.Abort(tx)
				return err
			}
			return e.CommitDurable(tx)
		}, e.Clock)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	after := e.WALStatsSnapshot()

	// Mean number of commits one commit flush made durable.
	avgBatch := 1.0
	if batches := after.Group.Batches - before.Group.Batches; batches > 0 {
		avgBatch = float64(after.Group.Commits-before.Group.Commits) / float64(batches)
	}
	res.Add(label(window.String()), count(clients, 0),
		timed(perSecond(total, el), 1), timed(us(util.Quantile(all, 0.99)), 1),
		count(float64(after.Flushes-before.Flushes)/float64(total), 2),
		count(avgBatch, 1),
		count(float64(ms1.Mallocs-ms0.Mallocs)/float64(total), 1))
	return nil
}

// runCommit produces the commit-pipeline table: batching window
// {0, commitMaxDelay} × {1, 8, 64} committers.
func runCommit(s Scale) (*Result, error) {
	res := &Result{
		ID:    "commit",
		Title: "Durable commit pipeline: batching window 0 vs 50µs, closed-loop committers",
		Header: []string{"window", "clients", "commits/s", "p99_us",
			"flushes/commit", "avg_batch", "allocs/commit"},
	}
	total := s.pick(4096, 65536)
	windows := []time.Duration{0, commitMaxDelay}
	for _, w := range windows {
		for _, clients := range []int{1, 8, 64} {
			if err := commitRun(s, res, w, clients, total); err != nil {
				return nil, err
			}
		}
	}
	// The headline is the 64-committer pair.
	row0, rowW := windows[0].String()+" 64", windows[1].String()+" 64"
	w0, w50 := must(res.Val(row0, "commits/s")), must(res.Val(rowW, "commits/s"))
	res.Note("throughput in composite time (wall + simulated device I/O); p99 latency is wall clock and includes the batching window")
	res.Note("batching window speedup at 64 committers: %.1fx", w50/w0)
	res.Note("allocs/commit is the process-wide heap allocation delta over the run divided by commits")
	res.Headline("window0_commits/s@64", "1/s", w0)
	res.Headline("window50us_commits/s@64", "1/s", w50)
	res.Headline("window50us_flushes/commit@64", "ratio", must(res.Val(rowW, "flushes/commit")))
	return res, nil
}
