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
// CommitDurable against a WAL-logged table, with group commit off and on.
// Without group commit every committer flushes the log itself; with it a
// batch leader flushes once for many committers (DESIGN.md §11), which is
// where the throughput multiple comes from.
const (
	commitKeyLen = 16
	commitRowLen = 64
	// commitMaxDelay is the leader's batching window when group commit is
	// on: long enough for concurrent committers to pile into the batch,
	// short enough that single-client latency stays in the tens of µs.
	commitMaxDelay = 50 * time.Microsecond
)

// newCommitEngine builds a WAL-enabled engine with one SIAS table indexed
// by a unique MV-PBT primary key (the minimal shape whose row operations
// actually hit the log).
func newCommitEngine(s Scale, group bool) (*db.Engine, *db.Table, error) {
	cfg := engineConfig(s.pick(4096, 16384), 4<<20)
	cfg.EnableWAL = true
	if group {
		cfg.GroupCommit = db.GroupCommitConfig{Enabled: true, MaxDelay: commitMaxDelay}
	}
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
// latency is the wall-clock p99 of begin→insert→commit, so the group-commit
// batching window shows up honestly as added latency.
func commitRun(s Scale, res *Result, mode string, clients, total int) error {
	e, tbl, err := newCommitEngine(s, mode == "on")
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

	// Mean and largest number of commits one leader flush acknowledged.
	avgBatch, maxBatch := 1.0, int64(1)
	if batches := after.Group.Batches - before.Group.Batches; batches > 0 {
		avgBatch = float64(after.Group.Commits-before.Group.Commits) / float64(batches)
		maxBatch = after.Group.MaxBatched
	}
	res.Add(label(mode), count(clients, 0),
		timed(perSecond(total, el), 1), timed(us(util.Quantile(all, 0.99)), 1),
		count(float64(after.Flushes-before.Flushes)/float64(total), 2),
		count(avgBatch, 1), count(maxBatch, 0),
		count(float64(ms1.Mallocs-ms0.Mallocs)/float64(total), 1))
	return nil
}

// runCommit produces the commit-pipeline table: group commit {off, on} ×
// {1, 8, 64} committers.
func runCommit(s Scale) (*Result, error) {
	res := &Result{
		ID:    "commit",
		Title: "Durable commit pipeline: group commit off vs on, closed-loop committers",
		Header: []string{"group", "clients", "commits/s", "p99_us",
			"flushes/commit", "avg_batch", "max_batch", "allocs/commit"},
	}
	total := s.pick(4096, 65536)
	for _, mode := range []string{"off", "on"} {
		for _, clients := range []int{1, 8, 64} {
			if err := commitRun(s, res, mode, clients, total); err != nil {
				return nil, err
			}
		}
	}
	// The headline is the 64-committer pair.
	off64, on64 := must(res.Val("off 64", "commits/s")), must(res.Val("on 64", "commits/s"))
	res.Note("throughput in composite time (wall + simulated device I/O); p99 latency is wall clock and includes the %v batching window", commitMaxDelay)
	res.Note("group commit speedup at 64 committers: %.1fx", on64/off64)
	res.Note("allocs/commit is the process-wide heap allocation delta over the run divided by commits")
	res.Headline("off_commits/s@64", "1/s", off64)
	res.Headline("on_commits/s@64", "1/s", on64)
	res.Headline("on_flushes/commit@64", "ratio", must(res.Val("on 64", "flushes/commit")))
	return res, nil
}
