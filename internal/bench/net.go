package bench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mvpbt/internal/db"
	"mvpbt/internal/server"
	"mvpbt/internal/server/shardclient"
	"mvpbt/internal/shard"
	"mvpbt/internal/simclock"
	"mvpbt/internal/ssd"
	"mvpbt/internal/util"
)

// The net experiment measures the sharding tentpole end to end: closed-loop
// TCP clients issue durable autocommit SETs through mvpbt-server's wire
// protocol into a shard.Router. Two phases:
//
//  1. Scaling: shards {1,2,4} x clients {1,8,32}. Every SET is WAL-logged
//     on its owning shard, so the per-shard log device is the bottleneck;
//     N shards give N log devices charging N independent virtual clocks.
//     Composite time for a multi-shard run is wall time plus the MAX of
//     the per-shard simulated I/O times (the devices run in parallel),
//     so the ops/s column directly shows the sharding speedup.
//
//  2. Overload: one shard, many session-per-batch clients (connect, issue
//     a batch, disconnect — the shape admission control can gate). With
//     admission ON the server queues new sessions past a small concurrency
//     cap, bounding in-server concurrency; with admission OFF every
//     session is admitted at once. The p99 column shows what the cap buys.
const (
	netValLen   = 2 << 10 // value bytes per SET (dominates the WAL write)
	netBatchOps = 32      // ops per session in the overload phase
)

// netProfile is a SATA-class device: the paper's NVMe read latencies with
// 16x slower writes (~700 8KiB write IOPS). The scaling phase targets the
// I/O-bound regime — the regime sharding is for — and on the fast NVMe
// profile the durable write path is so cheap that loopback TCP and Go
// scheduling dominate the measurement instead of the device.
func netProfile() ssd.Profile {
	p := ssd.IntelP3600
	p.WriteSeq8 *= 16
	p.WriteSeq64 *= 16
	p.WriteRand8 *= 16
	p.WriteRand64 *= 16
	return p
}

// netEngine is the per-shard engine template for the experiment.
func netEngine(s Scale) db.Config {
	cfg := engineConfig(s.pick(1024, 4096), 256<<10)
	if cfg.Device == (ssd.DeviceSpec{}) { // an explicit -device wins
		cfg.Device = ssd.DeviceSpec{Profile: netProfile()}
	}
	cfg.EnableWAL = true
	cfg.GroupCommit.MaxDelay = commitMaxDelay
	return cfg
}

// netRun serves a fresh router of the given shard count under cfg and
// drives workers closed-loop TCP clients, per durable SETs each, against it.
// A client holds one session for batch consecutive ops, then disconnects and
// dials anew (untimed, waiting out admission rejects); key names each op's
// key. It returns composite ops/s — the stopwatch watches every shard's
// clock, and the shards' devices are independent, so the slowest shard's
// simulated I/O time is charged, not the sum — the wall-clock p99 per op,
// and the server's admission counters.
func netRun(s Scale, shards int, cfg server.Config, workers, per, batch int, key func(g, i int) string) (rate float64, p99 time.Duration, m server.Metrics, err error) {
	r, err := shard.New(shard.Config{Shards: shards, Engine: netEngine(s)})
	if err != nil {
		return 0, 0, m, err
	}
	defer func() {
		if cerr := r.Close(); err == nil {
			err = cerr
		}
	}()
	cfg.Addr = "127.0.0.1:0"
	srv := server.New(r, cfg)
	addr, err := srv.Start()
	if err != nil {
		return 0, 0, m, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if serr := srv.Stop(ctx); err == nil {
			err = serr
		}
	}()
	clocks := make([]*simclock.Clock, shards)
	for i := range clocks {
		clocks[i] = r.Shard(i).Engine.Clock
	}

	val := make([]byte, netValLen)
	for i := range val {
		val[i] = byte(i)
	}
	conns := make([]*shardclient.Client, workers)
	keys := make([][]byte, workers)
	all, el, err := drive(workers, per,
		func(g, i int) error {
			keys[g] = []byte(key(g, i))
			if i%batch != 0 {
				return nil
			}
			for {
				c, err := shardclient.Dial(addr.String(), "bench")
				if errors.Is(err, shardclient.ErrAdmission) {
					time.Sleep(time.Millisecond) // rejected: retry after a beat
					continue
				}
				conns[g] = c
				return err
			}
		},
		func(g, i int) error {
			err := conns[g].Set(0, keys[g], val)
			if err != nil || (i+1)%batch == 0 {
				// Hang up with the session's last op, not before the next
				// dial: a finished client must not sit on an admission slot.
				conns[g].Close()
			}
			return err
		}, clocks...)
	if err != nil {
		return 0, 0, m, err
	}
	return perSecond(len(all), el), util.Quantile(all, 0.99), srv.Metrics(), nil
}

// runNet produces the two-phase table. Columns that do not apply to a
// phase hold "-".
func runNet(s Scale) (*Result, error) {
	res := &Result{
		ID:    "net",
		Title: "Sharded network front-end (durable autocommit SETs over TCP)",
		Header: []string{"phase", "shards", "clients", "admission",
			"ops/s", "p99_us", "queued", "rejected"},
	}
	total := s.pick(3072, 16384)

	for _, shards := range []int{1, 2, 4} {
		for _, clients := range []int{1, 8, 32} {
			per := total / clients
			rate, p99, _, err := netRun(s, shards, server.Config{
				MaxSessions:          clients + 8,
				MaxSessionsPerTenant: clients + 8,
			}, clients, per, per, func(g, i int) string { return fmt.Sprintf("net-%02d-%06d", g, i) })
			if err != nil {
				return nil, fmt.Errorf("scale %d shards %d clients: %w", shards, clients, err)
			}
			res.Add(label("scale"), count(shards, 0), count(clients, 0), label("-"),
				timed(rate, 1), timed(us(p99), 1), label("-"), label("-"))
		}
	}

	// Overload: session-per-batch workers against ONE shard. Admission on =
	// queue new sessions past a cap of `cap` concurrent sessions; admission
	// off = admit everything at once.
	const workers = 48
	const cap = 8
	per := s.pick(3072, 12288) / workers
	for _, mode := range []string{"off", "on"} {
		cfg := server.Config{
			MaxSessions:          workers + 8,
			MaxSessionsPerTenant: workers + 8,
		}
		if mode == "on" {
			cfg.MaxSessions = cap
			cfg.MaxSessionsPerTenant = cap
			cfg.QueueTimeout = 30 * time.Second
		}
		rate, p99, m, err := netRun(s, 1, cfg, workers, per, netBatchOps,
			func(g, i int) string { return fmt.Sprintf("ov-%08d", g*per+i+1) })
		if err != nil {
			return nil, fmt.Errorf("overload admission=%s: %w", mode, err)
		}
		res.Add(label("overload"), count(1, 0), count(workers, 0), label(mode),
			timed(rate, 1), timed(us(p99), 1), count(m.Queued, 0), count(m.Rejected, 0))
	}

	res.Note("scale: ops/s in composite time = wall + max per-shard simulated I/O (shard devices run in parallel); p99 is wall clock per op")
	at32 := func(shards int) float64 { return must(res.Val(fmt.Sprintf("scale %d 32", shards), "ops/s")) }
	res.Note("scale speedup at 32 clients: 4 shards = %.2fx, 2 shards = %.2fx over 1 shard", at32(4)/at32(1), at32(2)/at32(1))
	res.Note("overload: %d session-per-batch workers (%d ops/session) on 1 shard; admission on = queue sessions past a cap of %d concurrent", workers, netBatchOps, cap)
	res.Headline("ops/s@1x32", "1/s", at32(1))
	res.Headline("ops/s@4x32", "1/s", at32(4))
	res.Headline("overload_p99_us_admission_off", "us", must(res.Val("overload 1 48 off", "p99_us")))
	res.Headline("overload_p99_us_admission_on", "us", must(res.Val("overload 1 48 on", "p99_us")))
	return res, nil
}
