package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mvpbt/internal/db"
	"mvpbt/internal/server"
	"mvpbt/internal/server/shardclient"
	"mvpbt/internal/shard"
	"mvpbt/internal/ssd"
)

func init() {
	register(Experiment{
		ID:    "net",
		Title: "Sharded network front-end: clients x shards scaling, admission control under overload",
		Run:   runNet,
	})
}

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
	cfg.GroupCommit = db.GroupCommitConfig{Enabled: true, MaxDelay: commitMaxDelay}
	return cfg
}

// netHarness is one served router plus the bookkeeping to measure it.
type netHarness struct {
	r         *shard.Router
	srv       *server.Server
	addr      string
	serveDone chan error
	wallStart time.Time
	simStart  []time.Duration
}

func startNetHarness(s Scale, shards int, cfg server.Config) (*netHarness, error) {
	r, err := shard.New(shard.Config{Shards: shards, Engine: netEngine(s)})
	if err != nil {
		return nil, err
	}
	cfg.Addr = "127.0.0.1:0"
	srv := server.New(r, cfg)
	addr, err := srv.Listen()
	if err != nil {
		r.Close()
		return nil, err
	}
	h := &netHarness{r: r, srv: srv, addr: addr.String(), serveDone: make(chan error, 1)}
	go func() { h.serveDone <- srv.Serve() }()
	return h, nil
}

// start begins the composite-time measurement.
func (h *netHarness) start() {
	h.wallStart = time.Now()
	h.simStart = make([]time.Duration, h.r.NumShards())
	for i := range h.simStart {
		h.simStart[i] = h.r.Shard(i).Engine.Clock.Now()
	}
}

// elapsed returns wall time plus the maximum per-shard simulated I/O time
// since start: the shards' devices are independent, so their virtual time
// passes in parallel and the slowest shard sets the pace.
func (h *netHarness) elapsed() time.Duration {
	wall := time.Since(h.wallStart)
	var maxSim time.Duration
	for i := range h.simStart {
		if d := h.r.Shard(i).Engine.Clock.Now() - h.simStart[i]; d > maxSim {
			maxSim = d
		}
	}
	return wall + maxSim
}

// stop drains the server and closes the router.
func (h *netHarness) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.srv.Drain(ctx); err != nil {
		return err
	}
	if err := <-h.serveDone; err != nil {
		return err
	}
	return h.r.Close()
}

// p99of sorts and returns the 99th percentile.
func p99of(lats []time.Duration) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[len(lats)*99/100]
}

// netScaleRun drives `clients` persistent closed-loop sessions for total
// SETs and returns composite ops/s plus wall-clock p99 per op.
func netScaleRun(s Scale, shards, clients, total int) (rate float64, p99 time.Duration, err error) {
	h, err := startNetHarness(s, shards, server.Config{
		MaxSessions:          clients + 8,
		MaxSessionsPerTenant: clients + 8,
	})
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if serr := h.stop(); err == nil {
			err = serr
		}
	}()

	per := total / clients
	total = per * clients
	val := make([]byte, netValLen)
	for i := range val {
		val[i] = byte(i)
	}
	lats := make([][]time.Duration, clients)
	var firstErr atomic.Pointer[error]

	h.start()
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := shardclient.Dial(h.addr, "bench")
			if err != nil {
				firstErr.CompareAndSwap(nil, &err)
				return
			}
			defer c.Close()
			l := make([]time.Duration, 0, per)
			for i := 0; i < per; i++ {
				key := []byte(fmt.Sprintf("net-%02d-%06d", g, i))
				st := time.Now()
				if err := c.Set(0, key, val); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				l = append(l, time.Since(st))
			}
			lats[g] = l
		}(g)
	}
	wg.Wait()
	el := h.elapsed()
	if p := firstErr.Load(); p != nil {
		return 0, 0, *p
	}
	all := make([]time.Duration, 0, total)
	for _, l := range lats {
		all = append(all, l...)
	}
	return perSecond(total, el), p99of(all), nil
}

// netOverloadRun drives `workers` session-per-batch clients (connect,
// netBatchOps SETs, disconnect) against ONE shard until total ops are
// done. Admission on = queue new sessions past a cap of `cap` concurrent
// sessions; admission off = admit everything at once.
func netOverloadRun(s Scale, workers, cap, total int, admission bool) (rate float64, p99 time.Duration, m server.Metrics, err error) {
	cfg := server.Config{
		MaxSessions:          workers + 8,
		MaxSessionsPerTenant: workers + 8,
	}
	if admission {
		cfg.MaxSessions = cap
		cfg.MaxSessionsPerTenant = cap
		cfg.Admission = server.AdmitQueue
		cfg.QueueTimeout = 30 * time.Second
	}
	h, err := startNetHarness(s, 1, cfg)
	if err != nil {
		return 0, 0, m, err
	}
	defer func() {
		if serr := h.stop(); err == nil {
			err = serr
		}
	}()

	val := make([]byte, netValLen)
	var (
		seq      atomic.Int64
		done     atomic.Int64
		firstErr atomic.Pointer[error]
	)
	lats := make([][]time.Duration, workers)

	h.start()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var l []time.Duration
			for {
				batch := make([]int64, 0, netBatchOps)
				for len(batch) < netBatchOps {
					n := seq.Add(1)
					if n > int64(total) {
						break
					}
					batch = append(batch, n)
				}
				if len(batch) == 0 {
					lats[g] = l
					return
				}
				c, err := shardclient.Dial(h.addr, "bench")
				if err != nil {
					// Return the unissued ops and retry after a beat (the
					// reject path of admission control).
					if errors.Is(err, shardclient.ErrAdmission) {
						seq.Add(int64(-len(batch)))
						time.Sleep(time.Millisecond)
						continue
					}
					firstErr.CompareAndSwap(nil, &err)
					lats[g] = l
					return
				}
				for _, n := range batch {
					key := []byte(fmt.Sprintf("ov-%08d", n))
					st := time.Now()
					if err := c.Set(0, key, val); err != nil {
						firstErr.CompareAndSwap(nil, &err)
						c.Close()
						lats[g] = l
						return
					}
					l = append(l, time.Since(st))
					done.Add(1)
				}
				c.Close()
			}
		}(g)
	}
	wg.Wait()
	el := h.elapsed()
	if p := firstErr.Load(); p != nil {
		return 0, 0, m, *p
	}
	all := make([]time.Duration, 0, total)
	for _, l := range lats {
		all = append(all, l...)
	}
	return perSecond(int(done.Load()), el), p99of(all), h.srv.Metrics(), nil
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

	rates := map[[2]int]float64{}
	for _, shards := range []int{1, 2, 4} {
		for _, clients := range []int{1, 8, 32} {
			rate, p99, err := netScaleRun(s, shards, clients, total)
			if err != nil {
				return nil, fmt.Errorf("scale %d shards %d clients: %w", shards, clients, err)
			}
			rates[[2]int{shards, clients}] = rate
			res.Add("scale", fi(int64(shards)), fi(int64(clients)), "-",
				f1(rate), f1(float64(p99.Nanoseconds())/1e3), "-", "-")
		}
	}

	const workers = 48
	const cap = 8
	ovTotal := s.pick(3072, 12288)
	for _, admission := range []bool{false, true} {
		rate, p99, m, err := netOverloadRun(s, workers, cap, ovTotal, admission)
		if err != nil {
			return nil, fmt.Errorf("overload admission=%v: %w", admission, err)
		}
		mode := "off"
		if admission {
			mode = "on"
		}
		res.Add("overload", "1", fi(int64(workers)), mode,
			f1(rate), f1(float64(p99.Nanoseconds())/1e3),
			fi(int64(m.Queued)), fi(int64(m.Rejected)))
	}

	res.Note("scale: ops/s in composite time = wall + max per-shard simulated I/O (shard devices run in parallel); p99 is wall clock per op")
	res.Note("scale speedup at 32 clients: 4 shards = %.2fx, 2 shards = %.2fx over 1 shard",
		rates[[2]int{4, 32}]/rates[[2]int{1, 32}],
		rates[[2]int{2, 32}]/rates[[2]int{1, 32}])
	res.Note("overload: %d session-per-batch workers (%d ops/session) on 1 shard; admission on = queue sessions past a cap of %d concurrent", workers, netBatchOps, cap)
	return res, nil
}
