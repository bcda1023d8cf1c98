package bench

import (
	"fmt"

	"mvpbt/internal/db"
	"mvpbt/internal/util"
)

// MaintWorkers is the maintenance-service pool size for the "maint"
// experiment, settable from cmd/mvpbt-bench (-maint-workers).
var MaintWorkers = 2

// runMaint drives a foreground blind-upsert writer against a clustered
// MV-PBT KV with a deliberately small partition buffer, once with all
// maintenance inline on the writing goroutine (the seed behaviour) and once
// with the background service. The quantity under test is the foreground
// latency TAIL: inline eviction — and especially the partition merges it
// triggers — shows up as multi-millisecond pauses on the op that tripped
// the watermark; moved to the maintenance workers, those pauses leave the
// foreground path and only the (bounded) high-watermark stall remains. One
// writer is used deliberately: it cannot outrun the eviction drain rate, so
// the comparison isolates who pays the maintenance CPU rather than
// saturation backpressure (which stalls writers in BOTH designs).
func runMaint(s Scale) (*Result, error) {
	res := &Result{
		ID:    "maint",
		Title: "Foreground write latency: synchronous vs background maintenance",
		Header: []string{"mode", "ops/s", "p50_us", "p99_us", "p999_us", "max_us",
			"evictions", "merges", "stalls", "stall_ms"},
	}
	for _, bg := range []bool{false, true} {
		if err := maintRun(s, bg, res); err != nil {
			return nil, err
		}
	}
	res.Note("wall-clock per-op latency: simulated device time is charged to the virtual clock equally in both modes; the difference is whose goroutine pays the maintenance CPU")
	res.Note("background mode: %d workers, stall only above the high watermark", MaintWorkers)
	res.Headline("sync_p99_us", "us", must(res.Val("sync", "p99_us")))
	res.Headline("bg_p99_us", "us", must(res.Val("background", "p99_us")))
	res.Headline("sync_ops/s", "1/s", must(res.Val("sync", "ops/s")))
	res.Headline("bg_ops/s", "1/s", must(res.Val("background", "ops/s")))
	return res, nil
}

func maintRun(s Scale, bg bool, res *Result) error {
	// The partition buffer stays deliberately tiny at both scales so that
	// evictions affect >1% of ops — the p99 comparison is the point.
	cfg := engineConfig(4096, 24<<10)
	cfg.BackgroundMaint = bg
	cfg.MaintWorkers = MaintWorkers
	eng := db.NewEngine(cfg)
	if bg {
		// The default high watermark (limit+25%) gives the writer only a few
		// dozen entries of headroom — less than one job-dispatch latency — so
		// it would stall once per eviction cycle. Widen it: stalls should fire
		// only when maintenance is genuinely behind (a merge holds the tree's
		// background lock and the buffer cannot drain).
		eng.PBuf.SetWatermarks(eng.PBuf.Low(), 128<<10)
	}
	kv, err := db.NewMVPBTKV(eng, "maint", db.MVPBTKVOptions{BloomBits: 10, MaxPartitions: 32})
	if err != nil {
		return err
	}
	const keyspace = 20000
	totalOps := s.pick(20000, 200000)
	val := make([]byte, 256)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	r := util.NewRand(0xFACADE)
	var key []byte
	all, el, err := drive(1, totalOps,
		func(_, _ int) error {
			key = []byte(fmt.Sprintf("user%08d", r.Intn(keyspace)))
			return nil
		},
		func(_, _ int) error { return kv.Put(key, val) })
	if err != nil {
		return err
	}
	if err := eng.Close(); err != nil {
		return err
	}
	stalls, stallTime := eng.PBuf.Stalls()
	mode := "sync"
	if bg {
		mode = "background"
	}
	res.Add(label(mode),
		timed(perSecond(len(all), el), 1),
		timed(us(util.Quantile(all, 0.50)), 1), timed(us(util.Quantile(all, 0.99)), 1),
		timed(us(util.Quantile(all, 0.999)), 1), timed(us(all[len(all)-1]), 1),
		count(eng.PBuf.Evictions(), 0), count(kv.Tree().Stats().Merges, 0),
		count(stalls, 0), timed(stallTime.Seconds()*1e3, 1))
	return nil
}
