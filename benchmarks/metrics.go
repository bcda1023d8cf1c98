package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// metric is one measured value. Samples is the number of observations a
// timing was taken over (0 when the value is a count or a ratio).
type metric struct {
	Name    string  `json:"-"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metricSet collects metrics by name, once each, in insertion order. Units
// come from the catalogue, so a name the catalogue lacks is a bug here.
type metricSet struct {
	list []metric
	seen map[string]bool
}

func (m *metricSet) put(name string, v float64) { m.putN(name, v, 0) }

func (m *metricSet) putN(name string, v float64, samples int) {
	d, ok := defByName(name)
	if !ok {
		panic("benchmarks: metric " + name + " is not in the catalogue")
	}
	if m.seen[name] {
		panic("benchmarks: metric " + name + " emitted twice")
	}
	if m.seen == nil {
		m.seen = map[string]bool{}
	}
	m.seen[name] = true
	m.list = append(m.list, metric{Name: name, Value: v, Unit: d.Unit, Samples: samples})
}

func (m *metricSet) get(name string) (float64, bool) {
	for _, x := range m.list {
		if x.Name == name {
			return x.Value, true
		}
	}
	return 0, false
}

func (m *metricSet) byName() map[string]metric {
	out := make(map[string]metric, len(m.list))
	for _, x := range m.list {
		out[x.Name] = x
	}
	return out
}

// ratio is a / b, and 0 when b is 0 (a rate over nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-quantile (p in [0,1]) of s, which must be
// sorted; 0 for none.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles are the three cut points Python's statistics.quantiles(xs, n=4)
// returns (the exclusive method), which is what the driver computes spreads
// from. It needs two values or more.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// fastHalfNS estimates the undisturbed wall time of a stationary op stream
// that was cut into equal-count windows: the mean duration of the faster
// half of the windows, times their number. Interference on a shared box
// only ever slows a window down, and it comes in episodes of seconds, so
// the faster half is the steadier one; a cost that recurs less often than
// every other window (a checkpoint) is not in it.
func fastHalfNS(windowNS []float64) float64 {
	s := sorted(windowNS)
	half := s[:(len(s)+1)/2]
	var total float64
	for _, d := range half {
		total += d
	}
	return ratio(total, float64(len(half))) * float64(len(s))
}

// medianAcross is, for replicas that each took the same series of steps,
// the sum over steps of the median across replicas: an estimate of one
// replica's total that an episode of interference hitting a minority of
// the replicas does not move. byStep[step] holds one value per replica.
func medianAcross(byStep [][]float64) float64 {
	var total float64
	for _, vals := range byStep {
		total += median(vals)
	}
	return total
}

// allocMark is a runtime.MemStats reading to take deltas from.
type allocMark struct{ m runtime.MemStats }

func startAllocs() *allocMark {
	a := &allocMark{}
	runtime.ReadMemStats(&a.m)
	return a
}

// allocDelta is what the Go runtime did since an allocMark.
type allocDelta struct {
	mallocs, bytes      float64 // heap objects and bytes allocated
	gcCycles, gcPauseMS float64
}

func (a *allocMark) stop() allocDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return allocDelta{
		mallocs:   float64(now.Mallocs - a.m.Mallocs),
		bytes:     float64(now.TotalAlloc - a.m.TotalAlloc),
		gcCycles:  float64(now.NumGC - a.m.NumGC),
		gcPauseMS: float64(now.PauseTotalNs-a.m.PauseTotalNs) / 1e6,
	}
}

type loopCost struct{ nsPerOp, allocsPerOp float64 }

// timeLoop calls fn(0..n-1) and returns the mean wall time and heap objects
// per call.
func timeLoop(n int, fn func(i int)) loopCost {
	a := startAllocs()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	ns := float64(time.Since(t0))
	return loopCost{nsPerOp: ns / float64(n), allocsPerOp: a.stop().mallocs / float64(n)}
}

// probeCost is what one call of a heavy leaf function cost.
type probeCost struct {
	wallMS, virtualMS   float64
	allocs, allocKB     float64
	devReads, devWrites float64
	seqWriteShare       float64
}

func medianCost(cs []probeCost) probeCost {
	col := func(f func(probeCost) float64) float64 {
		xs := make([]float64, len(cs))
		for i, c := range cs {
			xs[i] = f(c)
		}
		return median(xs)
	}
	return probeCost{
		wallMS:        col(func(c probeCost) float64 { return c.wallMS }),
		virtualMS:     col(func(c probeCost) float64 { return c.virtualMS }),
		allocs:        col(func(c probeCost) float64 { return c.allocs }),
		allocKB:       col(func(c probeCost) float64 { return c.allocKB }),
		devReads:      col(func(c probeCost) float64 { return c.devReads }),
		devWrites:     col(func(c probeCost) float64 { return c.devWrites }),
		seqWriteShare: col(func(c probeCost) float64 { return c.seqWriteShare }),
	}
}

// layerMetrics turns a stats delta over ops operations into the boundary
// counters every workload reports.
func layerMetrics(out *metricSet, d layerStats, ops float64) {
	out.put("shard.twopc_groups", d.TwoPCGroups)
	out.put("shard.twopc_prepares", d.TwoPCPrepares)
	out.put("shard.indoubt_end", d.InDoubt)
	out.put("shard.restarts", d.Restarts)
	out.put("db.commits", d.Commits)
	out.put("db.readonly_commits", d.ReadOnlyCommits)
	out.put("db.commits_per_flush", ratio(d.GroupCommits, d.GroupBatches))
	out.put("db.checkpoints", d.Checkpoints)
	out.put("db.reclaims", d.Reclaims)
	out.put("db.readonly_entries", d.ROEntries)
	out.put("wal.flushes_per_commit", ratio(d.GroupBatches, d.GroupCommits))
	out.put("mvpbt.evictions", d.Evictions)
	out.put("mvpbt.merges", d.Merges)
	out.put("mvpbt.gc_marked", d.GCMarked)
	out.put("mvpbt.gc_swept_pn", d.GCSweptPN)
	out.put("mvpbt.gc_evict_records", d.GCEvict)
	out.put("mvpbt.partitions_end", d.Partitions)
	probes := d.BloomNegatives + d.BloomPositives + d.BloomFalsePositives
	out.put("mvpbt.bloom_skip_share", ratio(d.BloomNegatives, probes))
	out.put("mvpbt.bloom_fp_share", ratio(d.BloomFalsePositives, d.BloomPositives+d.BloomFalsePositives))
	out.put("part.stalls", d.Stalls)
	out.put("part.stall_ms", d.StallNS/1e6)
	out.put("part.no_victims", d.NoVictims)
	out.put("part.evict_errors", d.EvictErrors)
	out.put("buffer.requests_per_op", ratio(d.IndexRequests+d.TableRequests, ops))
	out.put("buffer.index_hit_rate", ratio(d.IndexHits, d.IndexRequests))
	out.put("buffer.table_hit_rate", ratio(d.TableHits, d.TableRequests))
	out.put("buffer.evictions_per_op", ratio(d.PoolEvictions, ops))
	out.put("buffer.io_retries", d.IORetries)
	out.put("sfile.live_mb_end", d.LiveBytes/(1<<20))
	out.put("sfile.highwater_mb", d.HighWaterBytes/(1<<20))
	out.put("ssd.reads_per_op", ratio(d.Reads, ops))
	out.put("ssd.writes_per_op", ratio(d.Writes, ops))
	out.put("ssd.read_kb_per_op", ratio(d.BytesRead/1024, ops))
	out.put("ssd.write_kb_per_op", ratio(d.BytesWritten/1024, ops))
	out.put("ssd.seq_write_share", ratio(d.SeqWrites, d.Writes))
	out.put("ssd.read_virtual_us_per_op", ratio(d.ReadVirtualNS/1e3, ops))
	out.put("ssd.write_virtual_us_per_op", ratio(d.WriteVirtualNS/1e3, ops))
	out.put("txn.aborts", d.TxnAborts)
}

// runtimeMetrics reports the Go runtime's share over the measured phase.
func runtimeMetrics(out *metricSet, a allocDelta, ops float64) {
	out.put("runtime.allocs_per_op", ratio(a.mallocs, ops))
	out.put("runtime.gc_cycles", a.gcCycles)
	out.put("runtime.gc_pause_ms", a.gcPauseMS)
}

func fmtMetric(m metric) string {
	if m.Samples > 0 {
		return fmt.Sprintf("%-34s %14.4f %-6s n=%d", m.Name, m.Value, m.Unit, m.Samples)
	}
	return fmt.Sprintf("%-34s %14.4f %-6s", m.Name, m.Value, m.Unit)
}
