package bench

import (
	"fmt"

	"mvpbt/internal/simclock"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
)

// runFig8 measures the device model itself, regenerating the paper's
// Figure 8 table. This validates that the simulator exposes the
// read/write asymmetry every other experiment depends on.
func runFig8(s Scale) (*Result, error) {
	n := s.pick(2000, 20000)
	res := &Result{
		ID:     "fig8",
		Title:  "Device I/O characteristics",
		Header: []string{"pattern", "op", "block", "IOPS", "MB/s"},
	}
	type cls struct {
		pattern string
		op      string
		block   int
	}
	classes := []cls{
		{"sequential", "read", 8 << 10}, {"sequential", "read", 64 << 10},
		{"random", "read", 8 << 10}, {"random", "read", 64 << 10},
		{"sequential", "write", 8 << 10}, {"sequential", "write", 64 << 10},
		{"random", "write", 8 << 10}, {"random", "write", 64 << 10},
	}
	for _, c := range classes {
		clock := simclock.New()
		dev := ssd.New(clock, ssd.IntelP3600)
		buf := make([]byte, c.block)
		// Pre-write the region so random reads hit written blocks.
		area := int64(n+1) * int64(c.block)
		if c.op == "read" {
			for off := int64(0); off < area; off += storage.PageSize {
				dev.WriteAt(make([]byte, storage.PageSize), off)
			}
		}
		clock.Reset()
		dev.ResetStats()
		r := newLCG(42)
		off := int64(0)
		for i := 0; i < n; i++ {
			if c.pattern == "random" {
				// Random aligned offsets: never adjacent to the previous.
				off = (int64(r.next()%uint64(n)) * int64(c.block) * 2) % area
			}
			if c.op == "read" {
				dev.ReadAt(buf, off)
			} else {
				dev.WriteAt(buf, off)
			}
			if c.pattern == "sequential" {
				off += int64(c.block)
			}
		}
		el := clock.Now()
		iops := perSecond(n, el)
		mbps := float64(n) * float64(c.block) / (1 << 20) / el.Seconds()
		res.Add(label(c.pattern), label(c.op), label(fmt.Sprintf("%dK", c.block>>10)), count(iops, 1), count(mbps, 1))
	}
	res.Note("latencies derive from the paper's measured IOPS; the table validates the model round-trips them")
	res.Headline("seqread8k_iops", "1/s", must(res.Val("sequential read 8K", "IOPS")))
	res.Headline("randwrite8k_iops", "1/s", must(res.Val("random write 8K", "IOPS")))
	return res, nil
}

// lcg is a tiny deterministic generator local to experiments that must not
// share state with workload RNGs.
type lcg struct{ s uint64 }

func newLCG(seed uint64) *lcg { return &lcg{s: seed} }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 11
}
