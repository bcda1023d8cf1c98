// Package simclock provides a virtual clock that accumulates simulated I/O
// time. The SSD simulator (internal/ssd) charges a latency to the clock for
// every I/O it serves; benchmark harnesses combine the accumulated virtual
// I/O time with measured CPU time to derive hardware-independent throughput
// figures (see DESIGN.md §4 "Virtual time").
package simclock

import (
	"sync/atomic"
	"time"
)

// Clock accumulates virtual nanoseconds. It is safe for concurrent use.
type Clock struct {
	ns atomic.Int64
}

// New returns a clock at zero.
func New() *Clock { return &Clock{} }

// Advance adds d to the virtual clock.
func (c *Clock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// Now returns the accumulated virtual time.
func (c *Clock) Now() time.Duration { return time.Duration(c.ns.Load()) }

// Reset sets the clock back to zero.
func (c *Clock) Reset() { c.ns.Store(0) }

// Stopwatch measures a composite elapsed time: real (CPU) wall time plus
// the virtual I/O time accumulated since Start on the clocks it watches.
// This is the time base for all reported throughputs. Devices on separate
// clocks (one per shard) run in parallel, so the slowest sets the pace and
// the virtual part is the MAXIMUM of the per-clock deltas; with no clock
// the stopwatch reads wall time alone.
type Stopwatch struct {
	clocks    []*Clock
	wallStart time.Time
	simStart  []time.Duration
}

// StartStopwatch begins measuring against clocks.
func StartStopwatch(clocks ...*Clock) *Stopwatch {
	s := &Stopwatch{clocks: clocks, simStart: make([]time.Duration, len(clocks))}
	for i, c := range clocks {
		s.simStart[i] = c.Now()
	}
	s.wallStart = time.Now()
	return s
}

// Elapsed returns CPU wall time plus virtual I/O time since Start.
func (s *Stopwatch) Elapsed() time.Duration {
	return time.Since(s.wallStart) + s.SimElapsed()
}

// SimElapsed returns only the virtual I/O time since Start: the largest
// delta over the watched clocks.
func (s *Stopwatch) SimElapsed() time.Duration {
	var slowest time.Duration
	for i, c := range s.clocks {
		if d := c.Now() - s.simStart[i]; d > slowest {
			slowest = d
		}
	}
	return slowest
}
