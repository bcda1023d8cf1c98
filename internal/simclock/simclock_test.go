package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestAdvanceAndNow(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Fatal("fresh clock not at zero")
	}
	c.Advance(3 * time.Millisecond)
	c.Advance(2 * time.Millisecond)
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("Now=%v want 5ms", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("Reset did not zero the clock")
	}
}

func TestConcurrentAdvance(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if c.Now() != 8*1000*time.Microsecond {
		t.Fatalf("Now=%v want 8ms", c.Now())
	}
}

func TestStopwatchCombinesWallAndSim(t *testing.T) {
	c := New()
	sw := StartStopwatch(c)
	c.Advance(50 * time.Millisecond)
	el := sw.Elapsed()
	if el < 50*time.Millisecond {
		t.Fatalf("Elapsed %v lost simulated time", el)
	}
	if sw.SimElapsed() != 50*time.Millisecond {
		t.Fatalf("SimElapsed %v want 50ms", sw.SimElapsed())
	}
	// A second stopwatch only sees new simulated time.
	sw2 := StartStopwatch(c)
	c.Advance(time.Millisecond)
	if sw2.SimElapsed() != time.Millisecond {
		t.Fatalf("second stopwatch SimElapsed %v want 1ms", sw2.SimElapsed())
	}
}

// Clocks of independent devices pass virtual time in parallel: the
// stopwatch charges the slowest, not the sum; with none it is a wall clock.
func TestStopwatchTakesMaxOverClocks(t *testing.T) {
	a, b := New(), New()
	a.Advance(time.Second) // before Start: not counted
	sw := StartStopwatch(a, b)
	a.Advance(10 * time.Millisecond)
	b.Advance(30 * time.Millisecond)
	if got := sw.SimElapsed(); got != 30*time.Millisecond {
		t.Fatalf("SimElapsed %v want 30ms (the slower clock)", got)
	}
	if el := sw.Elapsed(); el < 30*time.Millisecond || el > time.Second {
		t.Fatalf("Elapsed %v want wall + 30ms", el)
	}
	if got := StartStopwatch().SimElapsed(); got != 0 {
		t.Fatalf("clockless stopwatch SimElapsed %v want 0", got)
	}
}
