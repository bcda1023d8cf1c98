// Package chaos injects deterministic network faults under the wire
// protocol, in the spirit of internal/ssd's device fault rules: a
// Schedule of rules scoped by DIRECTION and FRAME INDEX — connection cuts
// at a frame boundary, mid-frame byte truncation, and read/write stalls —
// applied by a net.Listener/net.Conn wrapper on the server side
// (DESIGN.md §12).
//
// Determinism contract. TCP segmentation makes raw Read/Write call counts
// nondeterministic, so rules are keyed by the only stable coordinate the
// byte stream has: the index of the length-prefixed protocol frame, parsed
// by a per-connection incremental frame scanner and counted GLOBALLY per
// direction across the connection sequence. With a serial client (one
// in-flight request per connection — the protocol has no pipelining), the
// frame sequence each direction carries is a pure function of the client's
// logical history, so two runs of the same seeded history against the same
// schedule cut, truncate and stall at exactly the same logical points —
// regardless of how the kernel chunks the stream. That is what lets
// the chaos campaign (internal/check) replay a chaotic history twice and demand identical
// fingerprints.
package chaos

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"time"
)

// Direction distinguishes the two byte streams of a server-side connection.
type Direction int

const (
	// In is client → server (the server's reads): request frames.
	In Direction = iota
	// Out is server → client (the server's writes): response frames.
	Out
)

func (d Direction) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// Action is what happens to the scheduled frame.
type Action int

const (
	// Cut closes the connection at the frame's first byte: the frame (and
	// everything after it on this connection) is never delivered. The
	// peer observes an abrupt connection loss.
	Cut Action = iota
	// Truncate delivers the frame's first TruncBytes bytes, then cuts:
	// a mid-frame connection loss (the decoder's ErrTruncatedFrame path).
	Truncate
	// Stall sleeps StallFor before the frame is delivered; the connection
	// survives. Exercises read/write deadlines without changing outcomes.
	Stall
)

func (a Action) String() string {
	switch a {
	case Cut:
		return "cut"
	case Truncate:
		return "truncate"
	}
	return "stall"
}

// Rule schedules one action on the Frame-th protocol frame (0-based,
// counted globally per direction across all connections in accept order).
// Each rule fires at most once.
type Rule struct {
	Dir    Direction
	Frame  uint64
	Action Action
	// TruncBytes is how many of the frame's bytes (counted from its first
	// length-header byte) a Truncate delivers before the cut; clamped to
	// at least 1 so the peer always sees a frame begin.
	TruncBytes int
	// StallFor is the Stall sleep.
	StallFor time.Duration
}

// Stats counts what the schedule observed and injected.
type Stats struct {
	FramesIn, FramesOut uint64 // frames begun per direction
	Cuts                uint64
	Truncations         uint64
	Stalls              uint64
}

// ErrInjectedCut is the error surfaced on a connection killed by a Cut or
// Truncate rule (the peer just sees the connection die).
var ErrInjectedCut = errors.New("chaos: injected connection cut")

// Schedule holds the armed rules and the global per-direction frame
// counters. One Schedule serves every connection of one listener; safe for
// concurrent use.
type Schedule struct {
	mu       sync.Mutex
	rules    map[Direction]map[uint64]*Rule
	next     [2]uint64 // next frame index per direction
	stats    Stats
	disarmed bool
}

// NewSchedule arms rules. Duplicate (Dir, Frame) keys keep the last rule.
func NewSchedule(rules []Rule) *Schedule {
	s := &Schedule{rules: map[Direction]map[uint64]*Rule{In: {}, Out: {}}}
	for i := range rules {
		r := rules[i]
		if r.Action == Truncate && r.TruncBytes < 1 {
			r.TruncBytes = 1
		}
		s.rules[r.Dir][r.Frame] = &r
	}
	return s
}

// Disarm stops injecting (frames are still counted): the campaign's
// clean verification phase runs through the same listener.
func (s *Schedule) Disarm() {
	s.mu.Lock()
	s.disarmed = true
	s.mu.Unlock()
}

// Stats snapshots the counters.
func (s *Schedule) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// frameStart assigns the next global frame index for dir and returns the
// rule scheduled for it, if any.
func (s *Schedule) frameStart(dir Direction) *Rule {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.next[dir]
	s.next[dir]++
	if dir == In {
		s.stats.FramesIn++
	} else {
		s.stats.FramesOut++
	}
	if s.disarmed {
		return nil
	}
	r := s.rules[dir][idx]
	if r != nil {
		delete(s.rules[dir], idx) // fire at most once
		switch r.Action {
		case Cut:
			s.stats.Cuts++
		case Truncate:
			s.stats.Truncations++
		case Stall:
			s.stats.Stalls++
		}
	}
	return r
}

// Listener wraps every accepted connection with the schedule.
type Listener struct {
	net.Listener
	sched *Schedule
}

// Wrap returns a fault-injecting listener over ln.
func Wrap(ln net.Listener, sched *Schedule) *Listener {
	return &Listener{Listener: ln, sched: sched}
}

func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &Conn{Conn: c, sched: l.sched}, nil
}

// scanner incrementally parses one direction of one connection's byte
// stream into frames and applies the schedule. Chunk boundaries are
// irrelevant: state carries across calls.
type scanner struct {
	dir   Direction
	sched *Schedule

	hdr         [4]byte
	hdrN        int
	payloadLeft int // bytes of opcode+payload still to pass through

	truncLeft int // >0: delivering a truncated frame's budget, cut after
	stall     time.Duration
	cut       bool
}

// scan consumes p, returning how many leading bytes may be delivered and
// whether the connection must be cut immediately after them. A pending
// stall duration is accumulated in s.stall for the caller to sleep off.
func (s *scanner) scan(p []byte) (deliver int, cut bool) {
	i := 0
	for i < len(p) {
		if s.truncLeft > 0 {
			n := min(s.truncLeft, len(p)-i)
			i += n
			s.truncLeft -= n
			if s.truncLeft == 0 {
				return i, true
			}
			continue // n == len(p)-i: chunk exhausted inside the budget
		}
		if s.payloadLeft > 0 {
			n := min(s.payloadLeft, len(p)-i)
			i += n
			s.payloadLeft -= n
			continue
		}
		if s.hdrN == 0 {
			// First byte of a new frame: the scheduling point.
			if r := s.sched.frameStart(s.dir); r != nil {
				switch r.Action {
				case Cut:
					return i, true
				case Truncate:
					s.truncLeft = r.TruncBytes
					continue
				case Stall:
					s.stall += r.StallFor
				}
			}
		}
		take := min(4-s.hdrN, len(p)-i)
		copy(s.hdr[s.hdrN:], p[i:i+take])
		s.hdrN += take
		i += take
		if s.hdrN == 4 {
			s.hdrN = 0
			s.payloadLeft = int(binary.BigEndian.Uint32(s.hdr[:]))
		}
	}
	return i, false
}

// Conn applies the schedule to one server-side connection: reads are the
// In direction, writes Out. After a cut, the underlying connection is
// closed and both directions fail with ErrInjectedCut.
type Conn struct {
	net.Conn
	sched *Schedule

	inS, outS scanner
	initOnce  sync.Once
	dead      bool
}

func (c *Conn) init() {
	c.inS = scanner{dir: In, sched: c.sched}
	c.outS = scanner{dir: Out, sched: c.sched}
}

func (c *Conn) kill() {
	c.dead = true
	c.Conn.Close()
}

func (c *Conn) Read(p []byte) (int, error) {
	c.initOnce.Do(c.init)
	if c.dead {
		return 0, ErrInjectedCut
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		keep, cut := c.inS.scan(p[:n])
		if d := c.inS.stall; d > 0 {
			c.inS.stall = 0
			time.Sleep(d)
		}
		if cut {
			c.kill()
			if keep == 0 {
				return 0, ErrInjectedCut
			}
			return keep, nil // deliver the prefix; next call reports the cut
		}
	}
	return n, err
}

func (c *Conn) Write(p []byte) (int, error) {
	c.initOnce.Do(c.init)
	if c.dead {
		return 0, ErrInjectedCut
	}
	keep, cut := c.outS.scan(p)
	if d := c.outS.stall; d > 0 {
		c.outS.stall = 0
		time.Sleep(d)
	}
	if !cut {
		return c.Conn.Write(p)
	}
	n := 0
	if keep > 0 {
		n, _ = c.Conn.Write(p[:keep])
	}
	c.kill()
	return n, ErrInjectedCut
}
