package check

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"runtime"
	"time"

	"mvpbt/internal/db"
	"mvpbt/internal/leakcheck"
	"mvpbt/internal/server"
	"mvpbt/internal/server/chaos"
	"mvpbt/internal/server/shardclient"
	"mvpbt/internal/shard"
	"mvpbt/internal/util"
)

// served is the chaos campaign's system under test: a 2-shard supervised
// router behind the REAL TCP server, whose listener injects a chaos schedule
// and whose 2PC hooks inject a crash plan, driven by one self-healing client
// — plus what that client has been acked, which is exactly the state every
// GET, every SCAN and the final clean scan must show.
type served struct {
	router *shard.Router
	sched  *chaos.Schedule
	srv    *server.Server
	addr   string
	client *shardclient.RClient
	rng    *util.Rand
	keys   int
	acked  expect
	fp     servedFingerprint
	// goroutines is runtime.NumGoroutine() before setup: close must get
	// back down to it.
	goroutines int
}

// servedFingerprint is the part of a fingerprint the fixture fills in.
type servedFingerprint struct {
	// StateHash fingerprints the final clean scan (stateHash); LiveKeys is
	// its length.
	StateHash uint64
	LiveKeys  int
	// Acknowledged single-key operations (these define what acked holds),
	// and the reads checked against it.
	SetsAcked, DelsAcked, GetsOK, Scans uint64
}

// saltSeed derives a campaign's stream from the user's seed, so the same
// seed number drives unrelated histories in different campaigns and kinds.
func saltSeed(seed uint64, salt string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(salt))
	return seed ^ h.Sum64()
}

// serve starts the fixture. rng draws the history's keys and values over a
// key space of the given size; seed (already salted) drives the client's
// backoff jitter and commit tokens.
func serve(seed uint64, rng *util.Rand, keys int, rules []chaos.Rule, hooks shard.TwoPCHooks) (*served, error) {
	s := &served{rng: rng, keys: keys, acked: expect{}, goroutines: runtime.NumGoroutine()}
	var err error
	s.router, err = shard.New(shard.Config{
		Shards: 2,
		Engine: db.Config{
			BufferPages:          256,
			PartitionBufferBytes: 64 << 10,
			EnableWAL:            true,
		},
		TwoPC: hooks,
	})
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	s.sched = chaos.NewSchedule(rules)
	s.srv = server.New(s.router, server.Config{
		// Sized, like the server's write timeout, so no injected stall
		// (≤3ms) can flip a deadline outcome: determinism must not hinge on
		// scheduler luck.
		IdleTimeout:  30 * time.Second,
		WrapListener: func(ln net.Listener) net.Listener { return chaos.Wrap(ln, s.sched) },
	})
	addr, err := s.srv.Start()
	if err != nil {
		s.router.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.addr = addr.String()
	// The client's retry budget (12 attempts) outlasts the worst contiguous
	// injection burst one operation can see (every rule fires at most once),
	// and it owns every key it writes, as RClient requires.
	s.client = shardclient.NewRClient(shardclient.RConfig{Addr: s.addr, Tenant: "chaos", Seed: seed})
	return s, nil
}

// close tears the fixture down — client, drain, router — and fails if that
// leaves goroutines behind. The wait is a failure deadline only: a clean
// teardown returns as soon as the count is back at its pre-setup level.
func (s *served) close() error {
	s.client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	stopErr := s.srv.Stop(ctx)
	s.router.Close()
	if stopErr != nil {
		return fmt.Errorf("teardown: %w", stopErr)
	}
	if err := leakcheck.Wait(s.goroutines); err != nil {
		return fmt.Errorf("teardown: %w", err)
	}
	return nil
}

func (s *served) key() string { return fmt.Sprintf("c-%04d", s.rng.Intn(s.keys)) }

// set, get, scan and del are the autocommit steps of a history: one operation
// through the self-healing client, mirrored into (or verified against) the
// acked state once it is acknowledged.
func (s *served) set(op int) error {
	k, v := s.key(), fmt.Sprintf("v-%d-%04x", op, s.rng.Uint64()&0xffff)
	if err := s.client.Set([]byte(k), []byte(v)); err != nil {
		return fmt.Errorf("op %d: SET %s exhausted retries: %w", op, k, err)
	}
	s.acked.put(k, v)
	s.fp.SetsAcked++
	return nil
}

func (s *served) get(op int) error { return s.getKey(op, s.key()) }

// getKey reads k through the client and holds it to the acked state.
func (s *served) getKey(op int, k string) error {
	v, ok, err := s.client.Get([]byte(k))
	if err != nil {
		return fmt.Errorf("op %d: GET %s exhausted retries: %w", op, k, err)
	}
	want, wantOK := s.acked.get(k)
	if ok != wantOK || (ok && string(v) != want) {
		return fmt.Errorf("op %d: GET %s = %q,%v, acked %q,%v", op, k, v, ok, want, wantOK)
	}
	if ok {
		s.fp.GetsOK++
	}
	return nil
}

func (s *served) scan(op int) error {
	lo := s.key()
	got, err := s.client.Scan([]byte(lo), 20)
	if err != nil {
		return fmt.Errorf("op %d: SCAN %s exhausted retries: %w", op, lo, err)
	}
	if err := s.acked.match(pairs(got), lo, 20); err != nil {
		return fmt.Errorf("op %d: SCAN %s: %w", op, lo, err)
	}
	s.fp.Scans++
	return nil
}

func (s *served) del(op int) error {
	k := s.key()
	if err := s.client.Del([]byte(k)); err != nil {
		return fmt.Errorf("op %d: DEL %s exhausted retries: %w", op, k, err)
	}
	s.acked.del(k)
	s.fp.DelsAcked++
	return nil
}

// stage opens a transaction, writes pairs into it, reads the last pair's
// key back (it must see the value just staged) and deletes del ("" skips
// it). lost means its connection died before the commit was issued: the
// server aborts the orphan with the session, so it deterministically did not
// apply.
func (s *served) stage(op int, pairs [][2]string, del string) (tx *shardclient.RTx, lost bool, err error) {
	if tx, err = s.client.BeginTx(); err != nil {
		return nil, false, fmt.Errorf("op %d: BEGIN exhausted retries: %w", op, err)
	}
	fail := func(what, k string, err error) (*shardclient.RTx, bool, error) {
		if errors.Is(err, shardclient.ErrTxLost) {
			return nil, true, nil
		}
		return nil, false, fmt.Errorf("op %d: tx %s %s: %w", op, what, k, err)
	}
	for _, p := range pairs {
		if err := tx.Set([]byte(p[0]), []byte(p[1])); err != nil {
			return fail("SET", p[0], err)
		}
	}
	last := pairs[len(pairs)-1]
	if v, ok, err := tx.Get([]byte(last[0])); err != nil {
		return fail("GET", last[0], err)
	} else if !ok || string(v) != last[1] {
		return nil, false, fmt.Errorf("op %d: tx GET %s = %q,%v, staged %q", op, last[0], v, ok, last[1])
	}
	if del != "" {
		if err := tx.Del([]byte(del)); err != nil {
			return fail("DEL", del, err)
		}
	}
	return tx, false, nil
}

// applied reports whether a commit landed, directly or resolved through its
// token after a lost ack.
func applied(outcome shardclient.CommitOutcome, err error) bool {
	return err == nil && (outcome == shardclient.CommitApplied || outcome == shardclient.CommitResolvedApplied)
}

// quiesce waits for every shard to be healthy with zero in-doubt legs: the
// "recovery finished" barrier after each injected crash.
func (s *served) quiesce() bool {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		settled := s.router.TwoPCInfo().InDoubt == 0
		for i := 0; settled && i < s.router.NumShards(); i++ {
			settled = s.router.Health(i).State == shard.Healthy
		}
		if settled || time.Now().After(deadline) {
			return settled
		}
	}
}

// verify ends the history: with the schedule disarmed, a clean connection's
// full scan must show exactly the acked state.
func (s *served) verify() error {
	s.sched.Disarm()
	s.client.Close()
	cc, err := shardclient.Dial(s.addr, "verify")
	if err != nil {
		return fmt.Errorf("clean dial: %w", err)
	}
	defer cc.Close()
	got, err := cc.Scan(0, nil, len(s.acked)+16)
	if err != nil {
		return fmt.Errorf("clean scan: %w", err)
	}
	s.fp.LiveKeys = len(got)
	if s.fp.StateHash, err = s.acked.state(pairs(got)); err != nil {
		return fmt.Errorf("final state: %w", err)
	}
	return nil
}

// pairs copies a scan reply out of the client's reply buffer.
func pairs(kvs []shardclient.KV) [][2]string {
	out := make([][2]string, len(kvs))
	for i, kv := range kvs {
		out[i] = [2]string{string(kv.Key), string(kv.Val)}
	}
	return out
}
