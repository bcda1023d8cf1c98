package server_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mvpbt/internal/db"
	"mvpbt/internal/server"
	"mvpbt/internal/server/chaos"
	"mvpbt/internal/server/shardclient"
	"mvpbt/internal/server/wire"
	"mvpbt/internal/shard"
)

// startServerWith is startServer with full control over the shard config.
func startServerWith(t *testing.T, scfg shard.Config, cfg server.Config) (*shard.Router, *server.Server, string) {
	t.Helper()
	r, err := shard.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(r, cfg)
	addr, err := srv.Start()
	if err != nil {
		r.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Stop(ctx); err != nil {
			t.Errorf("Stop: %v", err)
		}
		r.Close()
	})
	return r, srv, addr.String()
}

func defaultShardConfig(n int) shard.Config {
	return shard.Config{
		Shards: n,
		Engine: db.Config{
			BufferPages:          256,
			PartitionBufferBytes: 64 << 10,
			EnableWAL:            true,
		},
	}
}

func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestOrphanedTxAbortOnDisconnect: a connection that dies mid-transaction
// must not leak anything — the server aborts the orphaned transaction (no
// pinned GC horizon: every shard's active-transaction count returns to
// zero), releases the session slot (a new session fits under a cap of 1),
// and the orphan's writes are invisible.
func TestOrphanedTxAbortOnDisconnect(t *testing.T) {
	r, _, addr := startServerWith(t, defaultShardConfig(2), server.Config{
		MaxSessionsPerTenant: 1,
	})
	c, err := shardclient.Dial(addr, "t1")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set(tx, []byte("orphan-key"), []byte("never-committed")); err != nil {
		t.Fatal(err)
	}
	active := 0
	for i := 0; i < r.NumShards(); i++ {
		active += r.Shard(i).Engine.Mgr.ActiveCount()
	}
	if active == 0 {
		t.Fatal("open server tx holds no engine transactions")
	}

	// Sever the connection with the transaction open.
	c.Close()

	// Slot released: a new session fits under MaxSessionsPerTenant=1.
	var c2 *shardclient.Client
	poll(t, "session reaped", func() bool {
		c2, err = shardclient.Dial(addr, "t1")
		return err == nil
	})
	defer c2.Close()
	poll(t, "orphan aborted on every shard", func() bool {
		for i := 0; i < r.NumShards(); i++ {
			if r.Shard(i).Engine.Mgr.ActiveCount() != 0 {
				return false
			}
		}
		return true
	})

	// The orphan's write never became visible.
	if _, ok, _ := c2.Get(0, []byte("orphan-key")); ok {
		t.Fatal("orphaned transaction's write is visible")
	}
	// GC horizon is unpinned: autocommit traffic proceeds and the old
	// transaction ids fall behind the horizon.
	for i := 0; i < 20; i++ {
		if err := c2.Set(0, []byte(fmt.Sprintf("h-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < r.NumShards(); i++ {
		if r.Shard(i).Engine.Mgr.ActiveCount() != 0 {
			t.Fatalf("shard %d still pins transactions", i)
		}
	}
}

// TestVersionNegotiation: a HELLO carrying the wrong protocol version is
// refused with StatusVersionMismatch naming both versions; a version-less
// legacy HELLO is refused the same way (version 0).
func TestVersionNegotiation(t *testing.T) {
	_, _, addr := startServerWith(t, defaultShardConfig(1), server.Config{})

	hello := func(t *testing.T, segs ...[]byte) (byte, []byte) {
		t.Helper()
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		bw := bufio.NewWriter(conn)
		if err := wire.WriteFrame(bw, wire.OpHello, segs...); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		st, payload, err := wire.ReadFrame(bufio.NewReader(conn))
		if err != nil {
			t.Fatal(err)
		}
		return st, payload
	}

	st, payload := hello(t, wire.U32(99), []byte("t1"))
	if st != wire.StatusVersionMismatch {
		t.Fatalf("status = %d, want StatusVersionMismatch", st)
	}
	srvVer, text, err := wire.TakeU32(payload)
	if err != nil || srvVer != wire.ProtoVersion {
		t.Fatalf("server version in payload = %d, %v", srvVer, err)
	}
	if !strings.Contains(string(text), "99") || !strings.Contains(string(text), fmt.Sprint(wire.ProtoVersion)) {
		t.Fatalf("mismatch text %q does not name both versions", text)
	}

	if st, _ := hello(t, []byte("t")); st != wire.StatusVersionMismatch {
		t.Fatalf("legacy version-less HELLO: status = %d, want StatusVersionMismatch", st)
	}

	// The current client negotiates fine.
	c, err := shardclient.Dial(addr, "t1")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// TestIdleSessionReaped: a session that goes quiet past IdleTimeout is
// reaped — its slot freed and its connection dead.
func TestIdleSessionReaped(t *testing.T) {
	_, _, addr := startServerWith(t, defaultShardConfig(1), server.Config{
		IdleTimeout: 50 * time.Millisecond, MaxSessionsPerTenant: 1,
	})
	c, err := shardclient.Dial(addr, "t1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set(0, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	poll(t, "idle session reaped", func() bool { // its slot under the cap of 1 is free again
		c2, err := shardclient.Dial(addr, "t1")
		if err == nil {
			c2.Close()
		}
		return err == nil
	})
	if err := c.Set(0, []byte("k2"), []byte("v")); err == nil {
		t.Fatal("write on a reaped session succeeded")
	}
}

// tokenDedupServer builds a 1-shard server behind a chaos schedule and
// returns the address. One shard keeps the frame sequence trivially
// predictable: In 0=HELLO 1=BEGIN 2=SET 3=COMMIT, Out mirrors it.
func tokenDedupServer(t *testing.T, rules []chaos.Rule) (string, *chaos.Schedule) {
	t.Helper()
	sched := chaos.NewSchedule(rules)
	_, _, addr := startServerWith(t, defaultShardConfig(1), server.Config{
		WrapListener: func(ln net.Listener) net.Listener { return chaos.Wrap(ln, sched) },
	})
	return addr, sched
}

// TestCommitTokenAckLost: the connection dies AFTER the server applies
// COMMIT but before the client reads the ack (Out frame 3 cut). The retry
// path must observe exactly-once semantics: ResolveCommit reports
// committed, re-Begin with the same token is refused, and the write exists
// exactly as committed.
func TestCommitTokenAckLost(t *testing.T) {
	addr, _ := tokenDedupServer(t, []chaos.Rule{{Dir: chaos.Out, Frame: 3, Action: chaos.Cut}})

	const token = 0xDEADBEEF
	c, err := shardclient.Dial(addr, "t1")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := c.BeginToken(token)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set(tx, []byte("al-k"), []byte("al-v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(tx); err == nil {
		t.Fatal("COMMIT ack survived the scheduled cut")
	}
	c.Close()

	// Reconnect and resolve: the commit applied; the ack was lost.
	c2, err := shardclient.Dial(addr, "t1")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	applied, err := c2.ResolveCommit(token)
	if err != nil || !applied {
		t.Fatalf("ResolveCommit = %v, %v; want true", applied, err)
	}
	// A blind retry of the whole transaction is refused at Begin.
	if _, err := c2.BeginToken(token); !errors.Is(err, shardclient.ErrAlreadyCommitted) {
		t.Fatalf("BeginToken(reused) err = %v, want ErrAlreadyCommitted", err)
	}
	v, ok, err := c2.Get(0, []byte("al-k"))
	if err != nil || !ok || string(v) != "al-v" {
		t.Fatalf("committed write: %q %v %v", v, ok, err)
	}
}

// TestCommitTokenRequestLost: the connection dies BEFORE the COMMIT
// request reaches the server (In frame 3 cut) — the orphaned transaction
// is aborted with the session, ResolveCommit reports not-committed, and
// re-running the transaction with a fresh token applies it exactly once.
func TestCommitTokenRequestLost(t *testing.T) {
	addr, _ := tokenDedupServer(t, []chaos.Rule{{Dir: chaos.In, Frame: 3, Action: chaos.Cut}})

	const token = 0xFEEDF00D
	c, err := shardclient.Dial(addr, "t1")
	if err != nil {
		t.Fatal(err)
	}
	tx, err := c.BeginToken(token)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set(tx, []byte("rl-k"), []byte("rl-v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(tx); err == nil {
		t.Fatal("COMMIT request survived the scheduled cut")
	}
	c.Close()

	c2, err := shardclient.Dial(addr, "t1")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	applied, err := c2.ResolveCommit(token)
	if err != nil || applied {
		t.Fatalf("ResolveCommit = %v, %v; want false", applied, err)
	}
	if _, ok, _ := c2.Get(0, []byte("rl-k")); ok {
		t.Fatal("aborted transaction's write is visible")
	}
	// The resolution is authoritative: safe to re-run with the same token.
	tx2, err := c2.BeginToken(token)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Set(tx2, []byte("rl-k"), []byte("rl-v")); err != nil {
		t.Fatal(err)
	}
	if err := c2.Commit(tx2); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c2.Get(0, []byte("rl-k"))
	if err != nil || !ok || string(v) != "rl-v" {
		t.Fatalf("re-run write: %q %v %v", v, ok, err)
	}
}

// TestRTxExactlyOnceCounter drives a read-modify-write through RTx under an
// ack-lost cut: the increment must land exactly once even though the commit
// was retried/resolved across a reconnect.
func TestRTxExactlyOnceCounter(t *testing.T) {
	// Out frame 5 is the COMMIT ack: HELLO=0, SET(seed)=1, BEGIN=2, GET=3,
	// SET=4, COMMIT=5.
	addr, _ := tokenDedupServer(t, []chaos.Rule{{Dir: chaos.Out, Frame: 5, Action: chaos.Cut}})
	rc := shardclient.NewRClient(shardclient.RConfig{Addr: addr, Tenant: "t1", Seed: 7})
	defer rc.Close()

	if err := rc.Set([]byte("ctr"), []byte("10")); err != nil {
		t.Fatal(err)
	}
	tx, err := rc.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := tx.Get([]byte("ctr"))
	if err != nil || !ok {
		t.Fatalf("tx get: %q %v %v", v, ok, err)
	}
	var n int
	fmt.Sscanf(string(v), "%d", &n)
	if err := tx.Set([]byte("ctr"), []byte(fmt.Sprint(n+1))); err != nil {
		t.Fatal(err)
	}
	outcome, err := tx.Commit()
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if outcome != shardclient.CommitResolvedApplied {
		t.Fatalf("outcome = %v, want CommitResolvedApplied (ack was cut)", outcome)
	}
	got, _, err := rc.Get([]byte("ctr"))
	if err != nil || string(got) != "11" {
		t.Fatalf("counter = %q (%v), want 11 — increment applied other than exactly once", got, err)
	}
}

// TestRClientResultsOutliveNextCall: a Client's results alias the reply
// buffer it reuses, but an RClient's are the caller's to keep — a GET value
// and SCAN pairs held across further GETs on the same session stay intact.
func TestRClientResultsOutliveNextCall(t *testing.T) {
	_, _, addr := startServer(t, 2, server.Config{})
	rc := shardclient.NewRClient(shardclient.RConfig{Addr: addr, Tenant: "t1", Seed: 3})
	defer rc.Close()
	for _, kv := range [][2]string{{"hold-a", "first value"}, {"hold-b", "second, longer value"}} {
		if err := rc.Set([]byte(kv[0]), []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	a, ok, err := rc.Get([]byte("hold-a"))
	if err != nil || !ok {
		t.Fatalf("get hold-a: %v %v", ok, err)
	}
	pairs, err := rc.Scan([]byte("hold-"), 2)
	if err != nil || len(pairs) != 2 {
		t.Fatalf("scan: %d pairs, %v", len(pairs), err)
	}
	if b, ok, err := rc.Get([]byte("hold-b")); err != nil || !ok || string(b) != "second, longer value" {
		t.Fatalf("get hold-b: %q %v %v", b, ok, err)
	}
	if string(a) != "first value" {
		t.Fatalf("held GET value reads %q after a second GET, want %q", a, "first value")
	}
	if string(pairs[0].Key) != "hold-a" || string(pairs[0].Val) != "first value" ||
		string(pairs[1].Key) != "hold-b" || string(pairs[1].Val) != "second, longer value" {
		t.Fatalf("held SCAN pairs read %q after a GET", pairs)
	}
}

// TestResolveWaitsForCommitInFlight: a connection that dies under its COMMIT
// sends the client straight to a new one to resolve the token, while the
// server may still be executing that commit. The resolution must wait for
// it — "not recorded" would report not-applied for a commit that then lands.
func TestResolveWaitsForCommitInFlight(t *testing.T) {
	entered, held := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(held) })
	scfg := defaultShardConfig(2)
	scfg.TwoPC.BeforeDecide = func(uint64) error { close(entered); <-held; return nil }
	r, _, addr := startServerWith(t, scfg, server.Config{})
	t.Cleanup(release) // before the server stops: a failed test must not leave the commit held
	c, err := shardclient.Dial(addr, "t1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const token = 0xC0FFEE
	tx, err := c.BeginToken(token)
	if err != nil {
		t.Fatal(err)
	}
	shards := map[int]bool{}
	for i := 0; i < 8; i++ {
		k := []byte(fmt.Sprintf("inflight-%d", i))
		if err := c.Set(tx, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		shards[r.ShardOf(k)] = true
	}
	if len(shards) != 2 {
		t.Fatal("keys on one shard: the commit is not two-phase and never meets the hook")
	}
	committed := make(chan error, 1)
	go func() { committed <- c.Commit(tx) }()
	<-entered

	c2, err := shardclient.Dial(addr, "t1")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	type answer struct {
		applied bool
		err     error
	}
	resolved := make(chan answer, 1)
	go func() {
		applied, err := c2.ResolveCommit(token)
		resolved <- answer{applied, err}
	}()
	select {
	case a := <-resolved:
		t.Fatalf("resolved (%v, %v) while the commit was in flight", a.applied, a.err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if a := <-resolved; a.err != nil || !a.applied {
		t.Fatalf("ResolveCommit = %v, %v after the commit landed; want applied", a.applied, a.err)
	}
}

// TestUnavailableStatusTyped: an operation routed to a failed shard comes
// back as StatusUnavailable and surfaces client-side as UnavailableError
// naming the shard, while the other shard keeps serving; once the
// supervisor restarts the shard, the same operation succeeds.
func TestUnavailableStatusTyped(t *testing.T) {
	block := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(block)
		}
	}
	defer release()

	scfg := defaultShardConfig(2)
	scfg.Supervisor = shard.SupervisorConfig{
		RestartHook: func(int) error { <-block; return nil },
	}
	r, _, addr := startServerWith(t, scfg, server.Config{})
	c, err := shardclient.Dial(addr, "t1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Find one key per shard.
	keys := map[int][]byte{}
	for i := 0; len(keys) < 2 && i < 10000; i++ {
		k := []byte(fmt.Sprintf("ua-%04d", i))
		if _, ok := keys[r.ShardOf(k)]; !ok {
			keys[r.ShardOf(k)] = k
		}
	}
	for _, k := range keys {
		if err := c.Set(0, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	if err := r.FailShard(0, errors.New("test failure")); err != nil {
		t.Fatal(err)
	}
	var ue *shardclient.UnavailableError
	err = c.Set(0, keys[0], []byte("during"))
	if !errors.As(err, &ue) || ue.Shard != 0 {
		t.Fatalf("failed-shard Set err = %v, want UnavailableError{Shard: 0}", err)
	}
	if err := c.Set(0, keys[1], []byte("still-up")); err != nil {
		t.Fatalf("healthy shard during failure: %v", err)
	}

	release()
	poll(t, "shard 0 recovered", func() bool { return r.Health(0).State == shard.Healthy })
	if err := c.Set(0, keys[0], []byte("after")); err != nil {
		t.Fatalf("post-recovery Set: %v", err)
	}
	v, ok, err := c.Get(0, keys[0])
	if err != nil || !ok || string(v) != "after" {
		t.Fatalf("post-recovery Get: %q %v %v", v, ok, err)
	}
}
