package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"mvpbt/internal/db"
	"mvpbt/internal/server"
	"mvpbt/internal/server/shardclient"
	"mvpbt/internal/shard"
	"mvpbt/internal/storage"
)

// startServer builds a router with n shards and serves it on a random
// port, returning the address for clients.
func startServer(t *testing.T, n int, cfg server.Config) (*shard.Router, *server.Server, string) {
	t.Helper()
	return startServerWith(t, defaultShardConfig(n), cfg)
}

func TestServerEndToEnd(t *testing.T) {
	_, _, addr := startServer(t, 2, server.Config{})
	c, err := shardclient.Dial(addr, "t1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Autocommit writes and reads.
	for i := 0; i < 50; i++ {
		if err := c.Set(0, []byte(fmt.Sprintf("k-%03d", i)), []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := c.Get(0, []byte("k-007"))
	if err != nil || !ok || string(v) != "v-7" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if _, ok, _ := c.Get(0, []byte("missing")); ok {
		t.Fatal("phantom key")
	}
	if err := c.Del(0, []byte("k-000")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get(0, []byte("k-000")); ok {
		t.Fatal("deleted key visible")
	}

	// Scan in global order across shards.
	kvs, err := c.Scan(0, []byte("k-"), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 49 {
		t.Fatalf("scan got %d pairs, want 49", len(kvs))
	}
	for i := 1; i < len(kvs); i++ {
		if string(kvs[i-1].Key) >= string(kvs[i].Key) {
			t.Fatalf("scan out of order at %d: %q >= %q", i, kvs[i-1].Key, kvs[i].Key)
		}
	}

	// Transactional cross-shard write: invisible to a second session until
	// commit, then visible.
	c2, err := shardclient.Dial(addr, "t2")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set(tx, []byte("pair-a"), []byte("pv")); err != nil {
		t.Fatal(err)
	}
	if err := c.Set(tx, []byte("pair-b"), []byte("pv")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := c.Get(tx, []byte("pair-a")); !ok || string(v) != "pv" {
		t.Fatalf("tx does not read its own write: %q %v", v, ok)
	}
	if _, ok, _ := c2.Get(0, []byte("pair-a")); ok {
		t.Fatal("uncommitted write visible to other session")
	}
	if err := c.Commit(tx); err != nil {
		t.Fatal(err)
	}
	va, oka, _ := c2.Get(0, []byte("pair-a"))
	vb, okb, _ := c2.Get(0, []byte("pair-b"))
	if !oka || !okb || string(va) != "pv" || string(vb) != "pv" {
		t.Fatalf("committed pair not visible: %q/%v %q/%v", va, oka, vb, okb)
	}

	// Abort discards.
	tx2, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	c.Set(tx2, []byte("gone"), []byte("x"))
	if err := c.Abort(tx2); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get(0, []byte("gone")); ok {
		t.Fatal("aborted write visible")
	}

	// Unknown transaction ids are typed.
	if err := c.Commit(999); !errors.Is(err, shardclient.ErrNoTx) {
		t.Fatalf("commit of unknown tx: %v, want ErrNoTx", err)
	}

	// Stats answers (TestStatsReport reads it).
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st == "" {
		t.Fatal("empty stats")
	}
}

// TestStatsReport: STATS returns the router's report as JSON, one entry per
// shard with its 2PC, MV-PBT, buffer pool and device counters, plus the
// coordinator log's.
func TestStatsReport(t *testing.T) {
	// A pool of 32 pages, so reading the fill back has to go to the device.
	scfg := defaultShardConfig(2)
	scfg.Engine.BufferPages = 32
	r, _, addr := startServerWith(t, scfg, server.Config{})
	c, err := shardclient.Dial(addr, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One cross-shard commit, one key on each shard, then one single-key SET.
	var keys [2][]byte
	for i := 0; keys[0] == nil || keys[1] == nil; i++ {
		k := []byte(fmt.Sprintf("x-%d", i))
		keys[r.ShardOf(k)] = k
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := c.Set(tx, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if err := c.Set(0, []byte("single"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Over a partition buffer (64 KiB) of 1 KiB values into each shard, so
	// both have evicted a partition for the MV-PBT counters to show.
	val := make([]byte, 1<<10)
	for i := 0; i < 200; i++ {
		if err := c.Set(0, []byte(fmt.Sprintf("fill-%03d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		if _, ok, err := c.Get(0, []byte(fmt.Sprintf("fill-%03d", i))); err != nil || !ok {
			t.Fatalf("fill-%03d: %v %v", i, ok, err)
		}
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var rep shard.Report
	if err := json.Unmarshal([]byte(st), &rep); err != nil {
		t.Fatalf("STATS reply is not a shard.Report: %v\n%s", err, st)
	}
	if len(rep.Shards) != 2 {
		t.Fatalf("report has %d shards, want 2", len(rep.Shards))
	}
	for i, sh := range rep.Shards {
		if want := fmt.Sprintf("shard-%d", i); sh.Dir != want || sh.Health.State != shard.Healthy {
			t.Fatalf("shard %d: dir %q health %v, want %q healthy", i, sh.Dir, sh.Health.State, want)
		}
		if sh.TwoPC.Prepares < 1 || sh.Device.Writes == 0 {
			t.Fatalf("shard %d: %d prepares, %d device writes: want the commit's leg and its flush", i, sh.TwoPC.Prepares, sh.Device.Writes)
		}
		if p, d := sh.Pool, sh.Device; p.Reads == 0 || p.PagesRead < p.Reads || d.Reads < p.Reads || d.BytesRead < p.PagesRead*storage.PageSize ||
			d.BytesWritten < 200<<10/2 || p.ChecksumFailures|p.ReadFailures|p.WriteFailures != 0 {
			t.Fatalf("shard %d: pool %+v, device %+v: want the fill written and read back through the pool", i, p, d)
		}
		if sh.KV.Evictions < 1 || sh.Partitions < 1 {
			t.Fatalf("shard %d: KV tree stats %+v, %d partitions: want the fill's eviction", i, sh.KV, sh.Partitions)
		}
	}
	if rep.Coordinator.Decides < 1 {
		t.Fatalf("coordinator decided %d groups, want the cross-shard commit", rep.Coordinator.Decides)
	}
}

func TestServerReadOnlyShardStatus(t *testing.T) {
	r, _, addr := startServer(t, 2, server.Config{})
	c, err := shardclient.Dial(addr, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Find a key on shard 1, degrade shard 1, and watch the typed status
	// come back over the wire.
	var key []byte
	for i := 0; ; i++ {
		key = []byte(fmt.Sprintf("ro-%04d", i))
		if r.ShardOf(key) == 1 {
			break
		}
	}
	r.Shard(1).Engine.ForceReadOnly(true)
	defer r.Shard(1).Engine.ForceReadOnly(false)

	err = c.Set(0, key, []byte("x"))
	var roe *shardclient.ReadOnlyError
	if !errors.As(err, &roe) {
		t.Fatalf("set on degraded shard: %v, want *ReadOnlyError", err)
	}
	if roe.Shard != 1 {
		t.Fatalf("ReadOnlyError names shard %d, want 1", roe.Shard)
	}
	// The session survives the error.
	if err := c.Set(0, []byte("other-shard-key-0"), []byte("y")); err != nil && r.ShardOf([]byte("other-shard-key-0")) == 0 {
		t.Fatalf("healthy shard write failed: %v", err)
	}
}

// serverGoroutines counts the goroutines whose stack holds every one of
// frames (names as runtime.Stack prints them). It is how the admission
// tests observe the server without a sleep: a HELLO waiting in the queue
// sleeps inside admit, and a connection's goroutine stays in handleConn
// until its session slot is released.
func serverGoroutines(frames ...string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		all := true
		for _, f := range frames {
			all = all && strings.Contains(g, f)
		}
		if all {
			n++
		}
	}
	return n
}

const (
	admitFrame = "server.(*Server).admit"
	connFrame  = "server.(*Server).handleConn"
)

// holdOnlySlot dials the one session a MaxSessions: 1 server admits.
func holdOnlySlot(t *testing.T, addr string) *shardclient.Client {
	t.Helper()
	c, err := shardclient.Dial(addr, "holder")
	if err != nil {
		t.Fatalf("first session: %v", err)
	}
	return c
}

// TestServerAdmissionReject: with no QueueTimeout, a session past the cap
// is refused at once.
func TestServerAdmissionReject(t *testing.T) {
	_, srv, addr := startServer(t, 1, server.Config{MaxSessions: 1})

	holder := holdOnlySlot(t, addr)
	if _, err := shardclient.Dial(addr, "t"); !errors.Is(err, shardclient.ErrAdmission) {
		t.Fatalf("dial past the session cap: %v, want ErrAdmission", err)
	}
	holder.Close()
	poll(t, "the held slot's release", func() bool { return serverGoroutines(connFrame) == 0 })
	c, err := shardclient.Dial(addr, "t")
	if err != nil {
		t.Fatalf("dial after the slot was released: %v", err)
	}
	c.Close()
	m := srv.Metrics()
	if m.Rejected != 1 || m.Admitted != 2 || m.Queued != 0 {
		t.Fatalf("metrics %+v, want 1 rejected / 2 admitted / 0 queued", m)
	}
}

func TestServerAdmissionQueue(t *testing.T) {
	_, srv, addr := startServer(t, 1, server.Config{
		QueueTimeout: 10 * time.Second,
		MaxSessions:  1,
	})

	holder := holdOnlySlot(t, addr)
	// Release the slot while the HELLO is queued: the session must be
	// admitted, not rejected.
	dialed := make(chan error, 1)
	go func() {
		c, err := shardclient.Dial(addr, "t")
		if err == nil {
			err = c.Set(0, []byte("k"), []byte("v"))
			c.Close()
		}
		dialed <- err
	}()
	poll(t, "the HELLO to queue", func() bool { return serverGoroutines(admitFrame, "time.Sleep") == 1 })
	holder.Close()
	if err := <-dialed; err != nil {
		t.Fatalf("queued dial: %v", err)
	}
	if m := srv.Metrics(); m.Queued != 1 || m.Admitted != 2 {
		t.Fatalf("metrics %+v, want 1 queued / 2 admitted", m)
	}
}

// TestServerAdmissionQueueTimeout: a session that queued and was refused at
// its timeout counts as queued and as rejected.
func TestServerAdmissionQueueTimeout(t *testing.T) {
	_, srv, addr := startServer(t, 1, server.Config{
		QueueTimeout: 50 * time.Millisecond,
		MaxSessions:  1,
	})
	holder := holdOnlySlot(t, addr)
	defer holder.Close()
	start := time.Now()
	if _, err := shardclient.Dial(addr, "t"); !errors.Is(err, shardclient.ErrAdmission) {
		t.Fatalf("dial while the only slot is held: %v, want ErrAdmission", err)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Fatal("queue rejected before its timeout")
	}
	if m := srv.Metrics(); m.Queued != 1 || m.Rejected != 1 || m.Admitted != 1 {
		t.Fatalf("metrics %+v, want 1 queued / 1 rejected / 1 admitted", m)
	}
}

// TestAdmissionPastSoftWatermark: with no fake in between, a shard whose
// live bytes have crossed its soft space watermark is the overload that
// admission refuses new sessions on.
func TestAdmissionPastSoftWatermark(t *testing.T) {
	cfg := defaultShardConfig(1)
	cfg.Engine.SpaceSoftBytes = 1
	r, srv, addr := startServerWith(t, cfg, server.Config{})
	if err := r.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if !r.PastSoftWatermark() {
		t.Fatalf("one write left the shard under a 1-byte soft watermark: %+v", r.Shard(0).Engine.SpaceInfo())
	}
	if _, err := shardclient.Dial(addr, "t"); !errors.Is(err, shardclient.ErrAdmission) {
		t.Fatalf("dial past the soft watermark: %v, want ErrAdmission", err)
	}
	if m := srv.Metrics(); m.Rejected != 1 || m.Admitted != 0 {
		t.Fatalf("metrics %+v, want 1 rejected / 0 admitted", m)
	}
}

func TestServerPerTenantCap(t *testing.T) {
	_, _, addr := startServer(t, 1, server.Config{
		MaxSessionsPerTenant: 1,
	})
	c1, err := shardclient.Dial(addr, "acme")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	// Same tenant: over its cap.
	if _, err := shardclient.Dial(addr, "acme"); !errors.Is(err, shardclient.ErrAdmission) {
		t.Fatalf("second acme session: %v, want ErrAdmission", err)
	}
	// Different tenant: admitted.
	c2, err := shardclient.Dial(addr, "globex")
	if err != nil {
		t.Fatalf("other tenant refused: %v", err)
	}
	c2.Close()
	// Releasing acme's slot re-admits acme.
	c1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		c3, err := shardclient.Dial(addr, "acme")
		if err == nil {
			c3.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("acme never re-admitted: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServerDrain(t *testing.T) {
	r, err := shard.New(shard.Config{
		Shards: 2,
		Engine: db.Config{
			BufferPages:          256,
			PartitionBufferBytes: 64 << 10,
			EnableWAL:            true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	srv := server.New(r, server.Config{})
	addr, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	c, err := shardclient.Dial(addr.String(), "t")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A second session, admitted before the drain, reads the commit.
	c2, err := shardclient.Dial(addr.String(), "t")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if r.ShardOf([]byte("drain-a")) == r.ShardOf([]byte("drain-b")) {
		t.Fatal("drain-a and drain-b share a shard: the commit would not be cross-shard")
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set(tx, []byte("drain-a"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Set(tx, []byte("drain-b"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainDone <- srv.Drain(ctx)
	}()
	// Give Drain a moment to close the listener.
	time.Sleep(20 * time.Millisecond)

	// New connections are refused during drain (listener closed).
	if _, err := shardclient.DialTimeout(addr.String(), "t2", 200*time.Millisecond); err == nil {
		t.Fatal("new session admitted during drain")
	}
	// The admitted session finishes its in-flight cross-shard transaction,
	// and the other admitted session sees it.
	if err := c.Commit(tx); err != nil {
		t.Fatalf("in-flight commit during drain: %v", err)
	}
	if v, ok, err := c2.Get(0, []byte("drain-b")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("committed write on a second session during drain: %q %v %v", v, ok, err)
	}
	// New transactions are refused.
	if _, err := c.Begin(); !errors.Is(err, shardclient.ErrDraining) {
		t.Fatalf("begin during drain: %v, want ErrDraining", err)
	}
	c.Close()
	c2.Close()

	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve after drain: %v", err)
	}
	// The drained commit is durable: the data survives in the router.
	if v, ok, _ := r.Get([]byte("drain-a")); !ok || string(v) != "v" {
		t.Fatalf("drained commit lost: %q %v", v, ok)
	}
	if v, ok, _ := r.Get([]byte("drain-b")); !ok || string(v) != "v" {
		t.Fatalf("drained commit lost: %q %v", v, ok)
	}
	if m := srv.Metrics(); m.Admitted != 2 {
		t.Fatalf("metrics %+v, want exactly the 2 sessions admitted before the drain", m)
	}
}

// TestDrainBoundsConnBeforeHello: a connection that never sends its HELLO is
// not admitted yet, and Drain still deadlines and closes it: Drain under a
// 50 ms context returns in well under the HELLO timeout.
func TestDrainBoundsConnBeforeHello(t *testing.T) {
	_, srv, addr := startServer(t, 1, server.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	poll(t, "the connection to be accepted", func() bool { return serverGoroutines(connFrame) == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = srv.Drain(ctx)
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Drain returned after %v (%v), want within 1s of its 50ms context", took, err)
	}
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain: %v", err)
	}
}

func TestWireFrameLimits(t *testing.T) {
	_, _, addr := startServer(t, 1, server.Config{})
	c, err := shardclient.Dial(addr, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A multi-KB value (large for this engine's leaf pages) round-trips
	// through the length-prefixed framing intact.
	big := make([]byte, 2<<10)
	for i := range big {
		big[i] = byte(i)
	}
	if err := c.Set(0, []byte("big"), big); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get(0, []byte("big"))
	if err != nil || !ok || len(v) != len(big) {
		t.Fatalf("big value round-trip: ok=%v err=%v len=%d", ok, err, len(v))
	}
	for i := range v {
		if v[i] != big[i] {
			t.Fatalf("big value corrupted at %d", i)
		}
	}
}

// TestAdmissionTimeoutBounded pins BOTH sides of the queue-timeout
// contract while the only session slot stays held: a queued session must
// not be rejected before QueueTimeout, and must receive its typed rejection
// within QueueTimeout plus a scheduling epsilon — the queue may not hold
// connections indefinitely once the slot stays taken past it. Several
// concurrent sessions queue at once, so the admit loop's shared state is
// also exercised under the race detector.
func TestAdmissionTimeoutBounded(t *testing.T) {
	const queueTimeout = 100 * time.Millisecond
	// Generous for loaded CI machines; the admit loop polls every 2ms, so
	// the intrinsic slack is tiny.
	const epsilon = 900 * time.Millisecond
	_, srv, addr := startServer(t, 1, server.Config{
		QueueTimeout: queueTimeout,
		MaxSessions:  1,
	})
	holder := holdOnlySlot(t, addr)
	defer holder.Close()
	const sessions = 8
	type outcome struct {
		err  error
		took time.Duration
	}
	results := make(chan outcome, sessions)
	for i := 0; i < sessions; i++ {
		go func() {
			start := time.Now()
			_, err := shardclient.Dial(addr, "t")
			results <- outcome{err: err, took: time.Since(start)}
		}()
	}
	for i := 0; i < sessions; i++ {
		res := <-results
		if !errors.Is(res.err, shardclient.ErrAdmission) {
			t.Fatalf("session %d: %v, want ErrAdmission", i, res.err)
		}
		if res.took < queueTimeout {
			t.Fatalf("session %d rejected after %v, before the %v timeout", i, res.took, queueTimeout)
		}
		if res.took > queueTimeout+epsilon {
			t.Fatalf("session %d held %v, past timeout %v + epsilon %v", i, res.took, queueTimeout, epsilon)
		}
	}
	m := srv.Metrics()
	if m.Rejected != sessions || m.Queued != sessions {
		t.Fatalf("metrics %+v, want %d rejected, all of them queued first", m, sessions)
	}
}

// TestPerTenantCapNoStarvation: one tenant saturating its per-tenant cap
// with a burst of concurrent dials must not starve other tenants — the
// cap is per-tenant isolation, not a global brake. The greedy tenant's
// overflow gets the typed admission rejection; every other tenant's
// session is admitted while the greedy sessions stay parked.
func TestPerTenantCapNoStarvation(t *testing.T) {
	_, _, addr := startServer(t, 1, server.Config{
		MaxSessionsPerTenant: 2,
		MaxSessions:          64,
	})

	// The greedy tenant fires 10 concurrent dials at a cap of 2.
	const greedy = 10
	type res struct {
		c   *shardclient.Client
		err error
	}
	greedyRes := make(chan res, greedy)
	for i := 0; i < greedy; i++ {
		go func() {
			c, err := shardclient.Dial(addr, "greedy")
			greedyRes <- res{c, err}
		}()
	}
	var admitted, rejected int
	for i := 0; i < greedy; i++ {
		r := <-greedyRes
		switch {
		case r.err == nil:
			admitted++
			defer r.c.Close()
		case errors.Is(r.err, shardclient.ErrAdmission):
			rejected++
		default:
			t.Fatalf("greedy dial: %v", r.err)
		}
	}
	if admitted != 2 || rejected != greedy-2 {
		t.Fatalf("greedy tenant: %d admitted / %d rejected, want 2 / %d", admitted, rejected, greedy-2)
	}

	// With greedy's slots pinned open, ten OTHER tenants dial concurrently;
	// every one must be admitted and usable.
	const others = 10
	otherRes := make(chan res, others)
	for i := 0; i < others; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		go func() {
			c, err := shardclient.Dial(addr, tenant)
			otherRes <- res{c, err}
		}()
	}
	for i := 0; i < others; i++ {
		r := <-otherRes
		if r.err != nil {
			t.Fatalf("minority tenant starved: %v", r.err)
		}
		if err := r.c.Set(0, []byte("k"), []byte("v")); err != nil {
			t.Fatalf("admitted session unusable: %v", err)
		}
		r.c.Close()
	}
}
