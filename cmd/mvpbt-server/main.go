// Command mvpbt-server serves a sharded MV-PBT deployment over TCP: N
// independent engines behind a shard.Router, fronted by the wire protocol
// with per-tenant admission control and graceful drain on SIGINT/SIGTERM
// (DESIGN.md §12).
//
// The storage under it is the repo's simulated device, so the server is a
// protocol/concurrency testbed rather than a persistent database: state
// lives for the process lifetime.
//
// Every shard is built as the repository's benchmark measures it: a commit
// flushes the WAL through its own record unless a concurrent commit's flush
// already covered it (DESIGN.md §11), a supervisor restarts a failed
// shard through WAL recovery, kvOptions gives bloom filters and merges
// bounding the partitions a read meets, and walCheckpointBytes truncates the
// log every 12 MiB. None of these is a flag.
//
// -debug-addr serves net/http/pprof on a second, loopback listener.
//
// -smoke runs the full lifecycle in-process — start, run client
// operations through shardclient, enough writes to see the shards evict,
// filter, merge and checkpoint, drain, verify clean shutdown — and exits
// non-zero on any failure; CI uses it as the server's end-to-end gate.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // the -debug-addr listener's handlers
	"os"
	"os/signal"
	"syscall"
	"time"

	"mvpbt/internal/db"
	"mvpbt/internal/server"
	"mvpbt/internal/server/shardclient"
	"mvpbt/internal/shard"
)

// kvOptions is the one configuration of a shard's MV-PBT store: the paper's
// Fig. 15 KV setting, which benchmarks/ serves and fig15, extra-wa and
// extra-merge measure — not the zero options (no filters, every partition
// ever evicted under every GET and SCAN).
var kvOptions = db.MVPBTKVOptions{BloomBits: 10, MaxPartitions: 10}

// walCheckpointBytes is the log growth after which a shard checkpoints and
// truncates its log, as benchmarks/ serves it. Left at 0 the log is first
// cut when the space governor trips (85 % of -capacity), and a restart
// replays up to that much.
const walCheckpointBytes = 12 << 20

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7878", "TCP listen address")
		shards       = flag.Int("shards", 4, "number of independent engine shards")
		capacity     = flag.Int64("capacity", 256<<20, "per-shard device capacity budget in bytes (0 = unbounded)")
		pbuf         = flag.Int("pbuf", 256<<10, "per-shard partition buffer bytes")
		admission    = flag.String("admission", "reject", "admission policy under overload: reject | queue")
		queueTimeout = flag.Duration("queue-timeout", 2*time.Second, "how long queued sessions wait for admission")
		maxSessions  = flag.Int("max-sessions", 256, "global concurrent session cap")
		maxPerTenant = flag.Int("max-per-tenant", 64, "per-tenant concurrent session cap")
		drainWait    = flag.Duration("drain-wait", 10*time.Second, "how long shutdown waits for sessions to finish")
		idleTimeout  = flag.Duration("idle-timeout", 5*time.Minute, "reap sessions idle this long (0 = default, <0 = never)")
		smoke        = flag.Bool("smoke", false, "run the in-process smoke test and exit")
		debugAddr    = flag.String("debug-addr", "", "loopback address to serve net/http/pprof on (empty = off)")
	)
	flag.Parse()

	pol := server.AdmitReject
	switch *admission {
	case "reject":
	case "queue":
		pol = server.AdmitQueue
	default:
		fmt.Fprintf(os.Stderr, "unknown -admission %q (want reject or queue)\n", *admission)
		os.Exit(2)
	}

	r, err := shard.New(shard.Config{
		Shards: *shards,
		Engine: db.Config{
			BufferPages:          1024,
			PartitionBufferBytes: *pbuf,
			EnableWAL:            true,
			DeviceCapacityBytes:  *capacity,
			WALCheckpointBytes:   walCheckpointBytes,
		},
		KVOptions: kvOptions,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "router: %v\n", err)
		os.Exit(1)
	}
	defer r.Close()

	cfg := server.Config{
		Addr:                 *addr,
		MaxSessions:          *maxSessions,
		MaxSessionsPerTenant: *maxPerTenant,
		Admission:            pol,
		QueueTimeout:         *queueTimeout,
		IdleTimeout:          *idleTimeout,
	}
	if *smoke {
		cfg.Addr = "127.0.0.1:0"
		if err := runSmoke(r, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "SMOKE FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("SMOKE OK")
		return
	}

	// Signals are caught before the address is printed, so whoever waits
	// for that line (traffic.sh) may send SIGTERM the moment it appears.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if *debugAddr != "" {
		// Loopback only: pprof's endpoints take no credentials.
		a, err := net.ResolveTCPAddr("tcp", *debugAddr)
		if err == nil && !a.IP.IsLoopback() {
			err = fmt.Errorf("%s is not a loopback address", *debugAddr)
		}
		var ln net.Listener
		if err == nil {
			ln, err = net.ListenTCP("tcp", a)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "debug-addr: %v\n", err)
			os.Exit(2)
		}
		go http.Serve(ln, nil) //nolint:errcheck // serves until the process exits
		fmt.Printf("mvpbt-server: pprof on http://%s/debug/pprof/\n", ln.Addr())
	}
	srv := server.New(r, cfg)
	bound, err := srv.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("mvpbt-server: %d shards on %s (admission=%s)\n", *shards, bound, *admission)

	failed := false
	select {
	case s := <-sig:
		fmt.Printf("mvpbt-server: %v, draining (up to %v)\n", s, *drainWait)
	case <-srv.Done(): // accepting failed; Stop reports why
		failed = true
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Stop(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if failed {
			os.Exit(1)
		}
	}
	m := srv.Metrics()
	fmt.Printf("mvpbt-server: done (admitted=%d rejected=%d queued=%d drained=%d)\n",
		m.Admitted, m.Rejected, m.Queued, m.Drained)
}

// runSmoke exercises the whole stack end to end: serve, run a client
// workload (autocommit, a checkpoint interval of log, an aborted and a
// committed cross-shard transaction, scan, stats), drain with sessions still
// connected, and verify the shutdown is clean and the drained commit durable.
func runSmoke(r *shard.Router, cfg server.Config) error {
	srv := server.New(r, cfg)
	bound, err := srv.Start()
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}

	c, err := shardclient.Dial(bound.String(), "smoke")
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	defer c.Close()

	// Autocommit write/read/delete across shards.
	for i := 0; i < 64; i++ {
		if err := c.Set(0, []byte(fmt.Sprintf("smoke-%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			return fmt.Errorf("set %d: %w", i, err)
		}
	}
	if v, ok, err := c.Get(0, []byte("smoke-001")); err != nil || !ok || string(v) != "v1" {
		return fmt.Errorf("get: %q %v %v", v, ok, err)
	}
	if err := c.Del(0, []byte("smoke-000")); err != nil {
		return fmt.Errorf("del: %w", err)
	}

	// One checkpoint interval of log into one shard, before any transaction
	// is held open (a checkpoint needs the engine quiescent): the commit that
	// crosses the interval must have checkpointed and truncated that log.
	big := make([]byte, 4<<10)
	ckptShard := r.ShardOf([]byte("ckpt-000000"))
	for i, wrote := 0, 0; wrote <= walCheckpointBytes; i++ {
		k := []byte(fmt.Sprintf("ckpt-%06d", i))
		if r.ShardOf(k) != ckptShard {
			continue
		}
		if err := c.Set(0, k, big); err != nil {
			return fmt.Errorf("checkpoint set %d: %w", i, err)
		}
		wrote += len(big)
	}
	if ck := r.Shard(ckptShard).Engine.CheckpointInfo(); ck.Count < 1 {
		return fmt.Errorf("shard %d after %d MiB of log: %+v, want a checkpoint", ckptShard, walCheckpointBytes>>20, ck)
	}

	// An aborted transaction leaves no trace.
	ghost, err := c.Begin()
	if err != nil {
		return fmt.Errorf("begin: %w", err)
	}
	if err := c.Set(ghost, []byte("ghost"), []byte("gv")); err != nil {
		return fmt.Errorf("tx set: %w", err)
	}
	if err := c.Del(ghost, []byte("smoke-002")); err != nil {
		return fmt.Errorf("tx del: %w", err)
	}
	if err := c.Abort(ghost); err != nil {
		return fmt.Errorf("abort: %w", err)
	}
	if _, ok, err := c.Get(0, []byte("ghost")); err != nil || ok {
		return fmt.Errorf("aborted write visible: %v %v", ok, err)
	}
	if v, ok, err := c.Get(0, []byte("smoke-002")); err != nil || !ok || string(v) != "v2" {
		return fmt.Errorf("aborted delete took effect: %q %v %v", v, ok, err)
	}

	// Cross-shard transaction committed during drain: it reads its own
	// uncommitted write and deletes a preloaded key.
	tx, err := c.Begin()
	if err != nil {
		return fmt.Errorf("begin: %w", err)
	}
	if err := c.Set(tx, []byte("pair-a"), []byte("pv")); err != nil {
		return fmt.Errorf("tx set: %w", err)
	}
	if err := c.Set(tx, []byte("pair-b"), []byte("pv")); err != nil {
		return fmt.Errorf("tx set: %w", err)
	}
	if v, ok, err := c.Get(tx, []byte("pair-a")); err != nil || !ok || string(v) != "pv" {
		return fmt.Errorf("tx get of its own write: %q %v %v", v, ok, err)
	}
	if err := c.Del(tx, []byte("smoke-001")); err != nil {
		return fmt.Errorf("tx del: %w", err)
	}

	// Scan in global order.
	kvs, err := c.Scan(0, []byte("smoke-"), 100)
	if err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	if len(kvs) != 63 {
		return fmt.Errorf("scan returned %d pairs, want 63", len(kvs))
	}
	for i := 1; i < len(kvs); i++ {
		if string(kvs[i-1].Key) >= string(kvs[i].Key) {
			return fmt.Errorf("scan out of order at %d", i)
		}
	}
	if st, err := c.Stats(); err != nil || st == "" {
		return fmt.Errorf("stats: %q %v", st, err)
	}

	// Twelve partition buffers of 1 KiB values per shard: each shard must have
	// evicted with bloom filters and merged back under the partition bound.
	val := make([]byte, 1<<10)
	for i := 12 * r.NumShards() * r.Shard(0).Engine.PBuf.Limit() / len(val); i > 0; i-- {
		if err := c.Set(0, []byte(fmt.Sprintf("bulk-%06d", i)), val); err != nil {
			return fmt.Errorf("bulk set %d: %w", i, err)
		}
	}
	for i := 0; i < r.NumShards(); i++ {
		tree := r.Shard(i).KV.Tree()
		if parts := tree.Partitions(); tree.Stats().Merges == 0 || len(parts) == 0 || len(parts) > kvOptions.MaxPartitions || parts[0].Filter == nil {
			return fmt.Errorf("shard %d after the bulk sets: %+v, %d partitions: want filters, and merges holding the partitions at %d",
				i, tree.Stats(), len(parts), kvOptions.MaxPartitions)
		}
	}

	// Drain while the transaction is open: the in-flight commit must
	// succeed and show on a second session admitted before the drain, new
	// sessions must be refused, and Serve must return nil.
	c2, err := shardclient.Dial(bound.String(), "smoke")
	if err != nil {
		return fmt.Errorf("second dial: %w", err)
	}
	defer c2.Close()
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainDone <- srv.Drain(ctx)
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := shardclient.DialTimeout(bound.String(), "late", 200*time.Millisecond); err == nil {
		return fmt.Errorf("new session admitted during drain")
	}
	if err := c.Commit(tx); err != nil {
		return fmt.Errorf("commit during drain: %w", err)
	}
	if v, ok, err := c2.Get(0, []byte("pair-b")); err != nil || !ok || string(v) != "pv" {
		return fmt.Errorf("committed write on a second session: %q %v %v", v, ok, err)
	}
	if _, ok, err := c2.Get(0, []byte("smoke-001")); err != nil || ok {
		return fmt.Errorf("committed delete on a second session: %v %v", ok, err)
	}
	c.Close()
	c2.Close()
	if err := <-drainDone; err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := srv.Stop(context.Background()); err != nil { // drained already: Serve's verdict
		return err
	}
	// The drained commit is durable in the router.
	for _, k := range []string{"pair-a", "pair-b"} {
		if v, ok, err := r.Get([]byte(k)); err != nil || !ok || string(v) != "pv" {
			return fmt.Errorf("drained commit lost for %s: %q %v %v", k, v, ok, err)
		}
	}
	m := srv.Metrics()
	if m.Admitted != 2 {
		return fmt.Errorf("metrics %+v, want exactly 2 admitted sessions", m)
	}
	return nil
}
