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

// newRouter builds the served deployment: shards engines of pbuf partition
// buffer bytes and capacity device bytes each, in the one configuration the
// server ships (kvOptions, walCheckpointBytes, a WAL flushed per commit).
func newRouter(shards, pbuf int, capacity int64) (*shard.Router, error) {
	return shard.New(shard.Config{
		Shards: shards,
		Engine: db.Config{
			BufferPages:          1024,
			PartitionBufferBytes: pbuf,
			EnableWAL:            true,
			DeviceCapacityBytes:  capacity,
			WALCheckpointBytes:   walCheckpointBytes,
		},
		KVOptions: kvOptions,
	})
}

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7878", "TCP listen address")
		shards       = flag.Int("shards", 4, "number of independent engine shards")
		capacity     = flag.Int64("capacity", 256<<20, "per-shard device capacity budget in bytes (0 = unbounded)")
		pbuf         = flag.Int("pbuf", 256<<10, "per-shard partition buffer bytes")
		queueTimeout = flag.Duration("queue-timeout", 0, "how long a session waits for admission under overload (0 = refuse at once)")
		maxSessions  = flag.Int("max-sessions", 256, "global concurrent session cap")
		maxPerTenant = flag.Int("max-per-tenant", 64, "per-tenant concurrent session cap")
		drainWait    = flag.Duration("drain-wait", 10*time.Second, "how long shutdown waits for sessions to finish")
		idleTimeout  = flag.Duration("idle-timeout", 5*time.Minute, "reap sessions idle this long (0 = default, <0 = never)")
		debugAddr    = flag.String("debug-addr", "", "loopback address to serve net/http/pprof on (empty = off)")
	)
	flag.Parse()

	r, err := newRouter(*shards, *pbuf, *capacity)
	if err != nil {
		fmt.Fprintf(os.Stderr, "router: %v\n", err)
		os.Exit(1)
	}
	defer r.Close()

	cfg := server.Config{
		Addr:                 *addr,
		MaxSessions:          *maxSessions,
		MaxSessionsPerTenant: *maxPerTenant,
		QueueTimeout:         *queueTimeout,
		IdleTimeout:          *idleTimeout,
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
	fmt.Printf("mvpbt-server: %d shards on %s (queue-timeout=%v)\n", *shards, bound, *queueTimeout)

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
