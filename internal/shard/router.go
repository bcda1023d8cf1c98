// Package shard partitions the keyspace across N fully independent
// db.Engine instances — each with its own WAL, heap, maintenance service,
// space governor and simulated device — and fronts them with a Router
// that hash-routes single-key operations and hands out consistent
// cross-shard read snapshots (DESIGN.md §12).
//
// The design follows the engine-per-core argument of Larson et al.: the
// single-node engine's write path funnels through per-engine locks and a
// per-engine log, so the way to more cores (and more users) is more
// engines, not more locks. MV-PBT's index-only visibility check is what
// keeps the per-shard read path cheap enough that a thin router on top
// adds almost nothing.
//
// Consistency model. Single-shard operations (the vast majority under
// hash partitioning) go straight to the owning engine's MVCC and commit
// through its existing — group-commit-enabled — durable path. Multi-shard
// reads take a SNAPSHOT VECTOR: one read transaction per shard, all begun
// under a short exclusive hold of the router's epoch barrier. Multi-shard
// writes (a Tx that touched several shards) commit all their per-shard
// transactions under a shared hold of the same barrier. The barrier
// therefore orders every snapshot acquisition entirely before or entirely
// after every multi-shard commit group, which is exactly the torn-cut
// freedom the snapshot test demands: a logical operation that commits
// K1@shard-A and K2@shard-B is observed by every snapshot as both-or-
// neither, never one-of-two. Per-shard MVCC makes the single-shard half
// of the argument: within one engine, Begin and Commit serialize on the
// transaction manager, so a single-shard commit is atomic with respect to
// any snapshot's per-shard begin timestamp.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"mvpbt/internal/buffer"
	"mvpbt/internal/db"
	"mvpbt/internal/index/mvpbt"
	"mvpbt/internal/ssd"
)

// Config describes a sharded deployment. The zero value of Engine is a
// usable default; db.Config's copy contract (pure value type) is what
// makes one Engine template safe to instantiate N times.
type Config struct {
	// Shards is the number of independent engines (default 1).
	Shards int
	// Engine templates every shard's db.Config. Each shard gets an
	// identical, fully independent copy.
	Engine db.Config
	// KVOptions tunes each shard's MV-PBT store (durable exactly when the
	// engine template enables the WAL).
	KVOptions db.MVPBTKVOptions
	// Supervise is ignored: every router runs the per-shard health state
	// machine and restarts a failed shard through recovery
	// (supervisor.go). The field stays for callers that still set it.
	Supervise bool
	// Supervisor holds the supervisor's test hooks.
	Supervisor SupervisorConfig
	// TwoPC installs crash-injection hooks into the two-phase commit
	// protocol (tests and the chaos check campaign only: every kind
	// installs them, and only chaos -kinds 2pc crashes anything).
	TwoPC TwoPCHooks
}

// TwoPCHooks are test seams in the multi-shard commit protocol: each hook,
// when set and returning an error, simulates a crash at that protocol step
// (tx.go threads them through commit2PC). Production deployments leave the
// zero value.
type TwoPCHooks struct {
	// BeforePrepare fires before shard's leg prepares; an error fails the
	// vote (the group aborts).
	BeforePrepare func(gid uint64, shard int) error
	// AfterPrepare fires after shard's leg durably voted YES; an error
	// simulates the participant crashing with an in-doubt leg.
	AfterPrepare func(gid uint64, shard int) error
	// BeforeDecide fires before the coordinator logs its decision; an error
	// simulates a coordinator crash (presumed abort).
	BeforeDecide func(gid uint64) error
	// AfterDecide fires after a commit decision is durable but before any
	// leg learns it; an error crashes every participant (all legs resolve
	// from the coordinator log after restart).
	AfterDecide func(gid uint64) error
	// BeforeForget fires before the group's decision is retired; an error
	// leaves the decision live in the coordinator log.
	BeforeForget func(gid uint64) error
}

// Shard is one partition: an engine plus its clustered MV-PBT KV store.
type Shard struct {
	// No is the shard's index in the router (also its hash bucket).
	No int
	// Dir is the shard's namespace, "shard-<No>": on the simulated device
	// the per-shard subdirectory of a real deployment. The shard's KV store
	// — and with it its WAL records and checkpoint rows — is keyed "<Dir>/kv".
	Dir string
	// Engine is the shard's private engine.
	Engine *db.Engine
	// KV is the shard's clustered MV-PBT key-value store.
	KV *db.MVPBTKV
}

// ShardError is the typed per-key error surface of the router: it names
// the shard and key an operation failed on, so one degraded shard shows
// up as per-key failures instead of poisoning the whole router. Unwrap
// exposes the underlying cause (db.ErrReadOnly, storage.ErrNoSpace, ...)
// to errors.Is/As.
type ShardError struct {
	Shard int
	Key   []byte
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %d: key %q: %v", e.Shard, e.Key, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// Router owns the shards and routes operations to them.
type Router struct {
	cfg    Config
	shards []*Shard
	health []*shardHealth // per-shard supervision state, indexed by shard
	sup    *supervisor    // failure detection and restarts, one per router
	coord  *coordLog      // 2PC coordinator log, on its own private device

	// epoch is the snapshot barrier. Multi-shard COMMIT groups hold it
	// shared for the duration of their per-shard commits; snapshot
	// acquisition holds it exclusively for the (cheap, in-memory) begins
	// across all shards. See the package comment for the argument.
	epoch sync.RWMutex

	// opGate is the close drain fence: every router operation holds it
	// shared for the duration of its engine calls, Close holds it
	// exclusively across shutdown. Paired with the closed flag (checked
	// under the shared hold) it guarantees no operation ever reaches an
	// engine that Close has started tearing down.
	opGate sync.RWMutex
	closed atomic.Bool

	// onShardScan, set by tests, sees each shard scan: shard, pairs asked.
	onShardScan func(shard, want int)
}

// New builds a router with cfg.Shards independent engines.
func New(cfg Config) (*Router, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	coord, err := newCoordLog()
	if err != nil {
		return nil, err
	}
	r := &Router{cfg: cfg, coord: coord}
	r.sup = &supervisor{r: r, cfg: cfg.Supervisor, stop: make(chan struct{})}
	for i := 0; i < cfg.Shards; i++ {
		eng := db.NewEngine(cfg.Engine)
		dir := fmt.Sprintf("shard-%d", i)
		kv, err := db.NewMVPBTKV(eng, dir+"/kv", cfg.KVOptions)
		if err != nil {
			eng.Close()
			r.Close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		r.shards = append(r.shards, &Shard{
			No:     i,
			Dir:    dir,
			Engine: eng,
			KV:     kv,
		})
		r.health = append(r.health, &shardHealth{})
	}
	return r, nil
}

// enter admits one router operation through the close fence. Every
// successful enter must be paired with exit once the operation's engine
// calls are done.
func (r *Router) enter() error {
	r.opGate.RLock()
	if r.closed.Load() {
		r.opGate.RUnlock()
		return ErrRouterClosed
	}
	return nil
}

func (r *Router) exit() { r.opGate.RUnlock() }

// acquire takes shard i's health gate shared and checks availability. The
// returned gate must be released after the engine call completes; it is
// nil when err is non-nil.
func (r *Router) acquire(i int) (*sync.RWMutex, error) {
	h := r.health[i]
	h.gate.RLock()
	if h.unavailable() {
		h.gate.RUnlock()
		return nil, ErrShardUnavailable
	}
	return &h.gate, nil
}

// Close shuts every shard engine down. Idempotent; returns the first
// error. New operations are refused with ErrRouterClosed the moment Close
// is called; Close then waits out every in-flight operation (the drain
// fence) before touching the engines, so a concurrent Get/Put/Scan/Commit
// either completes against live engines or is refused — it never races the
// teardown. Open Txs fail their later calls with ErrRouterClosed.
func (r *Router) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Stop restart goroutines first: they take shard gates, not the opGate,
	// so they must have finished or bailed before engines close.
	close(r.sup.stop)
	r.sup.wg.Wait()
	r.opGate.Lock()
	defer r.opGate.Unlock()
	var first error
	for _, s := range r.shards {
		if err := s.Engine.Close(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", s.No, err)
		}
	}
	return first
}

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// Shard returns shard i.
func (r *Router) Shard(i int) *Shard { return r.shards[i] }

// ShardOf maps a key to its owning shard (FNV-1a of the key mod N).
func (r *Router) ShardOf(key []byte) int {
	h := fnv.New64a()
	h.Write(key)
	return int(h.Sum64() % uint64(len(r.shards)))
}

// wrap converts a shard-local error into a typed per-key ShardError.
func wrap(shard int, key []byte, err error) error {
	if err == nil {
		return nil
	}
	return &ShardError{Shard: shard, Key: append([]byte(nil), key...), Err: err}
}

// routed is the one single-key operation, autocommit or inside a
// transaction: through the close fence to the shard that owns key, through
// that shard's gate — its health for the router's own operations (acquire),
// the leg's engine incarnation for a transaction's (Tx.leg) — then the engine
// call, whose outcome the supervisor observes and the caller gets as a
// ShardError naming shard and key.
func (r *Router) routed(key []byte, admit func(i int) (*sync.RWMutex, error), call func(i int) error) error {
	if err := r.enter(); err != nil {
		return err
	}
	defer r.exit()
	i := r.ShardOf(key)
	gate, err := admit(i)
	if err == nil {
		err = call(i)
		gate.RUnlock()
		r.sup.observe(i, err)
	}
	return wrap(i, key, err)
}

// Get reads the newest committed version of key (single-shard autocommit).
func (r *Router) Get(key []byte) ([]byte, bool, error) { return r.AppendGet(nil, key) }

// AppendGet is Get appending the value to dst, which it returns extended (or
// unchanged if key has no visible value).
func (r *Router) AppendGet(dst, key []byte) (v []byte, ok bool, err error) {
	v = dst
	err = r.routed(key, r.acquire, func(i int) (err error) {
		s := r.shards[i]
		tx := s.Engine.Begin()
		v, ok, err = s.KV.AppendGetTx(tx, dst, key)
		s.Engine.Commit(tx)
		return err
	})
	return v, ok, err
}

// Put upserts key (single-shard autocommit through the owning engine's
// durable commit path). A degraded shard returns a ShardError wrapping
// db.ErrReadOnly; a failed shard one wrapping ErrShardUnavailable; other
// shards are unaffected.
func (r *Router) Put(key, val []byte) error {
	return r.routed(key, r.acquire, func(i int) error { return r.shards[i].KV.Put(key, val) })
}

// Delete tombstones key (single-shard autocommit).
func (r *Router) Delete(key []byte) error {
	return r.routed(key, r.acquire, func(i int) error { return r.shards[i].KV.Delete(key) })
}

// Scan streams up to limit live pairs with key >= lo in global key order,
// merging the per-shard streams at one consistent snapshot.
func (r *Router) Scan(lo []byte, limit int, fn func(key, val []byte) bool) error {
	tx, err := r.Begin()
	if err != nil {
		return err
	}
	defer tx.Commit()
	return tx.Scan(lo, limit, fn)
}

// reachable calls fn on every shard that is not failed or recovering, each
// under its health gate: what a router-wide reading, or a transaction's
// begin, covers.
func (r *Router) reachable(fn func(i int, s *Shard)) {
	for i, s := range r.shards {
		if gate, err := r.acquire(i); err == nil {
			fn(i, s)
			gate.RUnlock()
		}
	}
}

// PastSoftWatermark reports whether any shard's live bytes have crossed
// its soft space watermark — the overload signal the server's admission
// control gates new sessions on.
func (r *Router) PastSoftWatermark() bool {
	past := false
	r.reachable(func(_ int, s *Shard) {
		sp := s.Engine.SpaceInfo()
		past = past || sp.Soft > 0 && sp.Live >= sp.Soft
	})
	return past
}

// Report is one snapshot of a deployment: every shard, and the coordinator
// log. The server's STATS reply is its JSON.
type Report struct {
	Shards      []ShardStats
	Coordinator CoordStats
}

// Report snapshots the deployment. A failed/recovering shard reports its
// health but skips the engine-derived fields (the engine is mid-swap).
func (r *Router) Report() Report {
	out := Report{Shards: make([]ShardStats, len(r.shards)), Coordinator: r.coord.stats()}
	for i, s := range r.shards {
		out.Shards[i] = ShardStats{Shard: s.No, Dir: s.Dir, Health: r.Health(i)}
	}
	r.reachable(func(i int, s *Shard) { out.Shards[i].Fill(s.Engine, s.KV.Tree()) })
	return out
}

// Fill sets st's engine-derived fields from eng and its MV-PBT tree: what
// Report shows of a reachable shard and mvpbt-inspect of its own engine.
func (st *ShardStats) Fill(eng *db.Engine, tree *mvpbt.Tree) {
	st.Space, st.WAL = eng.SpaceInfo(), eng.WALStatsSnapshot()
	st.Checkpoint, st.TwoPC = eng.CheckpointInfo(), eng.TwoPCInfo()
	st.KV, st.Partitions = tree.Stats(), tree.NumPartitions()
	st.Pool, st.Device = eng.Pool.IOStats(), eng.Dev.Stats()
}

// ShardStats is one shard's externally visible state.
type ShardStats struct {
	Shard int
	Dir   string
	Space db.SpaceStats
	WAL   db.WALStats
	// Checkpoint is the shard's log-checkpoint view; its Errors count is the
	// only trace a failed background checkpoint leaves.
	Checkpoint db.CheckpointStats
	TwoPC      db.TwoPCStats
	// KV is the counters of the shard's MV-PBT (filters, GC phases,
	// evictions, merges) and Partitions its persisted partition count.
	KV         mvpbt.Stats
	Partitions int
	// Pool is the buffer pool's device I/O (pages per read, checksum and
	// retry counts) and Device the simulated device's counters.
	Pool   buffer.IOStats
	Device ssd.Stats
	Health HealthInfo
}

// ErrRouterClosed is returned by operations that arrive at or after Close:
// the drain fence refuses them before they can touch a closing engine.
var ErrRouterClosed = errors.New("shard: router closed")

// ErrTxInDoubt reports a multi-shard commit whose COMMIT decision is
// durable in the coordinator log but whose legs could not all be resolved
// synchronously (a participant failed mid-protocol). The transaction WILL
// commit — restarting shards resolve their in-doubt legs from the
// coordinator log — the caller just cannot yet observe all of it. The
// server maps this to a distinct wire status so clients can confirm the
// outcome through their idempotent commit token.
var ErrTxInDoubt = errors.New("shard: transaction in doubt (commit decision durable, resolution pending)")

// CrashCoordinator simulates a coordinator crash and restart: the
// in-memory protocol state (inflight groups, unacknowledged legs) is lost
// and the coordinator log is rebuilt from its durable image, bumping the
// incarnation. Undecided groups vanish — presumed abort. Test/campaign
// use only.
func (r *Router) CrashCoordinator() { r.coord.crashRecover() }

// RouterTwoPCStats is what the chaos campaign waits on: the coordinator
// log, and the prepared-undecided transactions of the reachable shards.
type RouterTwoPCStats struct {
	Coordinator CoordStats
	InDoubt     int
}

// TwoPCInfo snapshots the router's commit-protocol health (the chaos
// campaign's quiescence check).
func (r *Router) TwoPCInfo() RouterTwoPCStats {
	out := RouterTwoPCStats{Coordinator: r.coord.stats()}
	if err := r.enter(); err != nil {
		return out
	}
	defer r.exit()
	r.reachable(func(_ int, s *Shard) { out.InDoubt += s.Engine.TwoPCInfo().InDoubt })
	return out
}
