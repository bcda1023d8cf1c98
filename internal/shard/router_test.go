package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"mvpbt/internal/db"
	"mvpbt/internal/index/part"
	"mvpbt/internal/ssd"
	"mvpbt/internal/util"
)

func newRouter(t *testing.T, shards int) *Router {
	t.Helper()
	r, err := New(Config{
		Shards: shards,
		Engine: db.Config{
			BufferPages:          256,
			PartitionBufferBytes: 64 << 10,
			EnableWAL:            true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// keyOnShard probes for a key owned by the given shard.
func keyOnShard(t *testing.T, r *Router, shard int, tag string) []byte {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := []byte(fmt.Sprintf("%s-%04d", tag, i))
		if r.ShardOf(k) == shard {
			return k
		}
	}
	t.Fatalf("no key found for shard %d", shard)
	return nil
}

func TestRouterBasicOps(t *testing.T) {
	r := newRouter(t, 4)
	const n = 400
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		if err := r.Put(k, []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		v, ok, err := r.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("get %s: %q %v %v", k, v, ok, err)
		}
	}
	// Deletes and misses.
	if err := r.Delete([]byte("key-00000")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := r.Get([]byte("key-00000")); ok {
		t.Fatal("deleted key still visible")
	}
	if _, ok, _ := r.Get([]byte("never-written")); ok {
		t.Fatal("phantom key")
	}
}

// TestRouterDistribution checks hash partitioning actually spreads keys:
// with 4 shards and 2000 keys every shard must own a substantial fraction.
func TestRouterDistribution(t *testing.T) {
	r := newRouter(t, 4)
	counts := make([]int, 4)
	for i := 0; i < 2000; i++ {
		counts[r.ShardOf([]byte(fmt.Sprintf("key-%05d", i)))]++
	}
	for i, c := range counts {
		if c < 300 {
			t.Fatalf("shard %d owns only %d/2000 keys: %v", i, c, counts)
		}
	}
}

// TestRouterScanMergesGlobalOrder writes across all shards and checks a
// router scan returns the global key order with correct pagination.
func TestRouterScanMergesGlobalOrder(t *testing.T) {
	r := newRouter(t, 4)
	const n = 300
	want := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%05d", i)
		want = append(want, k)
		if err := r.Put([]byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(want)

	var got []string
	if err := r.Scan([]byte("key-"), n, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("scan returned %d keys, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scan order broke at %d: got %s want %s", i, got[i], want[i])
		}
	}

	// Pagination from a mid-key with a limit.
	var page []string
	if err := r.Scan([]byte(want[100]), 50, func(k, v []byte) bool {
		page = append(page, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(page) != 50 || page[0] != want[100] || page[49] != want[149] {
		t.Fatalf("paged scan wrong: %d keys, first %s last %s", len(page), page[0], page[len(page)-1])
	}
}

// TestTxReadYourWrites: a multi-shard transaction sees its own uncommitted
// writes across shards; others do not until commit.
func TestTxReadYourWrites(t *testing.T) {
	r := newRouter(t, 4)
	ka := keyOnShard(t, r, 0, "a")
	kb := keyOnShard(t, r, 1, "b")

	tx, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(ka, []byte("va")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(kb, []byte("vb")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := tx.AppendGet(nil, ka); !ok || string(v) != "va" {
		t.Fatalf("tx does not see its own write: %q %v", v, ok)
	}
	if _, ok, _ := r.Get(ka); ok {
		t.Fatal("uncommitted write visible to autocommit reader")
	}
	other, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := other.AppendGet(nil, kb); ok {
		t.Fatal("uncommitted write visible to concurrent snapshot")
	}
	other.Commit()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := r.Get(ka); !ok || string(v) != "va" {
		t.Fatalf("committed write lost: %q %v", v, ok)
	}
	if v, ok, _ := r.Get(kb); !ok || string(v) != "vb" {
		t.Fatalf("committed write lost: %q %v", v, ok)
	}
}

// TestTxAbortDiscards: aborted multi-shard writes never surface.
func TestTxAbortDiscards(t *testing.T) {
	r := newRouter(t, 2)
	ka := keyOnShard(t, r, 0, "a")
	kb := keyOnShard(t, r, 1, "b")
	tx, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(ka, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(kb, []byte("y")); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if _, ok, _ := r.Get(ka); ok {
		t.Fatal("aborted write visible")
	}
	if _, ok, _ := r.Get(kb); ok {
		t.Fatal("aborted write visible")
	}
}

// TestSnapshotVector: timestamps come from independent per-shard id
// spaces, one per shard.
func TestSnapshotVector(t *testing.T) {
	r := newRouter(t, 3)
	tx, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Commit()
	if len(tx.legs) != 3 {
		t.Fatalf("snapshot vector has %d entries, want 3", len(tx.legs))
	}
	for i, leg := range tx.legs {
		if leg.tx == nil || leg.tx.ID == 0 {
			t.Fatalf("shard %d has no begin timestamp", i)
		}
	}
}

// TestDegradedShardTypedErrors: a read-only shard fails its own keys with
// a typed per-key ShardError and leaves every other shard fully usable —
// degraded state must not poison the router.
func TestDegradedShardTypedErrors(t *testing.T) {
	r := newRouter(t, 4)
	const degraded = 2
	kd := keyOnShard(t, r, degraded, "deg")
	kh := keyOnShard(t, r, (degraded+1)%4, "ok")

	if err := r.Put(kd, []byte("before")); err != nil {
		t.Fatal(err)
	}
	r.Shard(degraded).Engine.ForceReadOnly(true)

	// Autocommit write to the degraded shard: typed, per-key.
	err := r.Put(kd, []byte("after"))
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("degraded put returned %v, want *ShardError", err)
	}
	if se.Shard != degraded || !bytes.Equal(se.Key, kd) {
		t.Fatalf("ShardError names shard %d key %q, want %d %q", se.Shard, se.Key, degraded, kd)
	}
	if !errors.Is(err, db.ErrReadOnly) {
		t.Fatalf("ShardError does not unwrap to db.ErrReadOnly: %v", err)
	}

	// Reads on the degraded shard keep working (old value intact).
	if v, ok, err := r.Get(kd); err != nil || !ok || string(v) != "before" {
		t.Fatalf("degraded shard read broken: %q %v %v", v, ok, err)
	}
	// Other shards unaffected.
	if err := r.Put(kh, []byte("fine")); err != nil {
		t.Fatalf("healthy shard poisoned: %v", err)
	}
	// Multi-shard transaction: the degraded leg fails per-key, the caller
	// aborts, and nothing from the transaction surfaces anywhere.
	tx, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(kh, []byte("tx-h")); err != nil {
		t.Fatalf("healthy leg rejected: %v", err)
	}
	if err := tx.Put(kd, []byte("tx-d")); !errors.Is(err, db.ErrReadOnly) {
		t.Fatalf("degraded leg error: %v, want db.ErrReadOnly", err)
	}
	tx.Abort()
	if v, _, _ := r.Get(kh); string(v) == "tx-h" {
		t.Fatal("aborted healthy leg leaked")
	}

	// Only the degraded shard reports read-only, and recovery restores
	// writes.
	for i, st := range r.Report().Shards {
		if st.Space.ReadOnly != (i == degraded) {
			t.Fatalf("shard %d: Space.ReadOnly = %v, degraded shard is %d", i, st.Space.ReadOnly, degraded)
		}
	}
	r.Shard(degraded).Engine.ForceReadOnly(false)
	if err := r.Put(kd, []byte("healed")); err != nil {
		t.Fatalf("restored shard rejects writes: %v", err)
	}
}

// TestRouterCloseIdempotent: Close twice, then operations on a new router
// still work (engines are independent).
func TestRouterCloseIdempotent(t *testing.T) {
	r := newRouter(t, 2)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Begin(); !errors.Is(err, ErrRouterClosed) {
		t.Fatalf("Begin on closed router: %v, want ErrRouterClosed", err)
	}
}

// TestRouterStats: the report's per-shard stats carry the per-shard
// namespaces.
func TestRouterStats(t *testing.T) {
	r := newRouter(t, 2)
	k0 := keyOnShard(t, r, 0, "s")
	for i := 0; i < 10; i++ {
		if err := r.Put(append(k0, byte('0'+i)), []byte("v")); err != nil && r.ShardOf(append(k0, byte('0'+i))) == 0 {
			t.Fatal(err)
		}
	}
	st := r.Report().Shards
	if len(st) != 2 {
		t.Fatalf("stats for %d shards, want 2", len(st))
	}
	if st[0].Dir != "shard-0" || st[1].Dir != "shard-1" {
		t.Fatalf("shard dirs %q %q", st[0].Dir, st[1].Dir)
	}
}

// TestDeviceWritesByCause: durable KV puts through evictions, merges and one
// checkpoint book every device write to its cause. In the report's device
// stats the causes sum exactly to the writes, bytes and write time, none
// is left to other, and each cause the puts exercise has writes: the WAL,
// the checkpoint, evictions and merges. The commits after the checkpoint
// flush to the WAL, not to the checkpoint's generation.
func TestDeviceWritesByCause(t *testing.T) {
	r, err := New(Config{
		Shards:    1,
		Engine:    db.Config{BufferPages: 256, PartitionBufferBytes: 64 << 10, EnableWAL: true},
		KVOptions: db.MVPBTKVOptions{BloomBits: 10, MaxPartitions: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	val := make([]byte, 1<<10)
	var atCkpt [ssd.NumCauses]ssd.CauseStats
	for i := 0; i < 1500; i++ {
		if err := r.Put([]byte(fmt.Sprintf("k%04d", i%600)), val); err != nil {
			t.Fatal(err)
		}
		if i == 1000 {
			if err := r.Shard(0).Engine.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			atCkpt = r.Report().Shards[0].Device.Written
		}
	}
	st := r.Report().Shards[0]
	if st.Checkpoint.Count != 1 || st.KV.Evictions == 0 || st.KV.Merges == 0 {
		t.Fatalf("%d checkpoints, %d evictions, %d merges: want 1 and some of each", st.Checkpoint.Count, st.KV.Evictions, st.KV.Merges)
	}
	d := st.Device
	var sum ssd.CauseStats
	for _, w := range d.Written {
		sum.Ops, sum.Bytes, sum.Time = sum.Ops+w.Ops, sum.Bytes+w.Bytes, sum.Time+w.Time
	}
	if sum != (ssd.CauseStats{Ops: d.Writes, Bytes: d.BytesWritten, Time: d.WriteTime}) {
		t.Fatalf("causes sum to %+v, the device wrote %d ops, %d bytes in %v", sum, d.Writes, d.BytesWritten, d.WriteTime)
	}
	if d.Written[ssd.CauseOther] != (ssd.CauseStats{}) {
		t.Fatalf("other: %+v, want none", d.Written[ssd.CauseOther])
	}
	for _, c := range []ssd.Cause{ssd.CauseWAL, ssd.CauseCheckpoint, ssd.CauseEvict, ssd.CauseMerge} {
		if d.Written[c].Bytes == 0 {
			t.Fatalf("cause %d wrote nothing: %+v", c, d.Written)
		}
	}
	if d.Written[ssd.CauseCheckpoint] != atCkpt[ssd.CauseCheckpoint] || d.Written[ssd.CauseWAL].Ops <= atCkpt[ssd.CauseWAL].Ops {
		t.Fatalf("after the checkpoint: WAL %+v → %+v, checkpoint %+v → %+v; want WAL writes alone",
			atCkpt[ssd.CauseWAL], d.Written[ssd.CauseWAL], atCkpt[ssd.CauseCheckpoint], d.Written[ssd.CauseCheckpoint])
	}
}

// TestScanAsksEachShardItsShare: a SCAN(50) over two shards asks each for
// ⌈50/2⌉ + ⌈√50⌉ = 33 pairs, and asks a shard again — once, for the pairs
// still missing — only when its share ran dry.
func TestScanAsksEachShardItsShare(t *testing.T) {
	r := newRouter(t, 2)
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("k%04d", i))
		if err := r.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	// 60 keys past every other, all on shard 0.
	for i, n := 0, 0; n < 60; i++ {
		if k := []byte(fmt.Sprintf("~%04d", i)); r.ShardOf(k) == 0 {
			if err := r.Put(k, k); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	type ask struct{ shard, want int }
	var asks []ask
	r.onShardScan = func(shard, want int) { asks = append(asks, ask{shard, want}) }
	for _, c := range []struct {
		lo   string
		want []ask
	}{
		{"k0400", []ask{{0, 33}, {1, 33}}},
		{"~", []ask{{0, 33}, {1, 33}, {0, 17}}},
	} {
		asks = asks[:0]
		n := 0
		if err := r.Scan([]byte(c.lo), 50, func(k, v []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 50 || !slices.Equal(asks, c.want) {
			t.Errorf("SCAN(50) from %q: %d pairs, shard scans %v; want 50 pairs, %v", c.lo, n, asks, c.want)
		}
	}
}

// TestScanPropertyVsSingleShardOracle is the k-way-merge property test:
// for random shard counts and random key sets (with overwrites and
// deletes), a cross-shard scan must yield a globally sorted,
// duplicate-free stream identical to the same history played into a
// single-shard router — the oracle whose "merge" is trivially correct.
// Everything derives from the seed, so a failure names its repro.
func TestScanPropertyVsSingleShardOracle(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := util.NewRand(seed)
			shards := 2 + rng.Intn(6) // 2..7
			r := newRouter(t, shards)
			oracle := newRouter(t, 1)

			// Random history: puts (with overwrites, random-length keys and
			// values) and occasional deletes, applied to both routers.
			keyspace := 50 + rng.Intn(400)
			ops := 400 + rng.Intn(800)
			mkKey := func() []byte {
				k := make([]byte, 1+rng.Intn(24))
				rng.Letters(k)
				// A shared prefix for a fraction of keys exercises merge
				// runs landing on the same shard stream back to back.
				if rng.Intn(3) == 0 {
					return append([]byte("common-"), k...)
				}
				return k
			}
			keys := make([][]byte, keyspace)
			for i := range keys {
				keys[i] = mkKey()
			}
			for i := 0; i < ops; i++ {
				k := keys[rng.Intn(keyspace)]
				if rng.Intn(5) == 0 {
					if err := r.Delete(k); err != nil {
						t.Fatal(err)
					}
					if err := oracle.Delete(k); err != nil {
						t.Fatal(err)
					}
					continue
				}
				v := make([]byte, 1+rng.Intn(80))
				rng.Letters(v)
				if err := r.Put(k, v); err != nil {
					t.Fatal(err)
				}
				if err := oracle.Put(k, v); err != nil {
					t.Fatal(err)
				}
			}

			collect := func(rt *Router, lo []byte, limit int) (ks, vs []string) {
				err := rt.Scan(lo, limit, func(k, v []byte) bool {
					ks = append(ks, string(k))
					vs = append(vs, string(v))
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
				return ks, vs
			}

			// A tail of the key space on one shard: a scan from its start
			// drains that shard's share and must ask it for the rest.
			tail := 40 + rng.Intn(40)
			for i, owner := 0, rng.Intn(shards); tail > 0; i++ {
				k := []byte(fmt.Sprintf("~%05d", i))
				if r.ShardOf(k) != owner {
					continue
				}
				for _, rt := range []*Router{r, oracle} {
					if err := rt.Put(k, k); err != nil {
						t.Fatal(err)
					}
				}
				tail--
			}

			// Full scan plus random windows (random lo, random limit), and
			// the windows at the edges of the per-shard share: the tail,
			// limit 1, a limit below the shard count, the wire's largest.
			type window struct {
				lo    []byte
				limit int
			}
			windows := []window{{nil, 1 << 30}, {[]byte("~"), 1 << 30}, {[]byte("~"), 41}, {[]byte("~0"), 80}}
			for i := 0; i < 8; i++ {
				windows = append(windows, window{keys[rng.Intn(keyspace)], 1 + rng.Intn(keyspace)})
			}
			for i := 0; i < 2; i++ {
				windows = append(windows,
					window{keys[rng.Intn(keyspace)], 1},
					window{keys[rng.Intn(keyspace)], 1 + rng.Intn(shards-1)},
					window{keys[rng.Intn(keyspace)], math.MaxInt32})
			}
			for _, w := range windows {
				gotK, gotV := collect(r, w.lo, w.limit)
				wantK, wantV := collect(oracle, w.lo, w.limit)
				if len(gotK) != len(wantK) {
					t.Fatalf("shards=%d lo=%q limit=%d: %d keys, oracle %d",
						shards, w.lo, w.limit, len(gotK), len(wantK))
				}
				for i := range gotK {
					if gotK[i] != wantK[i] || gotV[i] != wantV[i] {
						t.Fatalf("shards=%d lo=%q limit=%d: row %d = (%q,%q), oracle (%q,%q)",
							shards, w.lo, w.limit, i, gotK[i], gotV[i], wantK[i], wantV[i])
					}
					if i > 0 && gotK[i] <= gotK[i-1] {
						t.Fatalf("shards=%d: stream not strictly sorted at %d: %q after %q",
							shards, i, gotK[i], gotK[i-1])
					}
				}
			}
		})
	}
}

// TestOversizedEntryRefused: a SET whose key and value no partition leaf
// holds fails with part.ErrEntryTooLarge before it enters P_N or the log,
// so every eviction after it still succeeds and so does every small SET.
func TestOversizedEntryRefused(t *testing.T) {
	r := newRouter(t, 1)
	if err := r.Put([]byte("huge"), make([]byte, 9000)); !errors.Is(err, part.ErrEntryTooLarge) {
		t.Fatalf("oversized Put = %v, want part.ErrEntryTooLarge", err)
	}
	val := make([]byte, 100)
	for i := 0; i < 2000; i++ {
		if err := r.Put([]byte(fmt.Sprintf("k%05d", i)), val); err != nil {
			t.Fatalf("Put %d after the refused entry: %v", i, err)
		}
	}
	if n := r.Shard(0).KV.Tree().Stats().Evictions; n == 0 {
		t.Fatal("no eviction ran after the refused entry")
	}
	if _, ok, err := r.Get([]byte("huge")); ok || err != nil {
		t.Fatalf("refused key: found=%v err=%v", ok, err)
	}
}

// TestWriteAfterEvictedDeleteReadsAlike: a transaction that began before a
// key's autocommitted DEL writes the key after the DEL was evicted, and
// commits. The transaction's write is the later one, so GET and SCAN both
// return it, and still do after the next eviction.
func TestWriteAfterEvictedDeleteReadsAlike(t *testing.T) {
	r := newRouter(t, 1)
	tree := r.Shard(0).KV.Tree()
	key := []byte("k")
	evict := func() {
		t.Helper()
		if err := tree.EvictPN(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Put(key, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	evict()
	tx, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(key); err != nil {
		t.Fatal(err)
	}
	evict()
	if err := tx.Put(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	reads := func(when string) {
		t.Helper()
		v, ok, err := r.Get(key)
		if err != nil || !ok || string(v) != "v1" {
			t.Fatalf("%s: GET = %q found=%v err=%v, want v1", when, v, ok, err)
		}
		var got []string
		if err := r.Scan(nil, 10, func(k, v []byte) bool {
			got = append(got, string(k)+"="+string(v))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != "[k=v1]" {
			t.Fatalf("%s: SCAN = %v, want [k=v1]", when, got)
		}
	}
	reads("before the eviction")
	evict()
	reads("after the eviction")
}
