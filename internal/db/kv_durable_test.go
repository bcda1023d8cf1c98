package db

import (
	"fmt"
	"maps"
	"testing"
)

// newDurableKV builds a WAL-enabled engine with one durable MV-PBT KV
// store (the per-shard configuration the shard router instantiates).
func newDurableKV(t *testing.T) (*Engine, *MVPBTKV) {
	t.Helper()
	e := NewEngine(Config{
		BufferPages:          256,
		PartitionBufferBytes: 64 << 10,
		EnableWAL:            true,
	})
	kv, err := NewMVPBTKV(e, "kv", MVPBTKVOptions{})
	if err != nil {
		e.Close()
		t.Fatal(err)
	}
	return e, kv
}

// TestDurableKVRecovery writes and deletes through a durable KV store,
// then replays the surviving log image into a fresh engine and checks the
// recovered state matches — including deletes and overwrites.
func TestDurableKVRecovery(t *testing.T) {
	e, kv := newDurableKV(t)
	defer e.Close()

	const n = 300
	for i := 0; i < n; i++ {
		if err := kv.Put(kvKey(i), []byte(fmt.Sprintf("v0-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 3 {
		if err := kv.Delete(kvKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i += 3 {
		if err := kv.Put(kvKey(i), []byte(fmt.Sprintf("v1-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if ws := e.WALStatsSnapshot(); ws.Commits == 0 {
		t.Fatal("durable KV commits never reached the WAL")
	}

	img := e.LogImage()
	e2, kv2 := newDurableKV(t)
	defer e2.Close()
	applied, err := e2.Recover(img)
	if err != nil {
		t.Fatalf("recover: %v (applied %d)", err, applied)
	}
	verifyKVState(t, kv2, n)
}

// TestDurableKVCheckpointRecovery checkpoints mid-history (truncating the
// log to a KV snapshot generation), keeps writing, and recovers from the
// authoritative generation.
func TestDurableKVCheckpointRecovery(t *testing.T) {
	e, kv := newDurableKV(t)
	defer e.Close()

	const n = 300
	for i := 0; i < n; i++ {
		if err := kv.Put(kvKey(i), []byte(fmt.Sprintf("v0-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 3 {
		if err := kv.Delete(kvKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if ck := e.CheckpointInfo(); ck.Count != 1 {
		t.Fatalf("checkpoint did not complete: %+v", ck)
	}
	// Post-checkpoint history lands in the new generation.
	for i := 1; i < n; i += 3 {
		if err := kv.Put(kvKey(i), []byte(fmt.Sprintf("v1-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	img := e.LogImage()
	e2, kv2 := newDurableKV(t)
	defer e2.Close()
	if _, err := e2.Recover(img); err != nil {
		t.Fatalf("recover: %v", err)
	}
	verifyKVState(t, kv2, n)
}

func kvKey(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }

// verifyKVState checks the i%3 pattern the tests above write: i%3==0
// deleted, i%3==1 overwritten with v1, i%3==2 still v0.
func verifyKVState(t *testing.T, kv *MVPBTKV, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		v, ok, err := kv.Get(kvKey(i))
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		switch i % 3 {
		case 0:
			if ok {
				t.Fatalf("key %d: deleted key resurfaced with %q", i, v)
			}
		case 1:
			if want := fmt.Sprintf("v1-%d", i); !ok || string(v) != want {
				t.Fatalf("key %d: got %q/%v want %q", i, v, ok, want)
			}
		case 2:
			if want := fmt.Sprintf("v0-%d", i); !ok || string(v) != want {
				t.Fatalf("key %d: got %q/%v want %q", i, v, ok, want)
			}
		}
	}
}

// TestOlderWriterAfterDeleteWins holds the durable KV store to DESIGN.md
// §12's rule, the write inserted last wins: a transaction that began before
// a Put and a Delete of its key puts the key after both and commits. Get and
// Scan return its value whether or not P_N was evicted between the delete
// and its write, and again after a crash and a replay of the log (which
// gives the writer the newest timestamp).
func TestOlderWriterAfterDeleteWins(t *testing.T) {
	for _, evict := range []bool{false, true} {
		t.Run(fmt.Sprintf("evict=%v", evict), func(t *testing.T) {
			e, kv := newDurableKV(t)
			defer e.Close()
			key := kvKey(7)
			old := e.Begin()
			if err := kv.Put(key, []byte("a")); err != nil {
				t.Fatal(err)
			}
			if err := kv.Delete(key); err != nil {
				t.Fatal(err)
			}
			if evict {
				if err := kv.Tree().EvictPN(); err != nil {
					t.Fatal(err)
				}
			}
			if err := kv.PutTx(old, key, []byte("b")); err != nil {
				t.Fatal(err)
			}
			if err := e.CommitDurable(old); err != nil {
				t.Fatal(err)
			}
			readsB := func(kv *MVPBTKV, when string) {
				t.Helper()
				v, ok, err := kv.Get(key)
				if err != nil || !ok || string(v) != "b" {
					t.Fatalf("%s: Get = %q, %v, %v; want b", when, v, ok, err)
				}
				var pairs []string
				if err := kv.Scan(nil, 10, func(k, v []byte) bool {
					pairs = append(pairs, string(k)+"="+string(v))
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if want := string(key) + "=b"; len(pairs) != 1 || pairs[0] != want {
					t.Fatalf("%s: Scan = %v; want [%s]", when, pairs, want)
				}
			}
			readsB(kv, "before the crash")
			img := e.LogImage()
			e.Crash()
			e2, kv2 := newDurableKV(t)
			defer e2.Close()
			if _, err := e2.Recover(img); err != nil {
				t.Fatal(err)
			}
			readsB(kv2, "after recovery")
		})
	}
}

// kvRows reads every live pair of kv.
func kvRows(t *testing.T, kv *MVPBTKV) map[string]string {
	t.Helper()
	rows := map[string]string{}
	if err := kv.Scan(nil, 1<<30, func(k, v []byte) bool {
		rows[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// recoverKV crashes e and recovers its log image into a fresh engine.
func recoverKV(t *testing.T, e *Engine) (*Engine, *MVPBTKV) {
	t.Helper()
	img := e.LogImage()
	e.Crash()
	e2, kv2 := newDurableKV(t)
	if _, err := e2.Recover(img); err != nil {
		e2.Close()
		t.Fatalf("recover: %v", err)
	}
	return e2, kv2
}

// TestRecoverLoadsOnePartition: recovery folds the checkpoint rows and the
// committed tail into each key's last write and builds the KV store as one
// partition. After the checkpoint the history overwrites a checkpointed key,
// deletes one, deletes and reinserts one, and writes one key twice. A
// second crash with no write in between recovers the same rows, again as
// one partition: the closing checkpoint made the new log self-contained.
func TestRecoverLoadsOnePartition(t *testing.T) {
	e, kv := newDurableKV(t)
	model := map[string]string{}
	put := func(i int, v string) {
		t.Helper()
		val := fmt.Sprintf("%s-%d-%0200d", v, i, 0)
		if err := kv.Put(kvKey(i), []byte(val)); err != nil {
			t.Fatal(err)
		}
		model[string(kvKey(i))] = val
	}
	del := func(i int) {
		t.Helper()
		if err := kv.Delete(kvKey(i)); err != nil {
			t.Fatal(err)
		}
		delete(model, string(kvKey(i)))
	}
	for i := 0; i < 600; i++ {
		put(i, "v0")
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	put(10, "over")
	del(20)
	del(30)
	put(30, "again")
	put(700, "new")
	put(700, "twice")
	if kv.Tree().NumPartitions() < 2 {
		t.Fatalf("the history left %d partitions, want several", kv.Tree().NumPartitions())
	}
	for round := 1; round <= 2; round++ {
		e, kv = recoverKV(t, e)
		if got := kvRows(t, kv); !maps.Equal(got, model) {
			t.Fatalf("recovery %d: %d rows, model %d (key 10 %.8q, 20 %v, 30 %.8q, 700 %.8q)", round, len(got), len(model),
				got[string(kvKey(10))], got[string(kvKey(20))] != "", got[string(kvKey(30))], got[string(kvKey(700))])
		}
		if n := kv.Tree().NumPartitions(); n != 1 || kv.Tree().PNBytes() != 0 {
			t.Fatalf("recovery %d: %d partitions and %d P_N bytes, want one partition", round, n, kv.Tree().PNBytes())
		}
	}
	e.Close()
}

// TestRecoverInDoubtLegsKeepWriteOrder: leg A writes k before a committed
// overwrite of k, leg B after it, and both stay in doubt across a crash.
// Recovery drops A's write of k (the committed one followed it, so it can
// never win) and keeps B's. Each leg resolves to commit: k reads the
// committed value after A, B's after B, and A's other write is visible.
func TestRecoverInDoubtLegsKeepWriteOrder(t *testing.T) {
	e, kv := newDurableKV(t)
	k, k2 := kvKey(1), kvKey(2)
	leg := func(gid uint64, writes ...[]byte) {
		t.Helper()
		tx := e.Begin()
		for i := 0; i < len(writes); i += 2 {
			if err := kv.PutTx(tx, writes[i], writes[i+1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.PrepareDurable(tx, gid); err != nil {
			t.Fatal(err)
		}
	}
	leg(1, k, []byte("a"), k2, []byte("a2"))
	if err := kv.Put(k, []byte("c")); err != nil {
		t.Fatal(err)
	}
	leg(2, k, []byte("b"))
	e2, kv2 := recoverKV(t, e)
	defer e2.Close()
	if n := len(e2.InDoubtList()); n != 2 {
		t.Fatalf("%d legs in doubt after recovery, want 2", n)
	}
	for _, step := range []struct {
		gid   uint64
		k, k2 string
	}{{0, "c", ""}, {1, "c", "a2"}, {2, "b", "a2"}} {
		if step.gid != 0 {
			if n, err := e2.ResolveGroup(step.gid, true); err != nil || n != 1 {
				t.Fatalf("ResolveGroup(%d) = %d, %v", step.gid, n, err)
			}
		}
		if got := kvRows(t, kv2); got[string(k)] != step.k || got[string(k2)] != step.k2 {
			t.Fatalf("after resolving group %d: k=%q k2=%q, want %q and %q", step.gid, got[string(k)], got[string(k2)], step.k, step.k2)
		}
	}
}
