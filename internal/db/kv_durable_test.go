package db

import (
	"fmt"
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
