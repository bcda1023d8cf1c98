package ycsb

import (
	"testing"

	"mvpbt/internal/db"
	"mvpbt/internal/index/lsm"
)

func kvs(t *testing.T) map[string]db.KV {
	t.Helper()
	out := map[string]db.KV{}
	eb := db.NewEngine(db.Config{BufferPages: 2048})
	bt, err := db.NewBTreeKV(eb, "bt")
	if err != nil {
		t.Fatal(err)
	}
	out["btree"] = bt
	el := db.NewEngine(db.Config{BufferPages: 2048})
	out["lsm"] = db.NewLSMKV(el, "lsm", lsm.Options{MemtableBytes: 64 << 10})
	em := db.NewEngine(db.Config{BufferPages: 2048, PartitionBufferBytes: 256 << 10})
	mv, err := db.NewMVPBTKV(em, "mv", db.MVPBTKVOptions{BloomBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	out["mvpbt"] = mv
	return out
}

func TestLoadThenAllWorkloads(t *testing.T) {
	for name, kv := range kvs(t) {
		t.Run(name, func(t *testing.T) {
			y := NewRunner(kv, Config{Records: 500, ValueLen: 64, Seed: 3})
			if err := y.Load(); err != nil {
				t.Fatal(err)
			}
			for _, w := range []Workload{WorkloadA, WorkloadB, WorkloadD, WorkloadE} {
				if err := y.Run(w, 300); err != nil {
					t.Fatalf("workload %c: %v", w, err)
				}
			}
			if y.Reads == 0 || y.Updates == 0 || y.Inserts == 0 || y.Scans == 0 {
				t.Fatalf("op mix incomplete: %+v", y)
			}
		})
	}
}

func TestWorkloadMixRatios(t *testing.T) {
	kv := kvs(t)["lsm"]
	y := NewRunner(kv, Config{Records: 200, ValueLen: 32, Seed: 4})
	if err := y.Load(); err != nil {
		t.Fatal(err)
	}
	if err := y.Run(WorkloadB, 2000); err != nil {
		t.Fatal(err)
	}
	// B is 95/5 read/update.
	if y.Reads < 1800 || y.Updates > 200 {
		t.Fatalf("workload B ratio off: reads=%d updates=%d", y.Reads, y.Updates)
	}
}

func TestWorkloadDReadsRecentKeys(t *testing.T) {
	kv := kvs(t)["lsm"]
	y := NewRunner(kv, Config{Records: 1000, ValueLen: 16, Seed: 5})
	if err := y.Load(); err != nil {
		t.Fatal(err)
	}
	if err := y.Run(WorkloadD, 1000); err != nil {
		t.Fatal(err)
	}
	if y.Inserts == 0 {
		t.Fatal("workload D inserted nothing")
	}
}

func TestKeyStableAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := uint64(0); i < 5000; i++ {
		k := string(Key(i))
		if seen[k] {
			t.Fatalf("key collision at %d", i)
		}
		seen[k] = true
	}
	if string(Key(42)) != string(Key(42)) {
		t.Fatal("keys not deterministic")
	}
}
