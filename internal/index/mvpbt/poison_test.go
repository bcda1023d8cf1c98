package mvpbt

import (
	"fmt"
	"reflect"
	"testing"

	"mvpbt/internal/index/part"
	"mvpbt/internal/leakcheck"
	"mvpbt/internal/txn"
)

// TestMain runs the package's tests — the reference-model equivalence tests
// (TestMergeRandomizedModelEquivalence among them), the concurrent readers,
// the dumps — with part.SetPoison on: a record read from a partition and
// kept past the lifetime index.Entry grants it reads 0xDB, not whatever the
// reused buffer holds — and fails the package when goroutines outlive its
// tests.
func TestMain(m *testing.M) {
	part.SetPoison(true)
	leakcheck.Main(m)
}

// TestReleaseBoundsKeptSources: a scan over more partitions than
// maxKeptSources leaves, in the read state it returns to the pool, page
// buffers in the first maxKeptSources sources only.
func TestReleaseBoundsKeptSources(t *testing.T) {
	e := newEnv(256, 1<<20)
	tr := e.tree(Options{})
	const parts = maxKeptSources + 20
	for p := 0; p < parts; p++ {
		e.commit(func(tx *txn.Tx) { tr.InsertRegular(tx, []byte(fmt.Sprintf("k%04d", p)), e.ref()) })
		if err := tr.EvictPN(); err != nil {
			t.Fatal(err)
		}
	}
	if n := tr.NumPartitions(); n != parts {
		t.Fatalf("%d partitions, want %d", n, parts)
	}
	tx := e.mgr.Begin()
	defer e.mgr.Commit(tx)
	rs := tr.newReadState(tx)
	if err := tr.scanSources(rs, tx, tr.view.Load(), nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if len(rs.srcs) != parts+1 {
		t.Fatalf("%d scan sources, want P_N and %d partitions", len(rs.srcs), parts)
	}
	rs.release()
	for i, s := range rs.srcs[:cap(rs.srcs)][maxKeptSources:] {
		if !reflect.DeepEqual(s, scanSource{}) {
			t.Fatalf("source %d kept its buffers in the pooled state", maxKeptSources+i)
		}
	}
}
