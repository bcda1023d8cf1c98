package pbt

import (
	"errors"
	"fmt"
	"testing"

	"mvpbt/internal/buffer"
	"mvpbt/internal/index"
	"mvpbt/internal/index/part"
	"mvpbt/internal/sfile"
	"mvpbt/internal/simclock"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
)

type env struct {
	dev  *ssd.Device
	pool *buffer.Pool
	fm   *sfile.Manager
	pbuf *part.PartitionBuffer
}

func newEnv(frames, limit int) *env {
	dev := ssd.New(simclock.New(), ssd.IntelP3600)
	return &env{dev: dev, pool: buffer.New(frames), fm: sfile.NewManager(dev), pbuf: part.NewPartitionBuffer(limit)}
}

func (e *env) tree(opts Options) *Tree {
	return New(e.pool, e.fm.Create("pbt", sfile.ClassIndex), e.pbuf, opts)
}

func ref(i int) index.Ref {
	return index.Ref{RID: storage.RecordID{Page: storage.NewPageID(5, uint64(i)), Slot: 0}, VID: uint64(i)}
}

func TestInsertLookupAcrossPartitions(t *testing.T) {
	e := newEnv(256, 1<<20)
	tr := e.tree(Options{BloomBits: 10})
	for p := 0; p < 3; p++ {
		for i := 0; i < 500; i++ {
			if err := tr.Insert([]byte(fmt.Sprintf("k%04d", i)), ref(p*1000+i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.EvictPN(); err != nil {
			t.Fatal(err)
		}
	}
	if tr.NumPartitions() != 3 {
		t.Fatalf("partitions=%d", tr.NumPartitions())
	}
	// Every key has 3 candidates — one per partition; PBT is
	// version-oblivious and returns all of them.
	var vids []uint64
	tr.LookupCandidates([]byte("k0042"), func(e index.Entry) bool {
		vids = append(vids, e.Ref.VID)
		return true
	})
	if len(vids) != 3 {
		t.Fatalf("candidates=%d want 3 (%v)", len(vids), vids)
	}
	// Newest partition's entry must come first.
	if vids[0] != 2042 || vids[2] != 42 {
		t.Fatalf("partition order wrong: %v", vids)
	}
	// A lookup is the range [k, k+"\x00"): same entries, same order, with an
	// entry in P_N too.
	tr.Insert([]byte("k0042"), ref(3042))
	for _, k := range []string{"k0042", "k0499", "k0500", ""} {
		var point, ranged []uint64
		if err := tr.LookupCandidates([]byte(k), func(e index.Entry) bool {
			point = append(point, e.Ref.VID)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if err := tr.ScanCandidates([]byte(k), []byte(k+"\x00"), func(e index.Entry) bool {
			ranged = append(ranged, e.Ref.VID)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(point) != fmt.Sprint(ranged) {
			t.Fatalf("key %q: lookup %v, scan of its one-key range %v", k, point, ranged)
		}
	}
}

func TestPNServedBeforePartitions(t *testing.T) {
	e := newEnv(64, 1<<20)
	tr := e.tree(Options{})
	tr.Insert([]byte("a"), ref(1))
	tr.EvictPN()
	tr.Insert([]byte("a"), ref(2))
	var vids []uint64
	tr.LookupCandidates([]byte("a"), func(e index.Entry) bool {
		vids = append(vids, e.Ref.VID)
		return true
	})
	if len(vids) != 2 || vids[0] != 2 {
		t.Fatalf("PN not served first: %v", vids)
	}
}

func TestScanCandidatesRange(t *testing.T) {
	e := newEnv(256, 1<<20)
	tr := e.tree(Options{})
	for i := 0; i < 300; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%04d", i)), ref(i))
	}
	tr.EvictPN()
	for i := 300; i < 600; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%04d", i)), ref(i))
	}
	count := 0
	tr.ScanCandidates([]byte("k0250"), []byte("k0350"), func(e index.Entry) bool {
		count++
		return true
	})
	if count != 100 {
		t.Fatalf("scan returned %d, want 100", count)
	}
}

func TestAppendOnlyWrites(t *testing.T) {
	e := newEnv(512, 1<<18)
	tr := e.tree(Options{})
	e.dev.ResetStats()
	for i := 0; i < 20000; i++ {
		tr.Insert([]byte(fmt.Sprintf("k%08d", i%777)), ref(i))
	}
	tr.EvictPN()
	s := e.dev.Stats()
	if s.Writes == 0 {
		t.Fatal("nothing written")
	}
	if float64(s.SeqWrites)/float64(s.Writes) < 0.9 {
		t.Fatalf("PBT writes not append-only: seq=%d total=%d", s.SeqWrites, s.Writes)
	}
}

func TestEarlyStop(t *testing.T) {
	e := newEnv(64, 1<<20)
	tr := e.tree(Options{})
	for i := 0; i < 100; i++ {
		tr.Insert([]byte("same"), ref(i))
	}
	n := 0
	tr.LookupCandidates([]byte("same"), func(index.Entry) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop ignored: %d", n)
	}
}

func TestEmptyEviction(t *testing.T) {
	e := newEnv(64, 1<<20)
	tr := e.tree(Options{})
	if err := tr.EvictPN(); err != nil {
		t.Fatal(err)
	}
	if tr.NumPartitions() != 0 {
		t.Fatal("empty eviction created a partition")
	}
}

// TestShortBodyIsCorrupt: an entry body too short to hold a Ref, read back
// from a built segment, is a corrupt page the table rebuilds the index from,
// not a panic.
func TestShortBodyIsCorrupt(t *testing.T) {
	e := newEnv(64, 1<<20)
	tr := e.tree(Options{})
	tr.pn.Set(pnKey{key: []byte("k")}, []byte{1, 2, 3})
	if err := tr.EvictPN(); err != nil {
		t.Fatal(err)
	}
	err := tr.ScanCandidates([]byte("a"), []byte("z"), func(index.Entry) bool { return true })
	if !errors.Is(err, storage.ErrCorruptPage) {
		t.Fatalf("short body: err %v, want ErrCorruptPage", err)
	}
}
