package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mvpbt/internal/index/part"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
)

func TestGetFromEveryLevel(t *testing.T) {
	// Force keys into distinct storage locations: memtable, L0 run, and a
	// compacted lower level; Get must find all of them.
	tr, _ := newTree(2048, Options{MemtableBytes: 4 << 10, L0Runs: 2, LevelRatio: 2})
	// Old data, pushed down by compaction.
	for i := 0; i < 1000; i++ {
		tr.Put([]byte(fmt.Sprintf("old-%04d", i)), []byte("deep"))
	}
	tr.Flush()
	// Fresh L0 run.
	for i := 0; i < 50; i++ {
		tr.Put([]byte(fmt.Sprintf("mid-%04d", i)), []byte("run"))
	}
	tr.Flush()
	// Memtable only.
	tr.Put([]byte("new-0001"), []byte("mem"))

	for _, c := range []struct{ k, v string }{
		{"old-0500", "deep"}, {"mid-0025", "run"}, {"new-0001", "mem"},
	} {
		v, ok, err := tr.Get([]byte(c.k))
		if err != nil || !ok || string(v) != c.v {
			t.Fatalf("%s: %q %v %v", c.k, v, ok, err)
		}
	}
	if tr.NumRuns() < 2 {
		t.Fatalf("expected multiple runs, got %d", tr.NumRuns())
	}
}

func TestScanAcrossCompactionBoundary(t *testing.T) {
	tr, _ := newTree(2048, Options{MemtableBytes: 8 << 10, L0Runs: 2, LevelRatio: 2})
	for i := 0; i < 3000; i++ {
		tr.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	// Overwrite a band so newest-wins spans the level boundary.
	for i := 1000; i < 1100; i++ {
		tr.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("NEW"))
	}
	n, news := 0, 0
	err := tr.Scan([]byte("k00900"), []byte("k01200"), func(k, v []byte) bool {
		n++
		if string(v) == "NEW" {
			news++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 || news != 100 {
		t.Fatalf("scan saw %d rows (%d NEW), want 300/100", n, news)
	}
}

func TestEmptyTreeOperations(t *testing.T) {
	tr, _ := newTree(64, Options{})
	if _, ok, _ := tr.Get([]byte("x")); ok {
		t.Fatal("empty tree found a key")
	}
	if err := tr.Delete([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	n := 0
	tr.Scan(nil, nil, func(k, v []byte) bool { n++; return true })
	// Only the tombstone-shadowed key exists; scan must skip it.
	if n != 0 {
		t.Fatalf("empty-tree scan returned %d rows", n)
	}
	if tr.NumRuns() > 1 {
		t.Fatalf("empty flushes created %d runs", tr.NumRuns())
	}
}

func TestStatsAccumulate(t *testing.T) {
	tr, _ := newTree(2048, Options{MemtableBytes: 4 << 10, L0Runs: 2, LevelRatio: 2, BloomBits: 10})
	for i := 0; i < 2000; i++ {
		tr.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("vvvvvvvv"))
	}
	st := tr.Stats()
	if st.Flushes == 0 || st.Compactions == 0 {
		t.Fatalf("stats flat: %+v", st)
	}
}

// TestCompactionBufferReuse: a record a run's reader yields is only valid
// until that reader advances, and mergeRuns advances every run holding the
// winning key — here every key lives in all three runs, with 1 KiB values so
// that the runs' leaf boundaries fall on different keys. If the merge
// compared against the winner's recycled key buffer, shadowed versions would
// survive or keys vanish. Tombstoned keys are dropped at the bottom.
func TestCompactionBufferReuse(t *testing.T) {
	tr, _ := newTree(256, Options{MemtableBytes: 1 << 30, L0Runs: 3, BloomBits: 10})
	const keys = 200
	want := map[string]string{}
	for run := 0; run < 3; run++ {
		for i := run; i < keys; i++ { // run r lacks the first r keys: the runs' leaves are staggered
			k := fmt.Sprintf("key-%04d", i)
			switch {
			case run == 2 && i%7 == 0:
				if err := tr.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				delete(want, k)
			default:
				v := fmt.Sprintf("%d-%s-%s", run, k, strings.Repeat("x", 1000))
				if err := tr.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				want[k] = v
			}
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if st := tr.Stats(); st.Compactions != 1 || tr.NumRuns() != 1 {
		t.Fatalf("%d compactions, %d runs: want the three L0 runs merged into one", st.Compactions, tr.NumRuns())
	}
	got := map[string]string{}
	var prev string
	err := tr.ScanRawAll(nil, nil, func(k []byte, _ uint64, tomb bool, v []byte) bool {
		if tomb || string(k) <= prev {
			t.Fatalf("raw record %q after %q, tombstone %v: the merged run holds one live record per key", k, prev, tomb)
		}
		prev = string(k)
		got[string(k)] = string(v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("merged run holds %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %s: merged run holds %.20q, want %.20q", k, got[k], v)
		}
	}
}

// TestScanReturnsReadErrors: a run whose leaf cannot be read fails the scan
// — when its first leaf is read, where the scan positions it, and when a
// later one is, mid-merge — instead of ending it early as if the run had no
// more keys. Two runs of 10 000 keys through a 16-frame pool, under a sticky
// read fault armed before the scan or after its 100th record.
func TestScanReturnsReadErrors(t *testing.T) {
	scans := map[string]func(tr *Tree, each func()) error{
		"Scan": func(tr *Tree, each func()) error {
			return tr.Scan(nil, nil, func(_, _ []byte) bool { each(); return true })
		},
		"ScanRawAll": func(tr *Tree, each func()) error {
			return tr.ScanRawAll(nil, nil, func(_ []byte, _ uint64, _ bool, _ []byte) bool { each(); return true })
		},
	}
	for name, scan := range scans {
		for _, armAt := range []int{0, 100} {
			tr, dev := newTree(16, Options{MemtableBytes: 1 << 30})
			for run := 0; run < 2; run++ {
				for i := run; i < 20000; i += 2 {
					if err := tr.Put([]byte(fmt.Sprintf("key-%05d", i)), bytes.Repeat([]byte{'v'}, 100)); err != nil {
						t.Fatal(err)
					}
				}
				if err := tr.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if tr.NumRuns() != 2 {
				t.Fatalf("%d runs, want 2", tr.NumRuns())
			}
			arm := func() { dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultReadErr, Class: ssd.AnyClass, Sticky: true}) }
			if armAt == 0 {
				arm()
			}
			n := 0
			err := scan(tr, func() {
				if n++; n == armAt {
					arm()
				}
			})
			if !errors.Is(err, storage.ErrIOFault) {
				t.Errorf("%s, fault armed after %d records: %d records and error %v, want an I/O fault", name, armAt, n, err)
			}
		}
	}
}

// TestOversizedEntryRefused: an entry whose run record (key, sequence
// number, flags byte, value) would be over part.MaxEntry is refused before
// it enters the memtable; one at the limit flushes.
func TestOversizedEntryRefused(t *testing.T) {
	tr, _ := newTree(64, Options{})
	key := []byte("key")
	fits := make([]byte, part.MaxEntry-len(key)-2) // sequence number 1 takes one byte
	if err := tr.Put(key, append(fits, 0)); !errors.Is(err, part.ErrEntryTooLarge) {
		t.Fatalf("Put one byte over the limit = %v, want part.ErrEntryTooLarge", err)
	}
	if err := tr.Put(key, fits); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("flushing an entry at the limit: %v", err)
	}
	if v, ok, err := tr.Get(key); err != nil || !ok || len(v) != len(fits) {
		t.Fatalf("Get = %d bytes, %v, %v", len(v), ok, err)
	}
}
