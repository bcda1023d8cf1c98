package lsm

import (
	"bytes"
	"fmt"
	"testing"

	"mvpbt/internal/buffer"
	"mvpbt/internal/sfile"
	"mvpbt/internal/simclock"
	"mvpbt/internal/ssd"
	"mvpbt/internal/util"
)

func newTree(frames int, opts Options) (*Tree, *ssd.Device) {
	dev := ssd.New(simclock.New(), ssd.IntelP3600)
	fm := sfile.NewManager(dev)
	return New(buffer.New(frames), fm.Create("lsm", sfile.ClassIndex), opts), dev
}

func TestPutGet(t *testing.T) {
	tr, _ := newTree(64, Options{})
	tr.Put([]byte("a"), []byte("1"))
	v, ok, err := tr.Get([]byte("a"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if _, ok, _ := tr.Get([]byte("b")); ok {
		t.Fatal("absent key found")
	}
}

func TestOverwriteNewestWins(t *testing.T) {
	tr, _ := newTree(64, Options{})
	tr.Put([]byte("k"), []byte("old"))
	tr.Flush()
	tr.Put([]byte("k"), []byte("new"))
	v, ok, _ := tr.Get([]byte("k"))
	if !ok || string(v) != "new" {
		t.Fatalf("got %q", v)
	}
	tr.Flush() // two runs now; still newest wins
	v, ok, _ = tr.Get([]byte("k"))
	if !ok || string(v) != "new" {
		t.Fatalf("after flush got %q", v)
	}
}

func TestDeleteTombstone(t *testing.T) {
	tr, _ := newTree(64, Options{})
	tr.Put([]byte("k"), []byte("v"))
	tr.Flush()
	tr.Delete([]byte("k"))
	if _, ok, _ := tr.Get([]byte("k")); ok {
		t.Fatal("deleted key visible (memtable tombstone)")
	}
	tr.Flush()
	if _, ok, _ := tr.Get([]byte("k")); ok {
		t.Fatal("deleted key visible (flushed tombstone)")
	}
}

func TestFlushAndCompaction(t *testing.T) {
	tr, dev := newTree(2048, Options{MemtableBytes: 32 << 10, L0Runs: 3, LevelRatio: 4})
	r := util.NewRand(5)
	model := map[string]string{}
	for i := 0; i < 30000; i++ {
		k := fmt.Sprintf("key-%06d", r.Intn(5000))
		v := fmt.Sprintf("val-%d", i)
		tr.Put([]byte(k), []byte(v))
		model[k] = v
	}
	st := tr.Stats()
	if st.Flushes == 0 || st.Compactions == 0 {
		t.Fatalf("no flushes/compactions: %+v", st)
	}
	// Spot-check correctness.
	n := 0
	for k, want := range model {
		v, ok, err := tr.Get([]byte(k))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(v) != want {
			t.Fatalf("key %s: got %q want %q", k, v, want)
		}
		if n++; n > 500 {
			break
		}
	}
	// Write amplification: compaction rewrites data, so device writes
	// exceed logical data size.
	s := dev.Stats()
	if s.BytesWritten == 0 {
		t.Fatal("no device writes")
	}
}

func TestScanMergesRunsNewestWins(t *testing.T) {
	tr, _ := newTree(512, Options{})
	for i := 0; i < 100; i++ {
		tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("old"))
	}
	tr.Flush()
	for i := 0; i < 100; i += 2 {
		tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("new"))
	}
	tr.Flush()
	for i := 1; i < 100; i += 10 {
		tr.Delete([]byte(fmt.Sprintf("k%03d", i)))
	}
	var keys []string
	err := tr.Scan([]byte("k"), []byte("l"), func(k, v []byte) bool {
		keys = append(keys, string(k))
		want := "old"
		idx := 0
		fmt.Sscanf(string(k), "k%03d", &idx)
		if idx%2 == 0 {
			want = "new"
		}
		if string(v) != want {
			t.Fatalf("key %s: got %q want %q", k, v, want)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 90 {
		t.Fatalf("scan returned %d keys, want 90 (10 deleted)", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("scan out of order")
		}
	}
}

func TestScanRangeBounds(t *testing.T) {
	tr, _ := newTree(256, Options{})
	for i := 0; i < 1000; i++ {
		tr.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	tr.Flush()
	count := 0
	tr.Scan([]byte("k0100"), []byte("k0200"), func(k, v []byte) bool {
		count++
		return true
	})
	if count != 100 {
		t.Fatalf("range scan count=%d", count)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr, _ := newTree(256, Options{})
	for i := 0; i < 100; i++ {
		tr.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	count := 0
	tr.Scan([]byte("k"), nil, func(k, v []byte) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early stop ignored: %d", count)
	}
}

func TestBloomSkipsRuns(t *testing.T) {
	tr, _ := newTree(512, Options{BloomBits: 10, L0Runs: 100}) // no compaction
	for p := 0; p < 5; p++ {
		for i := 0; i < 200; i++ {
			tr.Put([]byte(fmt.Sprintf("r%d-%04d", p, i)), []byte("v"))
		}
		tr.Flush()
	}
	before := tr.Stats().BloomNegatives
	for i := 0; i < 100; i++ {
		tr.Get([]byte(fmt.Sprintf("r0-%04d", i))) // in the OLDEST run
	}
	if tr.Stats().BloomNegatives-before < 300 {
		t.Fatalf("bloom not skipping runs: %d", tr.Stats().BloomNegatives-before)
	}
}

func TestTombstonesDroppedAtBottom(t *testing.T) {
	tr, _ := newTree(1024, Options{MemtableBytes: 8 << 10, L0Runs: 2, LevelRatio: 100})
	for i := 0; i < 500; i++ {
		tr.Put([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte("x"), 30))
	}
	for i := 0; i < 500; i++ {
		tr.Delete([]byte(fmt.Sprintf("k%04d", i)))
	}
	tr.Flush()
	// Force everything into one bottom run.
	for tr.NumRuns() > 1 {
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		tr.Put([]byte("filler"), []byte("x"))
		tr.Flush()
	}
	count := 0
	tr.Scan(nil, nil, func(k, v []byte) bool { count++; return true })
	if count > 1 { // only the filler may remain
		t.Fatalf("tombstoned keys survived bottom compaction: %d live", count)
	}
}

func TestRandomizedModel(t *testing.T) {
	tr, _ := newTree(2048, Options{MemtableBytes: 16 << 10, L0Runs: 3, LevelRatio: 4})
	r := util.NewRand(11)
	model := map[string]string{}
	for step := 0; step < 20000; step++ {
		k := fmt.Sprintf("key-%04d", r.Intn(800))
		switch r.Intn(10) {
		case 0:
			tr.Delete([]byte(k))
			delete(model, k)
		default:
			v := fmt.Sprintf("v%d", step)
			tr.Put([]byte(k), []byte(v))
			model[k] = v
		}
		if step%4999 == 0 {
			got := map[string]string{}
			tr.Scan(nil, nil, func(k, v []byte) bool {
				got[string(k)] = string(v)
				return true
			})
			if len(got) != len(model) {
				t.Fatalf("step %d: scan size %d, model %d", step, len(got), len(model))
			}
			for k, v := range model {
				if got[k] != v {
					t.Fatalf("step %d key %s: got %q want %q", step, k, got[k], v)
				}
			}
		}
	}
}
