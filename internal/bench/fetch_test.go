package bench

import (
	"bytes"
	"fmt"
	"testing"

	"mvpbt/internal/buffer"
	"mvpbt/internal/index/part"
	"mvpbt/internal/sfile"
	"mvpbt/internal/simclock"
	"mvpbt/internal/ssd"
)

// TestSeekFetchGate pins the leaf fetches of a partition seek, what every
// GET and SCAN start of the kv_* workloads pays per partition it probes: a
// segment of 1 KiB values (seven records a leaf), each key holding one to
// three versions, some of them running across a leaf boundary. A point seek
// to any present key fetches one leaf, the one holding the key's first
// version; a scan over a range that holds no key fetches one leaf when the
// range lies inside a leaf and none when it falls between two. Leaf
// boundaries are found by walking the segment and watching the pool's
// request counter.
func TestSeekFetchGate(t *testing.T) {
	fm := sfile.NewManager(ssd.New(simclock.New(), ssd.IntelP3600))
	pool, f := buffer.New(64), fm.Create("seek", sfile.ClassIndex)
	var kvs []part.KV
	val := bytes.Repeat([]byte("v"), 1024)
	for k := 0; k < 400; k++ {
		for v := 0; v <= k%3; v++ {
			kvs = append(kvs, part.KV{Key: []byte(fmt.Sprintf("user%08d", 2*k)), Body: val})
		}
	}
	seg, err := part.Build(pool, f, 1, kvs, 0, 0, part.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requests := func() int64 { return pool.Stats()[sfile.ClassIndex].Requests }

	// opens[i]: record i is the first of its leaf.
	opens := make([]bool, len(kvs))
	walk := seg.Seek(nil)
	for i, r := 0, requests(); i < len(kvs); i++ {
		if !walk.Valid() || !bytes.Equal(walk.Record().Key, kvs[i].Key) {
			t.Fatalf("walk: record %d: valid %v, %v", i, walk.Valid(), walk.Err())
		}
		opens[i] = i == 0 || requests() > r
		r = requests()
		walk.Next()
	}

	var it part.Iterator
	between := 0
	for i := range kvs {
		if i > 0 && bytes.Equal(kvs[i-1].Key, kvs[i].Key) {
			continue
		}
		key, r0 := kvs[i].Key, requests()
		if it.Seek(seg, key); !it.Valid() || !bytes.Equal(it.Record().Key, key) || requests()-r0 != 1 {
			t.Errorf("point seek %q: valid %v, %d leaf fetches; want 1", key, it.Valid(), requests()-r0)
		}
		if i == 0 {
			continue
		}
		// [previous key + 0x00, key) holds no key.
		lo, want, r0 := append(bytes.Clone(kvs[i-1].Key), 0), int64(1), requests()
		if opens[i] {
			want, between = 0, between+1
		}
		if it.SeekScan(seg, lo, key, 0, 0); it.Err() != nil || requests()-r0 != want {
			t.Errorf("scan [%q, %q): %d leaf fetches, want %d (between leaves: %v)", lo, key, requests()-r0, want, opens[i])
		}
	}
	if between < seg.NumLeaves/2 {
		t.Fatalf("%d of %d leaf boundaries between two keys; the gate checks too few", between, seg.NumLeaves-1)
	}
}
