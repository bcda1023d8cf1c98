package db

import (
	"strings"
	"testing"

	"mvpbt/internal/wal"
)

// Recover replays a log image read off a device that tears writes and rots
// bits, behind a checksum that is not a MAC. Whatever the bytes, it must end
// and must not panic: it applies what it can and may return an error.
//
// Run the full fuzzer with:
//
//	go test -fuzz=FuzzRecover -fuzztime=60s ./internal/db/

// totalKey is the seeds' primary key (a length byte, then the key) made
// total: a row too short for its length byte yields what it has.
func totalKey(r []byte) []byte {
	if len(r) == 0 {
		return nil
	}
	return r[1 : 1+min(int(r[0]), len(r)-1)]
}

// fuzzSchema builds a fresh WAL engine with the seeds' schema: a SIAS table
// "t" with a unique MV-PBT primary index, and a durable KV store "kv".
func fuzzSchema(t testing.TB) (*Engine, *Table, *MVPBTKV) {
	t.Helper()
	e := NewEngine(Config{BufferPages: 128, PartitionBufferBytes: 32 << 10, EnableWAL: true})
	tbl, err := e.NewTable("t", HeapSIAS, IndexDef{
		Name: "pk", Kind: IdxMVPBT, Unique: true, BloomBits: 10, Extract: totalKey,
	})
	if err != nil {
		e.Close()
		t.Fatal(err)
	}
	kv, err := NewMVPBTKV(e, "kv", MVPBTKVOptions{})
	if err != nil {
		e.Close()
		t.Fatal(err)
	}
	return e, tbl, kv
}

// recoverSeeds returns real log images: KV puts and deletes with a table
// insert, update and delete; a checkpoint generation; a prepared leg whose
// decision never reached the log; the same with KV writes over the
// checkpoint's rows; and the first image cut mid-record.
func recoverSeeds(t testing.TB) [][]byte {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var seeds [][]byte
	// The image is page-padded; a seed keeps only its records, since the
	// fuzzer's minimizer crawls on page-sized inputs.
	records := func(img []byte) []byte {
		r, end := wal.NewReaderFromBytes(img), 0
		for _, ok := r.Next(); ok; _, ok = r.Next() {
			end = r.Offset()
		}
		return img[:end]
	}

	e, tbl, kv := fuzzSchema(t)
	must(kv.Put([]byte("a"), []byte("1")))
	must(kv.Put([]byte("b"), []byte("2")))
	must(kv.Delete([]byte("a")))
	tx := e.Begin()
	_, _, err := tbl.Insert(tx, encodeKVRow([]byte("k1"), []byte("v1")))
	must(err)
	_, _, err = tbl.Insert(tx, encodeKVRow([]byte("k2"), []byte("v2")))
	must(err)
	must(e.CommitDurable(tx))
	tx = e.Begin()
	cur, _, err := tbl.LookupOne(tx, tbl.Indexes()[0], []byte("k1"), true)
	must(err)
	_, err = tbl.Update(tx, cur, encodeKVRow([]byte("k1"), []byte("v1'")))
	must(err)
	cur, _, err = tbl.LookupOne(tx, tbl.Indexes()[0], []byte("k2"), true)
	must(err)
	must(tbl.Delete(tx, cur))
	must(e.CommitDurable(tx))
	ops := records(e.LogImage())
	seeds = append(seeds, ops, ops[:len(ops)-3])
	must(e.Checkpoint())
	must(kv.Put([]byte("c"), []byte("3")))
	seeds = append(seeds, records(e.LogImage()))
	tx = e.Begin()
	_, _, err = tbl.Insert(tx, encodeKVRow([]byte("k3"), []byte("v3")))
	must(err)
	must(e.PrepareDurable(tx, 1<<32|7))
	seeds = append(seeds, records(e.LogImage()))
	// The checkpoint's KV rows, then a tail that overwrites one, deletes and
	// reinserts one and deletes one: the load folds them.
	must(kv.Put([]byte("b"), []byte("2'")))
	must(kv.Delete([]byte("c")))
	must(kv.Put([]byte("c"), []byte("3'")))
	must(kv.Delete([]byte("b")))
	seeds = append(seeds, records(e.LogImage()))
	e.Crash()
	return seeds
}

// TestRecoverSeeds: the seeds recover what they hold. The cut image loses
// its last commit as a torn tail, not as corruption, the prepared leg is
// back in doubt, and the KV store holds each key's last write.
func TestRecoverSeeds(t *testing.T) {
	wantApplied, wantInDoubt := []int{5, 4, 2, 2, 6}, []int{0, 0, 0, 1, 1}
	wantKV := []string{"b=2", "b=2", "b=2 c=3", "b=2 c=3", "c=3'"}
	for i, img := range recoverSeeds(t) {
		e, _, kv := fuzzSchema(t)
		applied, err := e.Recover(img)
		if err != nil || applied != wantApplied[i] || e.TwoPCInfo().InDoubt != wantInDoubt[i] {
			t.Errorf("seed %d: applied %d, %d in doubt, %v; want %d, %d, nil",
				i, applied, e.TwoPCInfo().InDoubt, err, wantApplied[i], wantInDoubt[i])
		}
		var pairs []string
		if err := kv.Scan(nil, 10, func(k, v []byte) bool {
			pairs = append(pairs, string(k)+"="+string(v))
			return true
		}); err != nil || strings.Join(pairs, " ") != wantKV[i] {
			t.Errorf("seed %d: KV store holds %v (%v), want %s", i, pairs, err, wantKV[i])
		}
		e.Crash()
	}
}

func FuzzRecover(f *testing.F) {
	for _, img := range recoverSeeds(f) {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		e, _, _ := fuzzSchema(t)
		defer e.Crash()
		e.Recover(img)
	})
}
