package main

import (
	"fmt"
	"testing"
	"time"

	"mvpbt/internal/sfile"
	"mvpbt/internal/shard"
	"mvpbt/internal/ssd"
)

// TestShippedConfiguration builds the router the way main does, at the
// flags' defaults, and holds it to what its constants promise: a shard
// whose log grows past walCheckpointBytes has checkpointed, and twelve
// partition buffers of 1 KiB values per shard leave every shard with bloom
// filters on its partitions and merges holding them at
// kvOptions.MaxPartitions.
func TestShippedConfiguration(t *testing.T) {
	const shards, pbuf = 4, 256 << 10
	r, err := newRouter(shards, pbuf, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	big := make([]byte, 4<<10)
	ckptShard := r.ShardOf([]byte("ckpt-000000"))
	for i, wrote := 0, 0; wrote <= walCheckpointBytes; i++ {
		k := []byte(fmt.Sprintf("ckpt-%06d", i))
		if r.ShardOf(k) != ckptShard {
			continue
		}
		if err := r.Put(k, big); err != nil {
			t.Fatalf("checkpoint put %d: %v", i, err)
		}
		wrote += len(big)
	}
	if ck := r.Shard(ckptShard).Engine.CheckpointInfo(); ck.Count < 1 {
		t.Fatalf("shard %d after %d MiB of log: %+v, want a checkpoint", ckptShard, walCheckpointBytes>>20, ck)
	}

	val := make([]byte, 1<<10)
	for i := 12 * shards * pbuf / len(val); i > 0; i-- {
		if err := r.Put([]byte(fmt.Sprintf("bulk-%06d", i)), val); err != nil {
			t.Fatalf("bulk put %d: %v", i, err)
		}
	}
	for i := 0; i < r.NumShards(); i++ {
		tree := r.Shard(i).KV.Tree()
		parts := tree.Partitions()
		if tree.Stats().Merges == 0 || len(parts) == 0 || len(parts) > kvOptions.MaxPartitions {
			t.Fatalf("shard %d after the bulk puts: %+v, %d partitions: want merges holding the partitions at 1 to %d",
				i, tree.Stats(), len(parts), kvOptions.MaxPartitions)
		}
		for j, p := range parts {
			if p.Filter == nil {
				t.Fatalf("shard %d: partition %d of %d has no bloom filter", i, j, len(parts))
			}
		}
	}
}

// TestFailedWriteDoesNotCommit: a transactional SET whose record reached P_N
// but whose eviction then failed (index writes fault past the retries) was
// reported as failed, so the transaction's Commit must not publish it — it
// was never logged either. Commit fails, and the key stays absent, before
// and after a restart through recovery.
func TestFailedWriteDoesNotCommit(t *testing.T) {
	r, err := newRouter(1, 64<<10, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	tx, err := r.Begin()
	if err != nil {
		t.Fatal(err)
	}
	dev := r.Shard(0).Engine.Dev
	fault := dev.ArmFault(ssd.FaultRule{Kind: ssd.FaultWriteErr, Class: int(sfile.ClassIndex), Sticky: true})
	val := make([]byte, 1<<10)
	var failed []byte
	for i := 0; failed == nil; i++ {
		if i == 1000 {
			t.Fatal("no write failed with every index write faulting")
		}
		k := []byte(fmt.Sprintf("k%06d", i))
		if err := tx.Put(k, val); err != nil {
			failed = k
		}
	}
	dev.DisarmFault(fault)
	if err := tx.Commit(); err == nil {
		t.Error("Commit of a transaction with a failed write returned nil")
	}
	absent := func(when string) {
		t.Helper()
		if _, ok, err := r.Get(failed); err != nil || ok {
			t.Fatalf("%s: Get(%s) = found %v, err %v; want the failed write absent", when, failed, ok, err)
		}
	}
	absent("after Commit")
	r.FailShard(0, nil)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if h := r.Health(0); h.State == shard.Healthy && h.Restarts >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard 0 did not come back: %+v", r.Health(0))
		}
	}
	absent("after the restart")
}
