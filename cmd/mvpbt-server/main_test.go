package main

import (
	"fmt"
	"testing"
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
