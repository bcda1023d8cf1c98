package util

import (
	"bytes"
	"slices"
	"testing"
)

// fuzzSource is one sorted input of FuzzLoserTree: keys[pos:] is its rest,
// and refill, once keys drains, is handed to it the way a drained shard
// stream is asked for more.
type fuzzSource struct {
	keys, refill []byte
	pos          int
}

type fuzzSources []fuzzSource

func (s fuzzSources) Len() int             { return len(s) }
func (s fuzzSources) Exhausted(i int) bool { return s[i].pos >= len(s[i].keys) }
func (s fuzzSources) Less(i, j int) bool   { return s[i].keys[s[i].pos] < s[j].keys[s[j].pos] }

// FuzzLoserTree holds the tree's emission order to a stable sort of every
// (key, source) pair by key: equal keys go out lowest source first, an
// exhausted source never wins, and a source refilled after it drained
// rejoins the merge where its new keys belong. data's bytes are dealt to k
// sources round-robin (a key is a byte mod 16, so ties are common), each
// source's share sorted and its upper half held back as the refill (a source
// starts with a key when it has any, as a shard stream does).
func FuzzLoserTree(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), []byte{1, 2, 3})
	f.Add(uint8(1), []byte{3, 1, 2, 2})
	f.Add(uint8(2), []byte{5, 5, 5, 5, 5, 5})                 // all keys equal
	f.Add(uint8(2), []byte{1, 9, 2, 9, 3, 9, 4, 9, 5, 9, 6})  // source 0 refills below source 1
	f.Add(uint8(7), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) // sources exhaust at different times
	f.Add(uint8(96), bytes.Repeat([]byte{3, 1, 4, 1, 5, 9, 2, 6}, 40))
	f.Add(uint8(120), []byte{7, 7, 7})
	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		srcs := make(fuzzSources, k)
		sorted := make([][]byte, k)
		type pair struct{ key, src byte }
		var want []pair
		for i := range sorted {
			for j := i; j < len(data); j += int(k) {
				sorted[i] = append(sorted[i], data[j]%16)
			}
			slices.Sort(sorted[i])
			for _, key := range sorted[i] {
				want = append(want, pair{key, byte(i)})
			}
		}
		slices.SortStableFunc(want, func(a, b pair) int { return int(a.key) - int(b.key) })
		var tree LoserTree[fuzzSources]
		var got []pair
		for round := 0; round < 2; round++ { // the second round rebuilds the reused tree
			for i, keys := range sorted {
				srcs[i] = fuzzSource{keys: keys[:(len(keys)+1)/2], refill: keys[(len(keys)+1)/2:]}
			}
			got = got[:0]
			tree.Build(srcs)
			for w := tree.Winner(); w >= 0; w = tree.Winner() {
				s := &srcs[w]
				got = append(got, pair{s.keys[s.pos], byte(w)})
				if s.pos++; s.pos == len(s.keys) && len(s.refill) > 0 {
					s.keys, s.refill, s.pos = s.refill, nil, 0
				}
				tree.Fix(srcs)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d, k=%d: merged %v, want %v", round, k, got, want)
			}
		}
	})
}

// TestLoserTreeReuseAllocatesNothing: a tree built again over sources it has
// merged before reuses its slice, so a pooled caller's merge allocates
// nothing.
func TestLoserTreeReuseAllocatesNothing(t *testing.T) {
	srcs := make(fuzzSources, 90)
	for i := range srcs {
		srcs[i].keys = []byte{byte(i % 7), byte(i % 11), 15}
		slices.Sort(srcs[i].keys)
	}
	var tree LoserTree[fuzzSources]
	merge := func() {
		for i := range srcs {
			srcs[i].pos = 0
		}
		tree.Build(srcs)
		for w := tree.Winner(); w >= 0; w = tree.Winner() {
			srcs[w].pos++
			tree.Fix(srcs)
		}
	}
	merge()
	if n := testing.AllocsPerRun(10, merge); n != 0 {
		t.Fatalf("a rebuilt merge allocates %v times, want 0", n)
	}
}
