package check

import (
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
)

// expect is what a single client has been acknowledged. With one writer the
// last acked write of a key is its committed value, so the map is the whole
// committed state: a full scan of the engine must show exactly it, no acked
// write lost and nothing unacked leaked in.
type expect map[string]string

func (e expect) put(k, v string) { e[k] = v }

func (e expect) del(k string) { delete(e, k) }

func (e expect) get(k string) (string, bool) {
	v, ok := e[k]
	return v, ok
}

// from returns up to limit acked pairs with key >= lo, in key order.
func (e expect) from(lo string, limit int) [][2]string {
	var out [][2]string
	for _, k := range slices.Sorted(maps.Keys(e)) {
		if k >= lo && len(out) < limit {
			out = append(out, [2]string{k, e[k]})
		}
	}
	return out
}

// match holds the pairs a scan from lo returned, at most limit of them, to
// the acked pairs it must have returned.
func (e expect) match(got [][2]string, lo string, limit int) error {
	want := e.from(lo, limit)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Errorf("pair %d: %q=%.40q, acked %q=%.40q", i, got[i][0], got[i][1], want[i][0], want[i][1])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d pairs, acked %d", len(got), len(want))
	}
	return nil
}

// state holds a full scan of the engine to the acked state and returns the
// scan's state hash, which is therefore the acked state's too.
func (e expect) state(got [][2]string) (uint64, error) {
	return stateHash(got), e.match(got, "", len(e)+1)
}

// stateHash is every campaign's fingerprint of a final state: FNV-1a over
// key\0val\0 of each pair, in the order given.
func stateHash(pairs [][2]string) uint64 {
	h := fnv.New64a()
	for _, p := range pairs {
		h.Write([]byte(p[0]))
		h.Write([]byte{0})
		h.Write([]byte(p[1]))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
