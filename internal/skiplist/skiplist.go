// Package skiplist provides an ordered in-memory map with a caller-supplied
// comparator. It backs the LSM memtable and the MV-PBT main-memory
// partition PN, whose ordering (search key ascending, write sequence
// descending) is not a plain byte ordering.
//
// Concurrency: the list is single-writer multi-reader (SWMR). Readers
// (Get, Seek, Min, iteration) may run lock-free and concurrently with one
// writer; all mutations (Set, Delete) and the Len/Bytes accessors must be
// serialized externally. Links are atomic pointers: Set publishes a new
// node bottom-up after its forward pointers are set, Delete unlinks
// top-down and leaves the victim's forward pointers intact, so a reader
// parked on either keeps a consistent view of the remaining list. Nodes come
// from a slab and back only all together (Recycle), never under a reader.
package skiplist

import (
	"sync/atomic"

	"mvpbt/internal/util"
)

const maxLevel = 20

// List is a skiplist from K to V ordered by the comparator. One writer
// and any number of readers may proceed concurrently; writers synchronize
// among themselves externally.
type List[K any, V any] struct {
	cmp   func(a, b K) int
	head  *node[K, V]
	level atomic.Int32
	n     int
	rnd   *util.Rand
	bytes int
	size  func(k K, v V) int
	nodes util.Slab[node[K, V]] // Set's nodes; see Recycle
}

// inlineLevels is the tower height stored inside the node itself. With the
// 1/4 level promotion probability, ~99.6% of nodes fit (P[lvl>4] = 4^-4),
// so the common-case node is one run of the list's slab, tower included.
const inlineLevels = 4

type node[K any, V any] struct {
	key    K
	val    V
	next   []atomic.Pointer[node[K, V]] // aliases inline for lvl <= inlineLevels
	inline [inlineLevels]atomic.Pointer[node[K, V]]
}

func initNode[K any, V any](n *node[K, V], k K, v V, lvl int) *node[K, V] {
	n.key, n.val = k, v
	if lvl <= inlineLevels {
		n.next = n.inline[:lvl:inlineLevels]
	} else {
		n.next = make([]atomic.Pointer[node[K, V]], lvl)
	}
	return n
}

// New returns an empty list ordered by cmp. size, if non-nil, is used to
// account approximate memory usage (Bytes).
func New[K any, V any](cmp func(a, b K) int, size func(k K, v V) int) *List[K, V] {
	l := &List[K, V]{
		cmp:  cmp,
		head: &node[K, V]{next: make([]atomic.Pointer[node[K, V]], maxLevel)},
		rnd:  util.NewRand(0x5EEDF00D),
		size: size,
	}
	l.level.Store(1)
	return l
}

// Len returns the number of entries. Writer-side only.
func (l *List[K, V]) Len() int { return l.n }

// Bytes returns the accumulated size of all entries (per the size
// function; 0 if none was given). Writer-side only.
func (l *List[K, V]) Bytes() int { return l.bytes }

func (l *List[K, V]) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && l.rnd.Uint64()&3 == 0 {
		lvl++
	}
	return lvl
}

// findGE returns the first node with key >= k, filling prev with the
// predecessor at each level when prev is non-nil. Safe for concurrent
// readers (prev==nil); the writer passes prev under its own serialization.
func (l *List[K, V]) findGE(k K, prev []*node[K, V]) *node[K, V] {
	x := l.head
	for i := int(l.level.Load()) - 1; i >= 0; i-- {
		for nx := x.next[i].Load(); nx != nil && l.cmp(nx.key, k) < 0; nx = x.next[i].Load() {
			x = nx
		}
		if prev != nil {
			prev[i] = x
		}
	}
	return x.next[0].Load()
}

// Set inserts or overwrites the entry for k. Overwrite replaces the node
// rather than mutating it in place, so a concurrent reader positioned on
// the old node still sees a consistent (pre-overwrite) entry.
func (l *List[K, V]) Set(k K, v V) {
	var prev [maxLevel]*node[K, V]
	x := l.findGE(k, prev[:])
	if x != nil && l.cmp(x.key, k) == 0 {
		if l.size != nil {
			l.bytes += l.size(k, v) - l.size(x.key, x.val)
		}
		// Not from the slab, which keeps what it carves: x goes to the Go GC.
		nd := initNode(new(node[K, V]), k, v, len(x.next))
		for i := 0; i < len(x.next); i++ {
			nd.next[i].Store(x.next[i].Load())
		}
		for i := len(x.next) - 1; i >= 0; i-- {
			prev[i].next[i].Store(nd)
		}
		return
	}
	lvl := l.randomLevel()
	if cur := int(l.level.Load()); lvl > cur {
		for i := cur; i < lvl; i++ {
			prev[i] = l.head
		}
		l.level.Store(int32(lvl))
	}
	nd := initNode(&l.nodes.Alloc(1)[0], k, v, lvl)
	// Link bottom-up: once level 0 is published the node is reachable in
	// full; higher levels only add shortcuts.
	for i := 0; i < lvl; i++ {
		nd.next[i].Store(prev[i].next[i].Load())
		prev[i].next[i].Store(nd)
	}
	l.n++
	if l.size != nil {
		l.bytes += l.size(k, v)
	}
}

// Recycle gives every node old held to l's inserts; nothing may reach old now.
func (l *List[K, V]) Recycle(old *List[K, V]) { l.nodes.Recycle(&old.nodes) }

// Get returns the value for k.
func (l *List[K, V]) Get(k K) (V, bool) {
	x := l.findGE(k, nil)
	if x != nil && l.cmp(x.key, k) == 0 {
		return x.val, true
	}
	var zero V
	return zero, false
}

// Delete removes the entry for k, reporting whether it existed. The
// victim is unlinked top-down and its own forward pointers are preserved,
// so a reader parked on it continues into the surviving suffix.
func (l *List[K, V]) Delete(k K) bool {
	var prev [maxLevel]*node[K, V]
	x := l.findGE(k, prev[:])
	if x == nil || l.cmp(x.key, k) != 0 {
		return false
	}
	for i := len(x.next) - 1; i >= 0; i-- {
		if prev[i].next[i].Load() == x {
			prev[i].next[i].Store(x.next[i].Load())
		}
	}
	l.n--
	if l.size != nil {
		l.bytes -= l.size(x.key, x.val)
	}
	return true
}

// Iterator walks entries in order. The zero Iterator is exhausted.
// Iterating concurrently with the writer is safe: the iterator sees some
// consistent interleaving of the entries present during the walk.
type Iterator[K any, V any] struct {
	nd *node[K, V]
}

// Min returns an iterator at the smallest entry.
func (l *List[K, V]) Min() Iterator[K, V] {
	return Iterator[K, V]{nd: l.head.next[0].Load()}
}

// Seek returns an iterator at the first entry with key >= k.
func (l *List[K, V]) Seek(k K) Iterator[K, V] {
	return Iterator[K, V]{nd: l.findGE(k, nil)}
}

// Valid reports whether the iterator is positioned on an entry.
func (it Iterator[K, V]) Valid() bool { return it.nd != nil }

// Key returns the current key; only valid when Valid.
func (it Iterator[K, V]) Key() K { return it.nd.key }

// Value returns the current value; only valid when Valid.
func (it Iterator[K, V]) Value() V { return it.nd.val }

// Next advances to the following entry.
func (it *Iterator[K, V]) Next() { it.nd = it.nd.next[0].Load() }
