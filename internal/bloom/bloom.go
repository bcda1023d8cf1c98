// Package bloom implements the partition filters of §4.7: a standard bloom
// filter over full search keys (accelerating point lookups by skipping
// partitions) and a prefix bloom filter over key prefixes of a minimum
// length (allowing range scans with a shared prefix — e.g. a fixed set of
// scan attributes — to skip partitions too).
package bloom

import (
	"math"

	"mvpbt/internal/util"
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash is the pair of independent 64-bit hashes a key probes a filter with.
// A bulk builder that learns the filter's size only after its last key
// keeps these 16 bytes per key instead of the keys.
type Hash struct{ h1, h2 uint64 }

// HashKey hashes a key for AddHash.
func HashKey(b []byte) Hash {
	h1, h2 := hash2(b)
	return Hash{h1, h2}
}

// hash2 computes two independent 64-bit hashes of b for double hashing.
func hash2(b []byte) (uint64, uint64) {
	h1 := uint64(fnvOffset)
	for _, c := range b {
		h1 ^= uint64(c)
		h1 *= fnvPrime
	}
	// Second hash: FNV over the bytes in reverse with a different offset.
	h2 := uint64(0x9E3779B97F4A7C15)
	for i := len(b) - 1; i >= 0; i-- {
		h2 ^= uint64(b[i])
		h2 *= fnvPrime
	}
	h2 |= 1 // must be odd so probe sequences cover the table
	return h1, h2
}

// Filter is a bloom filter. Build with New, fill with Add, then query with
// MayContain. The zero value is unusable.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    uint32 // number of probes
}

// New returns a filter sized for n keys at bitsPerKey bits each (10 bits
// per key ≈ 1% false-positive rate; the paper reports ~2% for partition
// filters).
func New(n int, bitsPerKey int) *Filter {
	if n < 1 {
		n = 1
	}
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	m := uint64(n * bitsPerKey)
	if m < 64 {
		m = 64
	}
	k := uint32(float64(bitsPerKey) * math.Ln2)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return &Filter{bits: make([]uint64, (m+63)/64), m: m, k: k}
}

// Add inserts key.
func (f *Filter) Add(key []byte) { f.AddHash(HashKey(key)) }

// AddHash inserts the key that hashed to h.
func (f *Filter) AddHash(h Hash) {
	for i := uint32(0); i < f.k; i++ {
		bit := (h.h1 + uint64(i)*h.h2) % f.m
		f.bits[bit/64] |= 1 << (bit % 64)
	}
}

// MayContain reports whether key might have been added. False positives
// are possible; false negatives are not.
func (f *Filter) MayContain(key []byte) bool { return f.MayContainHash(HashKey(key)) }

// MayContainHash is MayContain for the key that hashed to h: a read that
// probes the filters of many partitions hashes its key once.
func (f *Filter) MayContainHash(h Hash) bool {
	for i := uint32(0); i < f.k; i++ {
		bit := (h.h1 + uint64(i)*h.h2) % f.m
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// SizeBytes returns the memory footprint of the bit array.
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }

// PrefixFilter is a bloom filter over key prefixes at least the prefix
// length long. A range scan whose bounds share that many leading bytes or
// more can consult it to skip partitions (§4.7 "prefix Bloom Filters"): it
// answers for the longest prefix the bounds share.
type PrefixFilter struct {
	f         *Filter
	prefixLen int
}

// NewPrefix returns a prefix filter for n prefix hashes with the given
// prefix length.
func NewPrefix(n, bitsPerKey, prefixLen int) *PrefixFilter {
	if prefixLen < 1 {
		prefixLen = 1
	}
	return &PrefixFilter{f: New(n, bitsPerKey), prefixLen: prefixLen}
}

// AddHash inserts the prefix that hashed to h. Every key must be given as
// HashKey of each of its prefixes of prefix length or more, the whole key
// included; a prefix already given for an earlier key need not be given
// again, and a key shorter than the prefix length gives none.
func (p *PrefixFilter) AddHash(h Hash) { p.f.AddHash(h) }

// RangeProbe is what a range scan over [lo, hi) asks each prefix filter:
// the longest prefix lo and hi share, which every key between them carries,
// as its length and its hash. A scan computes it once for all partitions.
type RangeProbe struct {
	n int
	h Hash
}

// NewRangeProbe returns the probe for [lo, hi).
func NewRangeProbe(lo, hi []byte) RangeProbe {
	n := util.CommonPrefix(lo, hi)
	return RangeProbe{n: n, h: HashKey(lo[:n])}
}

// MayContainRange reports whether any key in the probe's range might be
// present. Bounds that share less than the prefix length leave it unable to
// decide, and it answers true.
func (p *PrefixFilter) MayContainRange(r RangeProbe) bool {
	return r.n < p.prefixLen || p.f.MayContainHash(r.h)
}

// SizeBytes returns the memory footprint of the bit array.
func (p *PrefixFilter) SizeBytes() int { return p.f.SizeBytes() }
