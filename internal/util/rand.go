// Package util provides small shared helpers: deterministic random number
// generation, workload key-distribution generators (uniform, zipfian,
// latest), and order-preserving key codecs used by the storage engine and
// the benchmark workloads.
package util

// Rand is a small, fast, deterministic PRNG (xorshift64*). It is not safe
// for concurrent use; give each goroutine its own instance.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. A zero seed is replaced by a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("util: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0.0, 1.0).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// IntRange returns a pseudo-random int in [lo, hi] inclusive.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("util: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Letters fills buf with pseudo-random lower-case letters.
func (r *Rand) Letters(buf []byte) {
	for i := range buf {
		buf[i] = byte('a' + r.Intn(26))
	}
}

// FNV64a hashes b with the 64-bit FNV-1a function. It is used to scramble
// zipfian ranks into a key space (YCSB "scrambled zipfian").
func FNV64a(x uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= x & 0xFF
		h *= prime
		x >>= 8
	}
	return h
}
