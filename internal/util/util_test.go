package util

import (
	"bytes"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced stuck generator")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestIntRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.IntRange(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("IntRange out of range: %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
}

func TestUniformRange(t *testing.T) {
	u := NewUniform(NewRand(1), 100)
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		v := u.Next()
		if v >= 100 {
			t.Fatalf("uniform out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) < 90 {
		t.Fatalf("uniform covered only %d/100 items", len(seen))
	}
}

func TestZipfianSkew(t *testing.T) {
	z := NewZipfian(NewRand(3), 1000, ZipfianConstant)
	counts := make([]int, 1000)
	n := 100000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("zipfian out of range: %d", v)
		}
		counts[v]++
	}
	// Item 0 must be by far the most popular: ~1/zeta(1000) of requests.
	if counts[0] < n/20 {
		t.Fatalf("zipfian head not popular enough: %d/%d", counts[0], n)
	}
	// The tail should still be hit occasionally.
	tail := 0
	for _, c := range counts[500:] {
		tail += c
	}
	if tail == 0 {
		t.Fatal("zipfian never hit the tail half")
	}
	if counts[0] <= counts[500] {
		t.Fatal("zipfian head not more popular than tail")
	}
}

func TestScrambledZipfianSpreads(t *testing.T) {
	s := NewScrambledZipfian(NewRand(5), 1000)
	seen := make(map[uint64]bool)
	for i := 0; i < 50000; i++ {
		v := s.Next()
		if v >= 1000 {
			t.Fatalf("scrambled zipfian out of range: %d", v)
		}
		seen[v] = true
	}
	// Hot items are hashed across the space; a decent fraction is touched.
	if len(seen) < 200 {
		t.Fatalf("scrambled zipfian touched only %d items", len(seen))
	}
}

func TestLatestSkewsToRecent(t *testing.T) {
	l := NewLatest(NewRand(9), 1000)
	recent := 0
	n := 50000
	for i := 0; i < n; i++ {
		v := l.Next()
		if v >= 1000 {
			t.Fatalf("latest out of range: %d", v)
		}
		if v >= 900 {
			recent++
		}
	}
	if recent < n/2 {
		t.Fatalf("latest distribution not skewed to recent: %d/%d in top decile", recent, n)
	}
	l.SetMax(2000)
	for i := 0; i < 1000; i++ {
		if v := l.Next(); v >= 2000 {
			t.Fatalf("latest out of extended range: %d", v)
		}
	}
}

func TestEncodeUint64OrderPreserving(t *testing.T) {
	f := func(a, b uint64) bool {
		ea := EncodeUint64(nil, a)
		eb := EncodeUint64(nil, b)
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(u uint64, v uint32) bool {
		if DecodeUint64(EncodeUint64(nil, u)) != u {
			return false
		}
		return DecodeUint32(EncodeUint32(nil, v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetBytes(t *testing.T) {
	f := func(b []byte, trailer []byte) bool {
		enc := PutBytes(nil, b)
		enc = append(enc, trailer...)
		got, n, ok := GetBytes(enc)
		return ok && bytes.Equal(got, b) && n == len(enc)-len(trailer)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Bytes off a device: a prefix cut short, a string cut short, a length
	// past the end of the buffer and a varint that overflows are all refused.
	for _, bad := range [][]byte{
		nil, {0x80}, {3, 'a', 'b'}, {0xff, 0xff, 0xff, 0xff, 0x0f, 'a'},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	} {
		if got, n, ok := GetBytes(bad); ok || n != 0 || got != nil {
			t.Errorf("GetBytes(%x) = %x, %d, %v; want refused", bad, got, n, ok)
		}
	}
}

func TestVarintRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		enc := PutUvarint(nil, v)
		got, n := Uvarint(enc)
		return got == v && n == len(enc) && UvarintLen(v) == len(enc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{0, 1<<7 - 1, 1 << 7, 1<<14 - 1, 1 << 14, 1<<63 - 1, 1 << 63} {
		if !f(v) {
			t.Fatalf("varint of %d", v)
		}
	}
}

func TestCommonPrefix(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 3},
		{"abc", "abd", 2},
		{"abc", "xbc", 0},
		{"ab", "abcd", 2},
		{"abcd", "ab", 2},
	}
	for _, c := range cases {
		if got := CommonPrefix([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("CommonPrefix(%q,%q)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFNV64aDisperses(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 1000; i++ {
		seen[FNV64a(i)] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("FNV64a collided on sequential inputs: %d unique", len(seen))
	}
}

// TestQuantileNearestRank pins the one percentile rule: the sample at rank
// ceil(p·n). Samples are 1..n, so the value read is the rank itself.
func TestQuantileNearestRank(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		want int64
	}{
		{0, 0.99, 0},
		{1, 0.5, 1}, {1, 0.99, 1}, {1, 0.999, 1},
		{2, 0.5, 1}, {2, 0.99, 2}, {2, 0.999, 2},
		{100, 0.5, 50}, {100, 0.99, 99}, {100, 0.999, 100}, // p99 of 100 is the 99th, not the maximum
		{101, 0.5, 51}, {101, 0.99, 100}, {101, 0.999, 101},
		{100, 0, 1}, {100, 1, 100},
	}
	for _, c := range cases {
		if got := Quantile(seq(c.n), c.p); got != c.want {
			t.Errorf("Quantile(1..%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	// The float rank agrees with the integer formula the scenario
	// fingerprints were recorded under, for every sample count.
	for n := 1; n <= 5000; n++ {
		if got, want := Quantile(seq(n), 0.99), int64((n*99+99)/100); got != want {
			t.Fatalf("n=%d: p99 rank %d, integer formula %d", n, got, want)
		}
	}
}

// TestSlabRecycle: runs are carved one after another from a chunk, a run
// longer than a chunk gets a chunk of its own, and after Recycle the next
// runs are carved from the recycled chunks, allocating nothing. A chunk
// passed on and not carved from is not passed on again.
func TestSlabRecycle(t *testing.T) {
	var old Slab[byte]
	a, b := old.Alloc(100), old.Alloc(200)
	if uintptr(unsafe.Pointer(&b[0]))-uintptr(unsafe.Pointer(&a[0])) != 100 || cap(a) != 100 {
		t.Fatal("two short runs are not carved one after the other")
	}
	big := old.Alloc(1 << 20)
	var s Slab[byte]
	s.Recycle(&old)
	if len(old.used)+len(old.free)+len(old.cur) != 0 {
		t.Fatal("Recycle left chunks behind")
	}
	runs := make([]*byte, 0, 16)
	if n := testing.AllocsPerRun(10, func() { runs = append(runs, &s.Alloc(1000)[0]) }); n != 0 || runs[0] != &big[0] {
		t.Fatalf("after Recycle: %.0f allocations a run; the first run is at %p, the recycled chunk at %p", n, runs[0], &big[0])
	}
	var next Slab[byte]
	next.Recycle(&s)
	if len(next.free) != 1 || &next.free[0][0] != &big[0] {
		t.Fatalf("the next Recycle passed on %d chunks, want the one carved from", len(next.free))
	}
}
