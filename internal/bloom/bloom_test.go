package bloom

import (
	"fmt"
	"testing"

	"mvpbt/internal/util"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(10000, 10)
	for i := 0; i < 10000; i++ {
		f.Add([]byte(fmt.Sprintf("key-%08d", i)))
	}
	for i := 0; i < 10000; i++ {
		if !f.MayContain([]byte(fmt.Sprintf("key-%08d", i))) {
			t.Fatalf("false negative for key-%08d", i)
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	f := New(10000, 10)
	for i := 0; i < 10000; i++ {
		f.Add([]byte(fmt.Sprintf("key-%08d", i)))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.MayContain([]byte(fmt.Sprintf("absent-%08d", i))) {
			fp++
		}
	}
	rate := float64(fp) / probes
	// 10 bits/key gives ~1%; allow generous slack.
	if rate > 0.05 {
		t.Fatalf("false positive rate %.3f too high", rate)
	}
}

func TestEmptyFilterRejectsEverything(t *testing.T) {
	f := New(100, 10)
	hits := 0
	for i := 0; i < 1000; i++ {
		if f.MayContain([]byte(fmt.Sprintf("k%d", i))) {
			hits++
		}
	}
	if hits != 0 {
		t.Fatalf("empty filter answered yes %d times", hits)
	}
}

func TestTinyAndDegenerate(t *testing.T) {
	f := New(0, 0) // clamped internally
	f.Add([]byte{})
	if !f.MayContain([]byte{}) {
		t.Fatal("empty key lost")
	}
	if f.SizeBytes() < 8 {
		t.Fatal("filter has no storage")
	}
}

func TestSizeScalesWithKeys(t *testing.T) {
	small := New(1000, 10)
	big := New(100000, 10)
	if big.SizeBytes() <= small.SizeBytes() {
		t.Fatal("size does not scale with n")
	}
	// Paper Figure 13: filter size is small relative to partition size
	// (0.57MB filter for 24MB partition ≈ 2.4%). With 10 bits/key and
	// ~100-byte records: 10 bits vs 800 bits per record ≈ 1.25%.
	if big.SizeBytes() > 100000*2 {
		t.Fatalf("filter unexpectedly large: %d bytes for 100k keys", big.SizeBytes())
	}
}

func TestPrefixFilterRangeSkipping(t *testing.T) {
	// Keys are grouped under 4-byte prefixes "aaaa", "bbbb", added in sort
	// order by the insertion rule of AddHash: each prefix of four bytes or
	// more that the previous key does not share.
	var keys [][]byte
	for _, g := range []string{"aaaa", "bbbb"} {
		for i := 0; i < 500; i++ {
			keys = append(keys, []byte(fmt.Sprintf("%s-%04d", g, i)))
		}
	}
	var hs []Hash
	var prev []byte
	for _, k := range keys {
		for l := max(4, util.CommonPrefix(prev, k)+1); l <= len(k); l++ {
			hs = append(hs, HashKey(k[:l]))
		}
		prev = k
	}
	p := NewPrefix(len(hs), 10, 4)
	for _, h := range hs {
		p.AddHash(h)
	}
	if !p.MayContainRange(NewRangeProbe([]byte("aaaa-0000"), []byte("aaaa-9999"))) || !p.MayContainRange(NewRangeProbe([]byte("bbbb-0120"), []byte("bbbb-0125"))) {
		t.Fatal("false negative on present prefix range")
	}
	if p.MayContainRange(NewRangeProbe([]byte("cccc-0000"), []byte("cccc-9999"))) {
		t.Fatal("absent prefix range not skipped (could be a false positive, but with 2 prefixes it must not)")
	}
	// The bounds share "aaaa-07", longer than the prefix length and held by
	// no key: skipped too.
	if p.MayContainRange(NewRangeProbe([]byte("aaaa-0700"), []byte("aaaa-0799"))) {
		t.Fatal("absent longer prefix range not skipped")
	}
	// Bounds with different prefixes: cannot decide, must answer true.
	if !p.MayContainRange(NewRangeProbe([]byte("cccc-0000"), []byte("dddd-9999"))) {
		t.Fatal("cross-prefix range must answer true")
	}
	// Short bounds: cannot decide.
	if !p.MayContainRange(NewRangeProbe([]byte("cc"), []byte("cc"))) {
		t.Fatal("short bounds must answer true")
	}
}

func TestHashIndependence(t *testing.T) {
	// Distinct keys should rarely collide on both hashes.
	seen := map[[2]uint64]bool{}
	r := util.NewRand(1)
	for i := 0; i < 5000; i++ {
		k := make([]byte, 12)
		r.Letters(k)
		h1, h2 := hash2(k)
		pair := [2]uint64{h1, h2}
		if seen[pair] {
			t.Fatal("double-hash collision on random keys")
		}
		seen[pair] = true
	}
}
