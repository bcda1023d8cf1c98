package buffer

import (
	"testing"

	"mvpbt/internal/sfile"
	"mvpbt/internal/util"
)

// Replacement-policy tests. Every assertion is a count: residency, device
// reads, write-backs.

// resident reports whether page no of f is cached, without touching it.
func resident(p *Pool, f *sfile.File, no uint64) bool {
	pid := f.PageID(no)
	sh := p.shardOf(pid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.table[pid]
	return ok
}

// touch fetches and releases page no of f.
func touch(t *testing.T, p *Pool, f *sfile.File, no uint64) {
	t.Helper()
	fr, err := p.Get(f, no)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr, false)
}

// TestPolicyHitsBuySweepsUpToTheCap: a page touched k times (its load is the
// first) survives k passes of the clock hand, and never more than maxUse.
// The pool has two frames, A in the first and the second kept free, so every
// miss is exactly one pass of the hand over A.
func TestPolicyHitsBuySweepsUpToTheCap(t *testing.T) {
	for k := 1; k <= maxUse+3; k++ {
		p, m := setup(2)
		f, start := runFile(t, m, 16)
		for i := 0; i < k; i++ {
			touch(t, p, f, start) // A: one load, k-1 hits
		}
		if st := p.Stats()[sfile.ClassIndex]; st.Requests != int64(k) || st.Hits != int64(k-1) {
			t.Fatalf("%d touches counted as %+v", k, st)
		}
		survived := -1 // the first miss takes the second frame and leaves the hand on A
		for i := 1; i < 16; i++ {
			touch(t, p, f, start+uint64(i))
			p.DropFilePages(f, start+uint64(i), 1)
			if !resident(p, f, start) {
				break
			}
			survived++
		}
		if want := min(k, maxUse); survived != want {
			t.Fatalf("a page touched %d times survived %d passes of the hand, want %d", k, survived, want)
		}
	}
}

// TestPolicyDirtyPagePassesOnce: a dirty page at count 0 is passed over while the
// revolution finds clean victims, is written back exactly once when a whole
// revolution finds none, and comes back intact.
func TestPolicyDirtyPagePassesOnce(t *testing.T) {
	p, m := setup(4)
	f, start := runFile(t, m, 16)
	dev := m.Device()
	d, dno, err := p.NewPage(f) // D: dirty, in the first frame
	if err != nil {
		t.Fatal(err)
	}
	d.Data()[100] = 0xD1
	p.Unpin(d, true)
	for i := 0; i < 3; i++ {
		touch(t, p, f, start+uint64(i))
	}
	// A miss into a freed frame walks the hand over D and the two clean
	// pages before it: all three are at count 0 now, the hand is back on D.
	p.DropFilePages(f, start+2, 1)
	touch(t, p, f, start+3)
	writes := dev.Stats().Writes
	for i := 4; i < 7; i++ { // three misses, three clean victims, D passed twice
		touch(t, p, f, start+uint64(i))
		if !resident(p, f, dno) {
			t.Fatalf("miss %d took the dirty page while clean victims were left", i-3)
		}
	}
	if resident(p, f, start) || resident(p, f, start+1) || p.Evictions() != 0 || dev.Stats().Writes != writes {
		t.Fatalf("clean victims not taken first: %d write-backs, %d device writes", p.Evictions(), dev.Stats().Writes-writes)
	}
	// Pin the three clean pages: the next miss finds no clean victim in a
	// revolution and takes D on the second, writing it back once.
	var held []*Frame
	for i := 4; i < 7; i++ {
		fr, err := p.Get(f, start+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, fr)
	}
	touch(t, p, f, start+7)
	if resident(p, f, dno) || p.Evictions() != 1 || dev.Stats().Writes != writes+1 {
		t.Fatalf("dirty page with no clean victim: resident %v, %d write-backs, %d device writes, want it taken with one of each",
			resident(p, f, dno), p.Evictions(), dev.Stats().Writes-writes)
	}
	for _, fr := range held {
		p.Unpin(fr, false)
	}
	fr, err := p.Get(f, dno)
	if err != nil || fr.Data()[100] != 0xD1 {
		t.Fatalf("dirty page lost across its write-back: %v", err)
	}
	p.Unpin(fr, false)
	if p.Evictions() != 1 {
		t.Fatalf("%d write-backs after the reload, want still 1", p.Evictions())
	}
}

// TestPolicyVictimWhenAllAtTheCap: a shard whose unpinned frames all sit at the
// cap, dirty or clean, still yields a victim (the sweep bound follows
// maxUse), and an all-dirty one pays exactly one write-back for it.
func TestPolicyVictimWhenAllAtTheCap(t *testing.T) {
	for _, dirty := range []bool{false, true} {
		p, m := setup(4)
		f := m.Create("t", sfile.ClassTable)
		pinned, _, err := p.NewPage(f) // a pinned frame lengthens the sweep, it must not end it
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			fr, no, err := p.NewPage(f)
			if err != nil {
				t.Fatal(err)
			}
			p.Unpin(fr, true)
			if !dirty {
				if err := p.FlushAll(); err != nil {
					t.Fatal(err)
				}
			}
			for h := 0; h < maxUse+2; h++ {
				touch(t, p, f, no)
			}
		}
		for _, sh := range p.shards {
			for _, fr := range sh.frames {
				if fr != pinned && (fr.use != maxUse || fr.dirty != dirty) {
					t.Fatalf("setup: frame at count %d dirty %v, want %d %v", fr.use, fr.dirty, maxUse, dirty)
				}
			}
		}
		fr, _, err := p.NewPage(f)
		if err != nil {
			t.Fatalf("dirty %v: every unpinned frame at the cap: %v, want a victim", dirty, err)
		}
		p.Unpin(fr, true)
		p.Unpin(pinned, true)
		want := int64(0)
		if dirty {
			want = 1
		}
		if p.Evictions() != want {
			t.Fatalf("dirty %v: %d write-backs for one victim, want %d", dirty, p.Evictions(), want)
		}
	}
}

// TestPolicyReplacementDomains: a shard is a replacement domain of at least
// minFramesPerShard frames, and big pools keep all maxShards latches.
func TestPolicyReplacementDomains(t *testing.T) {
	for _, c := range []struct{ frames, shards int }{{255, 1}, {512, 4}, {1024, 8}, {2048, 16}, {4096, 16}} {
		if got := len(New(c.frames).shards); got != c.shards {
			t.Fatalf("%d frames: %d shards, want %d", c.frames, got, c.shards)
		}
	}
}

// poolTrace is a pool of the htap benchmark's size under a skewed page
// trace: scrambled-zipfian fetches over a file four times the pool, 5 % of
// them dirtying. Which 5 % decides what the dirty pass costs: a database
// writes a set of pages (heap tails, VID-map pages), so by default one page in
// twenty is a written page and every fetch of it dirties it; with anyPage one
// fetch in twenty dirties whatever page it hit, so that with nothing cleaning
// the pool behind the policy every page in it is dirty sooner or later.
type poolTrace struct {
	p       *Pool
	f       *sfile.File
	pages   []uint64
	rnd     *util.Rand
	zipf    *util.ScrambledZipfian
	anyPage bool
}

const traceFrames = 512

func newPoolTrace(tb testing.TB, anyPage bool) *poolTrace {
	p, m := setup(traceFrames)
	tr := &poolTrace{p: p, f: m.Create("trace", sfile.ClassTable), rnd: util.NewRand(21), anyPage: anyPage}
	for i := 0; i < 4*traceFrames; i++ {
		fr, no, err := p.NewPage(tr.f)
		if err != nil {
			tb.Fatal(err)
		}
		p.Unpin(fr, true)
		tr.pages = append(tr.pages, no)
	}
	if err := p.EvictAll(); err != nil {
		tb.Fatal(err)
	}
	p.ResetStats()
	tr.zipf = util.NewScrambledZipfian(tr.rnd, uint64(len(tr.pages)))
	return tr
}

// run makes ops fetches and returns the device reads and write-backs they
// took.
func (tr *poolTrace) run(tb testing.TB, ops int) (reads, writeBacks int64) {
	r0, w0 := tr.p.IOStats().Reads, tr.p.Evictions()
	for i := 0; i < ops; i++ {
		page := tr.zipf.Next()
		fr, err := tr.p.Get(tr.f, tr.pages[page])
		if err != nil {
			tb.Fatal(err)
		}
		if tr.anyPage {
			tr.p.Unpin(fr, tr.rnd.Intn(20) == 0)
		} else {
			tr.p.Unpin(fr, page%20 == 0)
		}
	}
	return tr.p.IOStats().Reads - r0, tr.p.Evictions() - w0
}

// TestPolicyTraceBeatsTheReferenceBit compares 200 000 fetches of the trace
// with what the parent's policy — sixteen 32-frame clocks with a reference
// bit, dirty and clean victims alike — took for them (this file's poolTrace
// at commit 1df94df): 38 449 device reads and 1 897 write-backs with written
// pages, 38 708 and 4 329 with anyPage. With written pages the usage-count
// clock must take strictly fewer of both. With anyPage the dirty pass keeps
// cold dirty pages over warm clean ones and the reads rise (42 070): there it
// must take fewer write-backs and less device time, a write-back costing 16
// reads (paper Fig. 8).
func TestPolicyTraceBeatsTheReferenceBit(t *testing.T) {
	reads, writeBacks := newPoolTrace(t, false).run(t, 200000)
	t.Logf("written pages: %d device reads, %d write-backs (parent 38449, 1897)", reads, writeBacks)
	if reads >= 38449 || writeBacks >= 1897 {
		t.Fatalf("written pages: %d device reads, %d write-backs: want fewer than the parent's 38449 and 1897", reads, writeBacks)
	}
	reads, writeBacks = newPoolTrace(t, true).run(t, 200000)
	t.Logf("any page: %d device reads, %d write-backs (parent 38708, 4329)", reads, writeBacks)
	if writeBacks >= 4329 || reads+16*writeBacks >= 38708+16*4329 {
		t.Fatalf("any page: %d device reads, %d write-backs: want fewer write-backs and less device time than the parent's 38708 and 4329", reads, writeBacks)
	}
}

// BenchmarkPoolTrace reports what a fetch of either trace costs the device
// once the pool is warm: counts, so they repeat at a fixed -benchtime.
func BenchmarkPoolTrace(b *testing.B) {
	for _, anyPage := range []bool{false, true} {
		b.Run(map[bool]string{false: "written-pages", true: "any-page"}[anyPage], func(b *testing.B) {
			tr := newPoolTrace(b, anyPage)
			tr.run(b, 8*traceFrames)
			b.ResetTimer()
			reads, writeBacks := tr.run(b, b.N)
			b.ReportMetric(float64(reads)/float64(b.N), "dev-reads/op")
			b.ReportMetric(float64(writeBacks)/float64(b.N), "write-backs/op")
		})
	}
}
