// Package buffer implements the shared database buffer pool: a fixed set
// of page frames with usage-count clock replacement, pin counts, dirty
// write-back, and per-class request/hit statistics (the paper's Figure 12d
// compares index-node against base-table-node buffer traffic).
//
// The frame set is split into shards addressed by a hash of the page id,
// each with its own latch, page table, and clock hand, so page fetches
// from parallel clients do not contend on one pool-wide lock. A shard is
// also a replacement domain, so it is never small (minFramesPerShard): pools
// under 256 frames are a single shard.
package buffer

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"mvpbt/internal/page"
	"mvpbt/internal/sfile"
	"mvpbt/internal/ssd"
	"mvpbt/internal/storage"
)

// ErrNoFrames is returned when every frame (of the page's shard) is pinned
// and none can be evicted.
var ErrNoFrames = errors.New("buffer: all frames pinned")

// IOStats counts the pool's error-path activity — checksum verification
// failures on fetch, in-line retries, and operations that failed even after
// retrying — and the device reads that succeeded with the pages they brought
// in (PagesRead/Reads is 1 without run reads).
type IOStats struct {
	Reads, PagesRead int64
	ChecksumFailures int64
	ReadRetries      int64
	WriteRetries     int64
	ReadFailures     int64
	WriteFailures    int64
}

// ClassStats counts buffer traffic for one file class.
type ClassStats struct {
	Requests int64 // page fetches through the pool
	Hits     int64 // served without device I/O
}

// classCounter is the internal atomic form of ClassStats.
type classCounter struct {
	requests atomic.Int64
	hits     atomic.Int64
}

// Frame is a pinned buffer page. Callers must Unpin every frame they
// fetched, stating whether they dirtied it.
type Frame struct {
	sh    *shard
	pid   storage.PageID
	file  *sfile.File
	data  []byte
	pin   int
	dirty bool
	use   uint8 // usage count: 1 when loaded, +1 per hit up to maxUse, -1 per pass of the clock hand
	ahead bool  // installed by a run read and not yet fetched: its first fetch is the miss
}

// Data returns the frame's page buffer.
func (fr *Frame) Data() []byte { return fr.data }

// shard is one latch domain: a slice of the pool's frames with its own
// page table and clock hand.
type shard struct {
	mu     sync.Mutex
	frames []*Frame
	table  map[storage.PageID]*Frame
	hand   int
}

// Sharding bounds: never fewer than minFramesPerShard frames per shard — page
// ids hash unevenly over small clocks, and a hot page in a crowded one leaves
// as fast as a cold leaf — and never more than maxShards shards. maxUse caps
// the usage count: how many passes of the hand a page's hits can buy it.
const (
	minFramesPerShard = 128
	maxShards         = 16
	maxUse            = 3
)

// Pool is the shared buffer pool. All methods are safe for concurrent use.
type Pool struct {
	shards []*shard
	mask   uint64
	stats  [sfile.NumClasses]classCounter
	// evictions counts pages written back dirty (random in-place writes).
	evictions atomic.Int64

	// Error-path counters (see IOStats).
	checksumFails atomic.Int64
	readRetries   atomic.Int64
	writeRetries  atomic.Int64
	readFailures  atomic.Int64
	writeFailures atomic.Int64

	// Device reads that brought pages in, and the pages they brought: equal
	// but for run reads (GetRun).
	reads, pagesRead atomic.Int64

	// sealed queues full append pages for write-back in runs (Seal). sealMu
	// is taken before any shard latch.
	sealMu sync.Mutex
	sealed []storage.PageID
}

// New returns a pool with the given number of page frames.
func New(nFrames int) *Pool {
	if nFrames < 2 {
		nFrames = 2
	}
	nShards := 1
	for nShards < maxShards && nFrames/(nShards*2) >= minFramesPerShard {
		nShards *= 2
	}
	p := &Pool{
		shards: make([]*shard, nShards),
		mask:   uint64(nShards - 1),
		sealed: make([]storage.PageID, 0, sfile.ExtentPages),
	}
	for i := range p.shards {
		// Spread the remainder over the first shards.
		n := nFrames / nShards
		if i < nFrames%nShards {
			n++
		}
		sh := &shard{
			frames: make([]*Frame, n),
			table:  make(map[storage.PageID]*Frame, n),
		}
		for j := range sh.frames {
			sh.frames[j] = &Frame{sh: sh, data: make([]byte, storage.PageSize)}
		}
		p.shards[i] = sh
	}
	return p
}

// shardOf picks the shard for a page id (Fibonacci hash of the full id, so
// consecutive pages of one file spread across shards).
func (p *Pool) shardOf(pid storage.PageID) *shard { return p.shards[p.shardIndex(pid)] }

func (p *Pool) shardIndex(pid storage.PageID) uint64 {
	return (uint64(pid) * 0x9E3779B97F4A7C15) >> 32 & p.mask
}

// lockAll acquires every shard latch in index order (the only multi-shard
// lock order, so pool-wide operations cannot deadlock each other).
func (p *Pool) lockAll() {
	for _, sh := range p.shards {
		sh.mu.Lock()
	}
}

func (p *Pool) unlockAll() {
	for _, sh := range p.shards {
		sh.mu.Unlock()
	}
}

// Get fetches page pageNo of file f, pinning it. The returned frame must be
// released with Unpin.
func (p *Pool) Get(f *sfile.File, pageNo uint64) (*Frame, error) {
	fr, _, err := p.fetch(f, pageNo, 1)
	return fr, err
}

// MaxRun is the most pages one device read brings in (GetRun): 64 KiB, the
// second calibration point of the device profiles.
const MaxRun = 8

// GetRun is Get by a sequential reader that expects to read the n pages
// starting at pageNo: when pageNo misses, the non-resident pages after it
// come in with the same device read — up to MaxRun in all, to the end of the
// extent, stopping at the first page that is resident or finds no frame — and
// wait unpinned for their own fetch, which counts as the miss it would have
// been. A run that fails or holds a corrupt page installs nothing, and pageNo
// is fetched alone as by Get, which retries and reports. read is how many
// pages this fetch brought in from the device: 0 when pageNo was resident.
func (p *Pool) GetRun(f *sfile.File, pageNo uint64, n int) (fr *Frame, read int, err error) {
	return p.fetch(f, pageNo, min(n, MaxRun, sfile.ExtentPages-int(pageNo%sfile.ExtentPages)))
}

// fetch is the one page fetch; run says how many pages from pageNo on a miss
// may read at once, and read how many it did.
func (p *Pool) fetch(f *sfile.File, pageNo uint64, run int) (*Frame, int, error) {
	pid := f.PageID(pageNo)
	p.stats[f.Class()].requests.Add(1)
	sh := p.shardOf(pid)
	sh.mu.Lock()
	if fr, ok := sh.table[pid]; ok {
		if fr.ahead {
			fr.ahead = false
		} else {
			p.stats[f.Class()].hits.Add(1)
			if fr.use < maxUse {
				fr.use++
			}
		}
		fr.pin++
		sh.mu.Unlock()
		return fr, 0, nil
	}
	fr, err := sh.victimLocked(p)
	if err != nil {
		sh.mu.Unlock()
		return nil, 0, err
	}
	// The read happens under the shard latch so a concurrent Get for the
	// same page cannot observe a half-filled frame. The device is simulated,
	// so holding the latch across the "I/O" costs nothing real. The frame is
	// installed in the page table only once the read verified, so a failed
	// fetch leaves it free for the next victim search.
	fr.pin = 1
	n := p.readRun(f, pageNo, run, fr)
	if n == 0 {
		if err := p.ReadPages(f, pageNo, [][]byte{fr.data}); err != nil {
			fr.pin = 0
			sh.mu.Unlock()
			return nil, 0, err
		}
		n = 1
	}
	p.reads.Add(1)
	p.pagesRead.Add(int64(n))
	fr.install(f, pid)
	sh.mu.Unlock()
	return fr, n, nil
}

// install enters a frame holding a clean page — verified, or new and about
// to be marked dirty — in its shard's table.
func (fr *Frame) install(f *sfile.File, pid storage.PageID) {
	fr.pid, fr.file = pid, f
	fr.use, fr.dirty = 1, false
	fr.sh.table[pid] = fr
}

// readRun reads page pageNo into first — a victim of its latched shard — and
// up to run-1 following pages into victims of their own shards with ONE device
// read, and installs the followers unpinned. It returns the pages read: 0,
// with nothing installed, when the run failed, held a corrupt page or found
// no second frame. A follower's shard is latched by TryLock only — the caller
// holds a latch already, and waiting for a second in no fixed order could
// deadlock — so a busy shard ends the run; held has a bit per latch taken.
func (p *Pool) readRun(f *sfile.File, pageNo uint64, run int, first *Frame) int {
	if run < 2 {
		return 0
	}
	var frames [MaxRun]*Frame
	var bufs [MaxRun][]byte
	frames[0], bufs[0] = first, first.data
	held, n := uint(0), 1
	for ; n < run; n++ {
		pid := f.PageID(pageNo + uint64(n))
		i := p.shardIndex(pid)
		sh := p.shards[i]
		if sh != first.sh && held&(1<<i) == 0 {
			if !sh.mu.TryLock() {
				break
			}
			held |= 1 << i
		}
		if _, resident := sh.table[pid]; resident {
			break
		}
		fr, err := sh.victimLocked(p)
		if err != nil { // no frame, or its write-back failed
			break
		}
		fr.pin = 1 // reserved: the next victim search of this shard passes it
		frames[n], bufs[n] = fr, fr.data
	}
	ok := n > 1 && f.ReadPages(pageNo, bufs[:n]) == nil
	for i := 0; i < n && ok; i++ {
		ok = page.VerifyChecksum(bufs[i])
	}
	for i, fr := range frames[1:n] {
		fr.pin = 0
		if ok {
			fr.install(f, f.PageID(pageNo+uint64(i+1)))
			fr.ahead = true
		}
	}
	for i, sh := range p.shards {
		if held&(1<<i) != 0 {
			sh.mu.Unlock()
		}
	}
	if ok {
		return n
	}
	if n > 1 {
		p.readRetries.Add(1) // the fetch of pageNo alone that follows is the retry
	}
	return 0
}

// ReadPages is the one checked read, for the frames and around them (a
// sequential reader of immutable pages, see part.Reader): the len(bufs)
// pages of f from pageNo on, which lie in one extent, with one device read a
// try, each page verified against its checksum. Tries are bounded
// (storage.Retry: I/O faults are transient, freed-page references fail
// immediately), and the outcome lands in IOStats.
func (p *Pool) ReadPages(f *sfile.File, pageNo uint64, bufs [][]byte) error {
	retries, err := storage.Retry(func() error {
		if err := f.ReadPages(pageNo, bufs); err != nil {
			return err
		}
		for i, buf := range bufs {
			if !page.VerifyChecksum(buf) {
				// A checksum mismatch is media rot, not a transient transfer
				// failure: re-reading returns the same rotted bytes. Surface it
				// immediately so the caller can quarantine the page.
				p.checksumFails.Add(1)
				return fmt.Errorf("buffer: page %d of %q: %w", pageNo+uint64(i), f.Name(), storage.ErrCorruptPage)
			}
		}
		return nil
	})
	p.readRetries.Add(int64(retries))
	if err != nil {
		p.readFailures.Add(1)
	}
	return err
}

// WritePage is the one checked write, for the frames and around them (a
// partition under construction, see part.Builder): buf gets its checksum
// stamped and goes to page pageNo of f with bounded tries, booked to cause
// c, and the outcome lands in IOStats.
func (p *Pool) WritePage(f *sfile.File, pageNo uint64, buf []byte, c ssd.Cause) error {
	page.StampChecksum(buf)
	retries, err := storage.Retry(func() error { return f.WriteSectors(pageNo, 0, buf, c) })
	p.writeRetries.Add(int64(retries))
	if err != nil {
		p.writeFailures.Add(1)
	}
	return err
}

// NewPage allocates a fresh page in f, returning a pinned zeroed frame and
// the new page number.
func (p *Pool) NewPage(f *sfile.File) (*Frame, uint64, error) {
	pageNo, err := f.AllocPage()
	if err != nil {
		return nil, 0, err
	}
	pid := f.PageID(pageNo)
	p.stats[f.Class()].requests.Add(1)
	p.stats[f.Class()].hits.Add(1) // fresh pages never touch the device
	sh := p.shardOf(pid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fr, err := sh.victimLocked(p)
	if err != nil {
		return nil, 0, err
	}
	fr.pin = 1
	clear(fr.data)
	fr.install(f, pid)
	fr.dirty = true
	return fr, pageNo, nil
}

// victimLocked finds a free or evictable frame in the shard: the hand
// lowers the usage count of each unpinned frame it passes and takes one it
// finds at 0. A dirty frame at 0 is passed during the first revolution and
// written back only when that found no clean victim: a random page write
// costs the device about 16 random reads (paper Fig. 8), so evicting a dirty
// page is dearer than the misses of any clean one. The sweep is bounded by
// maxUse revolutions, which bring every unpinned frame to 0, and one more,
// which takes the first of them, dirty or not.
func (sh *shard) victimLocked(p *Pool) (*Frame, error) {
	n := len(sh.frames)
	for sweep := 0; sweep < (maxUse+1)*n; sweep++ {
		fr := sh.frames[sh.hand]
		sh.hand = (sh.hand + 1) % n
		if fr.pin > 0 {
			continue
		}
		if fr.use > 0 {
			fr.use--
			continue
		}
		if fr.dirty {
			if sweep < n {
				continue
			}
			if err := p.writeBack(fr); err != nil {
				return nil, err
			}
			p.evictions.Add(1)
		}
		if fr.pid.Valid() {
			delete(sh.table, fr.pid)
			fr.pid = storage.InvalidPageID
		}
		return fr, nil
	}
	return nil, ErrNoFrames
}

// Unpin releases a frame fetched with Get or NewPage. dirty marks the page
// as modified, to be written back on eviction or flush.
func (p *Pool) Unpin(fr *Frame, dirty bool) {
	sh := fr.sh
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fr.pin <= 0 {
		panic("buffer: Unpin of unpinned frame")
	}
	fr.pin--
	if dirty {
		fr.dirty = true
	}
}

// Seal queues page pageNo of f — a full append page (see heap.SiasHeap) —
// for write-back. Written alone the moment it fills, each such page would
// follow another file's write and cost a random one; instead, once
// sfile.ExtentPages pages are queued, they are written back together in
// page-id order, the elevator order of EvictAll, so each file's pages reach
// the device as a run. Until then a queued page is an ordinary dirty frame:
// replacement writes it as any other, and FlushAll and EvictAll write the
// queue first, in the same order.
func (p *Pool) Seal(f *sfile.File, pageNo uint64) {
	p.sealMu.Lock()
	defer p.sealMu.Unlock()
	p.sealed = append(p.sealed, f.PageID(pageNo))
	if len(p.sealed) == sfile.ExtentPages {
		p.writeSealed()
	}
}

// writeSealed writes the queued pages that are still resident, dirty and
// unpinned back in page-id order and empties the queue; sealMu is held. A
// pinned page is being read or changed, and a page dropped since it was
// queued (an extent vacuum freed, see DropFilePages) is gone: both are
// skipped. A page whose write fails even after retries stays dirty for
// replacement or a flush to retry: no fault of the batch reaches the
// appender whose seal ran it, whose own page may not even be in it.
func (p *Pool) writeSealed() {
	slices.Sort(p.sealed)
	for _, pid := range p.sealed {
		sh := p.shardOf(pid)
		sh.mu.Lock()
		if fr, ok := sh.table[pid]; ok && fr.dirty && fr.pin == 0 {
			p.writeBack(fr)
		}
		sh.mu.Unlock()
	}
	p.sealed = p.sealed[:0]
}

// writeBack writes a dirty frame's page to the device, a table's for
// ssd.CauseHeap. If that fails even after retries the frame stays dirty — the
// data is still only in memory — and the fault is surfaced.
func (p *Pool) writeBack(fr *Frame) error {
	cause := ssd.CauseOther
	if fr.file.Class() == sfile.ClassTable {
		cause = ssd.CauseHeap
	}
	err := p.WritePage(fr.file, fr.pid.PageNo(), fr.data, cause)
	fr.dirty = err != nil
	return err
}

// FlushAll writes back every dirty page, the sealed ones first (Seal). It
// keeps going past individual failures (those pages stay dirty) and returns
// the first error.
func (p *Pool) FlushAll() error {
	p.sealMu.Lock()
	defer p.sealMu.Unlock()
	p.writeSealed()
	p.lockAll()
	defer p.unlockAll()
	var firstErr error
	for _, sh := range p.shards {
		for _, fr := range sh.frames {
			if fr.pid.Valid() && fr.dirty {
				if err := p.writeBack(fr); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	return firstErr
}

// EvictAll flushes every dirty page (in pool-wide elevator order: sorted
// by page id, like a checkpointer) and invalidates all unpinned frames.
// Experiments use it to reproduce the paper's methodology of cleaning the
// OS page cache every second (§5 "Experimental Setup").
func (p *Pool) EvictAll() error {
	p.sealMu.Lock()
	defer p.sealMu.Unlock()
	p.writeSealed()
	p.lockAll()
	defer p.unlockAll()
	var dirty []*Frame
	for _, sh := range p.shards {
		for _, fr := range sh.frames {
			if fr.pid.Valid() && fr.dirty {
				dirty = append(dirty, fr)
			}
		}
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i].pid < dirty[j].pid })
	var firstErr error
	for _, fr := range dirty {
		if err := p.writeBack(fr); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, sh := range p.shards {
		for _, fr := range sh.frames {
			// Frames whose write-back failed stay dirty and stay cached.
			if fr.pid.Valid() && fr.pin == 0 && !fr.dirty {
				delete(sh.table, fr.pid)
				fr.pid = storage.InvalidPageID
				fr.use = 0
			}
		}
	}
	return firstErr
}

// DropFilePages discards all cached pages of file f in [start, start+n)
// without writing them back. Used when partition runs are freed: the pages
// are dead.
func (p *Pool) DropFilePages(f *sfile.File, start uint64, n int) {
	for i := 0; i < n; i++ {
		pid := f.PageID(start + uint64(i))
		sh := p.shardOf(pid)
		sh.mu.Lock()
		if fr, ok := sh.table[pid]; ok {
			if fr.pin > 0 {
				sh.mu.Unlock()
				panic("buffer: dropping pinned page")
			}
			delete(sh.table, pid)
			fr.pid = storage.InvalidPageID
			fr.dirty = false
			fr.use = 0
		}
		sh.mu.Unlock()
	}
}

// Stats returns a snapshot of the per-class counters.
func (p *Pool) Stats() [sfile.NumClasses]ClassStats {
	var out [sfile.NumClasses]ClassStats
	for i := range p.stats {
		out[i] = ClassStats{
			Requests: p.stats[i].requests.Load(),
			Hits:     p.stats[i].hits.Load(),
		}
	}
	return out
}

// Evictions returns the number of dirty write-backs performed by the
// replacement policy.
func (p *Pool) Evictions() int64 {
	return p.evictions.Load()
}

// IOStats returns a snapshot of the read and error-path counters.
func (p *Pool) IOStats() IOStats {
	return IOStats{
		Reads:            p.reads.Load(),
		PagesRead:        p.pagesRead.Load(),
		ChecksumFailures: p.checksumFails.Load(),
		ReadRetries:      p.readRetries.Load(),
		WriteRetries:     p.writeRetries.Load(),
		ReadFailures:     p.readFailures.Load(),
		WriteFailures:    p.writeFailures.Load(),
	}
}

// ResetStats zeroes the per-class counters, the eviction count and the
// device-read counters, so every ratio of two of them covers one epoch.
func (p *Pool) ResetStats() {
	for i := range p.stats {
		p.stats[i].requests.Store(0)
		p.stats[i].hits.Store(0)
	}
	p.evictions.Store(0)
	p.reads.Store(0)
	p.pagesRead.Store(0)
}
