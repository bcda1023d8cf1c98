package part

import (
	"fmt"

	"mvpbt/internal/bloom"
	"mvpbt/internal/buffer"
	"mvpbt/internal/page"
	"mvpbt/internal/sfile"
	"mvpbt/internal/storage"
	"mvpbt/internal/util"
)

// referenceBuild is the materialising build that Builder replaced, kept
// verbatim (but for the leaves' restart slots, the prefix filter holding
// every prefix of PrefixLen bytes or more, and the internal levels given up
// for in-memory fences, each changed later in its own loop) as the reference
// the byte-identity tests compare against: every record encoded and every
// page image held in memory, filters filled from the record slice on a
// second goroutine, then one AllocRun of the final size and a page-by-page
// write-out.
func referenceBuild(pool *buffer.Pool, file *sfile.File, no int, kvs []KV, minTS, maxTS uint64, opts BuildOptions) (*Segment, error) {
	if len(kvs) == 0 {
		return nil, nil
	}
	// ---- Pack leaves (in memory first: the final write-out must be one
	// sequential pass in page order).
	var pages [][]byte
	newNode := func() page.Page {
		buf := make([]byte, storage.PageSize)
		p := page.Wrap(buf)
		p.Init()
		pages = append(pages, buf)
		return p
	}

	type childRef struct {
		firstKey, lastKey []byte
		rel               int
	}
	var leafRefs []childRef

	leaf := newNode()
	var prevKey []byte
	budget := storage.PageSize - 64
	used := 0
	size := 0
	for i := range kvs {
		if leaf.NumSlots()%restartEvery == 0 { // a restart slot: the whole key
			prevKey = nil
		}
		rec := refEncodeLeafRec(prevKey, kvs[i].Key, kvs[i].Body)
		if used+len(rec)+4 > budget && leaf.NumSlots() > 0 {
			leafRefs[len(leafRefs)-1].lastKey = kvs[i-1].Key
			leaf = newNode()
			leafRefs = append(leafRefs, childRef{firstKey: kvs[i].Key, rel: len(pages) - 1})
			prevKey = nil
			used = 0
			rec = refEncodeLeafRec(nil, kvs[i].Key, kvs[i].Body)
		} else if leaf.NumSlots() == 0 {
			if len(leafRefs) == 0 || leafRefs[len(leafRefs)-1].rel != len(pages)-1 {
				leafRefs = append(leafRefs, childRef{firstKey: kvs[i].Key, rel: len(pages) - 1})
			}
		}
		if !leaf.InsertAt(leaf.NumSlots(), rec) {
			return nil, fmt.Errorf("part: record too large for leaf (%d bytes)", len(rec))
		}
		used += len(rec) + 4
		size += len(rec)
		prevKey = kvs[i].Key
	}
	leafRefs[len(leafRefs)-1].lastKey = kvs[len(kvs)-1].Key
	var fs fences
	for _, r := range leafRefs {
		fs.add(r.firstKey)
		fs.add(r.lastKey)
	}

	// ---- Filters are computed concurrently with the sequential
	// write-out, like Algorithm 4's worker pair (worker1 loadAndFlush,
	// worker2 createFilters).
	type filters struct {
		bloom  *bloom.Filter
		prefix *bloom.PrefixFilter
	}
	fch := make(chan filters, 1)
	go func() {
		var f filters
		if opts.BloomBitsPerKey > 0 {
			f.bloom = bloom.New(len(kvs), opts.BloomBitsPerKey)
			for i := range kvs {
				f.bloom.Add(kvs[i].Key)
			}
		}
		if opts.PrefixLen > 0 {
			// Each prefix of PrefixLen bytes or more, once: the lengths a key
			// does not share with its predecessor.
			var hs []bloom.Hash
			for i := range kvs {
				var prev []byte
				if i > 0 {
					prev = kvs[i-1].Key
				}
				for l := max(opts.PrefixLen, util.CommonPrefix(prev, kvs[i].Key)+1); l <= len(kvs[i].Key); l++ {
					hs = append(hs, bloom.HashKey(kvs[i].Key[:l]))
				}
			}
			f.prefix = bloom.NewPrefix(len(hs), opts.BloomBitsPerKey+2, opts.PrefixLen)
			for _, h := range hs {
				f.prefix.AddHash(h)
			}
		}
		fch <- f
	}()

	// ---- Sequential write-out. Pages are stamped with their checksum (the
	// buffer pool verifies them on every later fetch) and transient write
	// faults are retried a bounded number of times before the build fails.
	start, err := file.AllocRun(len(pages))
	if err != nil {
		<-fch // the filter goroutine sends exactly once; drain it
		return nil, fmt.Errorf("part: segment alloc: %w", err)
	}
	var werr error
	for i, buf := range pages {
		page.StampChecksum(buf)
		for attempt := 0; ; attempt++ {
			werr = file.WritePage(start+uint64(i), buf)
			if werr == nil || attempt >= 2 {
				break
			}
		}
		if werr != nil {
			break
		}
	}
	flt := <-fch
	if werr != nil {
		return nil, fmt.Errorf("part: segment write-out: %w", werr)
	}

	seg := &Segment{
		No:         no,
		pool:       pool,
		file:       file,
		StartPage:  start,
		NumLeaves:  len(pages),
		fences:     fs,
		MinTS:      minTS,
		MaxTS:      maxTS,
		NumRecords: len(kvs),
		SizeBytes:  size,
	}
	seg.Filter = flt.bloom
	seg.PFilter = flt.prefix
	return seg, nil
}

func refEncodeLeafRec(prevKey, key, body []byte) []byte {
	shared := util.CommonPrefix(prevKey, key)
	out := util.PutUvarint(nil, uint64(shared))
	out = util.PutUvarint(out, uint64(len(key)-shared))
	out = append(out, key[shared:]...)
	return append(out, body...)
}
