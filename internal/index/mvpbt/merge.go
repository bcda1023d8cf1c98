package mvpbt

import (
	"bytes"

	"mvpbt/internal/index/part"
	"mvpbt/internal/ssd"
	"mvpbt/internal/util"
)

// MergePartitions reorganizes ALL persisted partitions into one (the
// paper's on-line "system-transaction merge steps", §4: "They can be
// reorganized and optimized on-line"). Because the merge input is the
// complete persisted state, garbage collection can run across partition
// boundaries: chains are collapsed below the horizon exactly as in
// partition eviction, and pure anti-matter whose target no longer exists
// anywhere is dropped. The merged partition is dense-packed, filtered and
// written sequentially; the inputs are freed once every in-flight reader
// has moved past the old view (see the gate in Tree). MaxPartitions's
// merge may take only the newer partitions instead (mergeFrom).
//
// The k-way merge and the build run under bgMu only — foreground inserts
// and readers proceed throughout; mu is taken briefly to snapshot
// the inputs and to install the result.
func (t *Tree) MergePartitions() error {
	t.bgMu.Lock()
	defer t.bgMu.Unlock()
	return t.mergeBG(0)
}

// mergeFrom is where the merge MaxPartitions triggers starts, size-tiered:
// at 1, past the oldest partition, while the newer ones are at least two and
// hold less than a tierRatio-th of its bytes, else at 0. An evicted record is
// then rewritten about tierRatio times before it joins the oldest, not once
// per merge of every partition. Per evicted byte the merges write about
// T − ½ + B/(2TΔ) (B the oldest's bytes, Δ what arrives between two
// triggers), least at T = √(B/2Δ), about 2.2 on the kv shards (DESIGN.md §7).
func mergeFrom(parts []*part.Segment) int {
	const tierRatio = 3
	newer := 0
	for _, p := range parts[1:] {
		newer += p.SizeBytes
	}
	if len(parts) < 3 || tierRatio*newer >= parts[0].SizeBytes {
		return 0
	}
	return 1
}

// mergeSource is one merge input: a sequential reader over a partition,
// with its head record decoded once per advance. rec.Val aliases the
// reader's buffer, like the head's key and body.
type mergeSource struct {
	rd  *part.Reader
	rec Record
}

// mergeSources are a merge's inputs, newest partition first: they merge on
// the key alone, and the loser tree's tie rule puts the newer partition's
// records of a key first (§4.3 processing order).
type mergeSources []*mergeSource

func (s mergeSources) Len() int             { return len(s) }
func (s mergeSources) Exhausted(i int) bool { return !s[i].rd.Valid() }
func (s mergeSources) Less(i, j int) bool   { return bytes.Compare(s[i].rd.Key(), s[j].rd.Key()) < 0 }

// load decodes the head record, if there is one.
func (s *mergeSource) load() (err error) {
	if !s.rd.Valid() {
		return s.rd.Err()
	}
	s.rec, err = decodeRecord(s.rd.Body())
	return err
}

// mergeBG is the merge body; called with bgMu held. It merges parts[from:],
// the newest, into one partition in their place, keeping their processing
// order (§4.3). Dangling anti-matter (see partWriter) is dropped only when
// from is 0: the input is then the COMPLETE persisted state — bgMu guarantees
// that only bgMu holders append to or replace parts, and every reader meets
// P_N's records before any persisted one.
func (t *Tree) mergeBG(from int) error {
	t.mu.Lock()
	v := t.view.Load()
	if len(v.parts)-from < 2 {
		t.mu.Unlock()
		return nil
	}
	no := t.nextNo
	t.nextNo++
	t.mu.Unlock()

	// K-way merge by key, newer partition first, streamed: the inputs are
	// read an extent at a time while the output is written a page at a
	// time. On any error the output run is given back and the inputs stay
	// installed.
	w := t.newPartWriter(no, from == 0, ssd.CauseMerge)
	defer w.b.Abort()
	srcs := make(mergeSources, 0, len(v.parts)-from)
	for i := len(v.parts) - 1; i >= from; i-- {
		srcs = append(srcs, &mergeSource{rd: v.parts[i].NewReader()})
		defer srcs[len(srcs)-1].rd.Close()
		if err := srcs[len(srcs)-1].load(); err != nil {
			return err
		}
	}
	var merge util.LoserTree[mergeSources]
	for merge.Build(srcs); merge.Winner() >= 0; merge.Fix(srcs) {
		best := srcs[merge.Winner()]
		if err := w.add(best.rd.Key(), best.rec, best.rd.Body()); err != nil {
			return err
		}
		best.rd.Next()
		if err := best.load(); err != nil {
			return err
		}
	}
	if hook := t.mergeHook.Load(); hook != nil {
		// Deterministic crash point for recovery tests: the inputs are
		// consumed and the merged leaves written, but the partition is
		// neither complete nor installed.
		(*hook)()
	}
	seg, gc, err := w.finish()
	if err != nil {
		// Nothing was published: readers and future operations keep
		// the previous, still-intact view.
		return err
	}
	// Install: bgMu excludes every parts mutator for the whole merge, so
	// only P_N may have changed since the snapshot; carry the current one.
	t.mu.Lock()
	nv := &treeView{pn: t.view.Load().pn, parts: v.parts[:from:from], gc: v.gc[:from:from]}
	if seg != nil {
		nv.parts, nv.gc = append(nv.parts, seg), append(nv.gc, gc)
	}
	t.view.Store(nv)
	t.mu.Unlock()
	t.waitReaders()
	for _, p := range v.parts[from:] {
		p.Free()
	}
	t.stats.merges.Add(1)
	return nil
}

// waitReaders waits out the readers of every view replaced before the call.
func (t *Tree) waitReaders() {
	t.gate.Lock()
	t.gate.Unlock() //nolint:staticcheck // empty critical section IS the grace period
}
