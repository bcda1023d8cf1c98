package util

// Sources is what a LoserTree merges, as sort.Interface is what sort sorts:
// k ordered inputs, each with a head until it is exhausted.
type Sources interface {
	Len() int
	Exhausted(i int) bool // source i has no head left
	Less(i, j int) bool   // head i orders strictly before head j; neither is exhausted
}

// LoserTree is a tournament tree of losers (Knuth, TAOCP vol. 3, §5.4.1),
// the repository's one k-way merge. Build plays the k heads in k−1
// comparisons; after the winner's source moves, Fix replays its path to the
// root in ⌈log₂ k⌉. Among equal heads the lower source index wins; an
// exhausted source never does. Like container/heap it is handed the sources
// on every call and keeps only indices, in a slice reused from build to
// build, so a pooled tree merges without allocating.
type LoserTree[S Sources] struct {
	// node[0] is the winner and node[p], 0 < p < k, the loser of the match
	// at p, whose children are 2p and 2p+1; leaf i is node k+i.
	node []int
	done bool // every source is exhausted
}

// Build starts a merge of s's current heads.
func (t *LoserTree[S]) Build(s S) {
	k := s.Len()
	if cap(t.node) < k {
		t.node = make([]int, k)
	}
	t.node = t.node[:k]
	t.done = k == 0
	if k > 0 {
		t.node[0] = t.play(s, 1)
		t.done = s.Exhausted(t.node[0])
	}
}

// play returns the winner of the subtree at node p and records its losers.
func (t *LoserTree[S]) play(s S, p int) int {
	if p >= len(t.node) {
		return p - len(t.node)
	}
	a, b := t.play(s, 2*p), t.play(s, 2*p+1)
	if beats(s, b, a) {
		a, b = b, a
	}
	t.node[p] = b
	return a
}

// Winner is the source whose head comes next, or -1 when all are exhausted.
func (t *LoserTree[S]) Winner() int {
	if t.done {
		return -1
	}
	return t.node[0]
}

// Fix restores the order after the winner's source moved on, was refilled or
// ran out; no other source may have moved since Build or the last Fix.
func (t *LoserTree[S]) Fix(s S) {
	w := t.node[0]
	for p := (len(t.node) + w) / 2; p > 0; p /= 2 {
		if beats(s, t.node[p], w) {
			t.node[p], w = w, t.node[p]
		}
	}
	t.node[0] = w
	t.done = s.Exhausted(w)
}

// beats reports whether source a's head goes out before source b's.
func beats[S Sources](s S, a, b int) bool {
	switch {
	case s.Exhausted(a):
		return false
	case s.Exhausted(b):
		return true
	case a < b:
		return !s.Less(b, a)
	}
	return s.Less(a, b)
}
