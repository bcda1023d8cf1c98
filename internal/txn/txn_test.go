package txn

import (
	"sync"
	"testing"
)

func TestBeginAssignsMonotonicIDs(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	b := m.Begin()
	if b.ID <= a.ID {
		t.Fatalf("ids not monotonic: %d then %d", a.ID, b.ID)
	}
}

func TestOwnEffectsVisible(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	if !tx.Sees(tx.ID) {
		t.Fatal("transaction cannot see its own effects")
	}
}

func TestCommittedBeforeSnapshotVisible(t *testing.T) {
	m := NewManager()
	w := m.Begin()
	m.Commit(w)
	r := m.Begin()
	if !r.Sees(w.ID) {
		t.Fatal("earlier committed tx invisible")
	}
}

func TestConcurrentInvisibleEvenAfterCommit(t *testing.T) {
	m := NewManager()
	w := m.Begin() // active when r snapshots
	r := m.Begin()
	if r.Sees(w.ID) {
		t.Fatal("in-progress tx visible")
	}
	m.Commit(w)
	if r.Sees(w.ID) {
		t.Fatal("tx concurrent with snapshot became visible after commit")
	}
}

func TestLaterTxInvisible(t *testing.T) {
	m := NewManager()
	r := m.Begin()
	w := m.Begin()
	m.Commit(w)
	if r.Sees(w.ID) {
		t.Fatal("tx started after snapshot is visible")
	}
}

func TestAbortedInvisible(t *testing.T) {
	m := NewManager()
	w := m.Begin()
	id := w.ID // capture before Abort: handles are pooled and reused
	m.Abort(w)
	r := m.Begin()
	if r.Sees(id) {
		t.Fatal("aborted tx visible")
	}
	if m.StatusOf(id) != Aborted {
		t.Fatal("status not aborted")
	}
}

func TestInvalidIDNeverVisible(t *testing.T) {
	m := NewManager()
	r := m.Begin()
	if r.Sees(InvalidTxID) {
		t.Fatal("invalid id visible")
	}
}

func TestSnapshotStability(t *testing.T) {
	// The classic anomaly SI prevents: a reader's view must not change as
	// writers commit around it.
	m := NewManager()
	w1 := m.Begin()
	m.Commit(w1)
	r := m.Begin()
	sawBefore := r.Sees(w1.ID)
	for i := 0; i < 10; i++ {
		w := m.Begin()
		m.Commit(w)
	}
	if r.Sees(w1.ID) != sawBefore {
		t.Fatal("snapshot view changed")
	}
}

func TestHorizonAdvances(t *testing.T) {
	m := NewManager()
	r := m.Begin()
	h1 := m.Horizon()
	if h1 > r.ID {
		t.Fatalf("horizon %d beyond active snapshot xmin %d", h1, r.ID)
	}
	for i := 0; i < 5; i++ {
		w := m.Begin()
		m.Commit(w)
	}
	if m.Horizon() != h1 {
		t.Fatal("horizon moved while old snapshot active")
	}
	m.Commit(r)
	if m.Horizon() <= h1 {
		t.Fatal("horizon did not advance after snapshot release")
	}
}

func TestHorizonWithLongReader(t *testing.T) {
	m := NewManager()
	// A long-running reader pins the horizon even when newer txs are active:
	// the HTAP scenario of Figure 1.
	long := m.Begin()
	var last *Tx
	for i := 0; i < 100; i++ {
		last = m.Begin()
		m.Commit(last)
	}
	if m.Horizon() > long.ID {
		t.Fatalf("long reader did not pin horizon: %d > %d", m.Horizon(), long.ID)
	}
	m.Commit(long)
	if m.Horizon() <= last.ID {
		t.Fatal("horizon stuck after long reader finished")
	}
}

func TestStatusOfUnassigned(t *testing.T) {
	m := NewManager()
	if m.StatusOf(999) != InProgress {
		t.Fatal("unassigned id should report in-progress (not visible)")
	}
}

func TestDoubleFinishPanics(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	m.Commit(tx)
	defer func() {
		if recover() == nil {
			t.Fatal("double finish should panic")
		}
	}()
	m.Abort(tx)
}

func TestActiveCount(t *testing.T) {
	m := NewManager()
	a := m.Begin()
	b := m.Begin()
	if m.ActiveCount() != 2 {
		t.Fatalf("active=%d want 2", m.ActiveCount())
	}
	m.Commit(a)
	m.Abort(b)
	if m.ActiveCount() != 0 {
		t.Fatalf("active=%d want 0", m.ActiveCount())
	}
}

func TestConcurrentBeginCommit(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tx := m.Begin()
				if i%7 == 0 {
					m.Abort(tx)
				} else {
					m.Commit(tx)
				}
			}
		}()
	}
	wg.Wait()
	if m.ActiveCount() != 0 {
		t.Fatalf("leaked active txs: %d", m.ActiveCount())
	}
	if next := m.next.Load(); next != 4001 {
		t.Fatalf("ids not dense: next=%d", next)
	}
}

func TestSnapshotActiveSetSorted(t *testing.T) {
	m := NewManager()
	var held []*Tx
	for i := 0; i < 20; i++ {
		held = append(held, m.Begin())
	}
	// Finish a scattered subset so the active set has gaps.
	for i := 0; i < 20; i += 3 {
		m.Commit(held[i])
		held[i] = nil
	}
	r := m.Begin()
	for i := 1; i < len(r.Snap.Active); i++ {
		if r.Snap.Active[i-1] >= r.Snap.Active[i] {
			t.Fatal("active set not sorted")
		}
	}
	for _, h := range held {
		if h != nil && !h.done {
			m.Commit(h)
		}
	}
}
