package db

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// prepareOne opens a transaction, inserts key=val, and prepares it for
// commit-group gid, returning the prepared transaction's engine state.
func prepareOne(t *testing.T, e *Engine, tbl *Table, key, val string, gid uint64) {
	t.Helper()
	tx := e.Begin()
	if _, _, err := tbl.Insert(tx, row(key, val)); err != nil {
		t.Fatal(err)
	}
	if err := e.PrepareDurable(tx, gid); err != nil {
		t.Fatalf("PrepareDurable: %v", err)
	}
}

func TestPrepareInvisibleUntilDecided(t *testing.T) {
	e, tbl, ix := walTable(t)
	tx := e.Begin()
	tbl.Insert(tx, row("base", "0"))
	e.Commit(tx)

	prepareOne(t, e, tbl, "x", "1", 42)

	// Prepared ≠ committed: a fresh snapshot must not see the row.
	got := snapshotState(t, e, tbl, ix)
	if len(got) != 1 || got["base"] != "0" {
		t.Fatalf("prepared row visible before decision: %v", got)
	}
	st := e.TwoPCInfo()
	if st.Prepares != 1 || st.InDoubt != 1 || st.OldestAge < 0 {
		t.Fatalf("stats after prepare: %+v", st)
	}
	// An in-doubt transaction keeps the engine non-quiescent: checkpoint
	// must refuse rather than snapshot an undecidable version.
	if err := e.Checkpoint(); !errors.Is(err, ErrCheckpointBusy) {
		t.Fatalf("Checkpoint with in-doubt txn: %v, want ErrCheckpointBusy", err)
	}

	n, err := e.ResolveGroup(42, true)
	if err != nil || n != 1 {
		t.Fatalf("ResolveGroup: n=%d err=%v", n, err)
	}
	got = snapshotState(t, e, tbl, ix)
	if len(got) != 2 || got["x"] != "1" {
		t.Fatalf("committed decision not visible: %v", got)
	}
	st = e.TwoPCInfo()
	if st.ResolvedCommits != 1 || st.InDoubt != 0 {
		t.Fatalf("stats after resolve: %+v", st)
	}
	// Resolving an unknown group is a no-op, not an error.
	if n, err := e.ResolveGroup(42, true); err != nil || n != 0 {
		t.Fatalf("re-resolve: n=%d err=%v", n, err)
	}
}

func TestPrepareAbortDecision(t *testing.T) {
	e, tbl, ix := walTable(t)
	prepareOne(t, e, tbl, "doomed", "v", 7)
	n, err := e.ResolveGroup(7, false)
	if err != nil || n != 1 {
		t.Fatalf("ResolveGroup(abort): n=%d err=%v", n, err)
	}
	if got := snapshotState(t, e, tbl, ix); len(got) != 0 {
		t.Fatalf("aborted row visible: %v", got)
	}
	if st := e.TwoPCInfo(); st.ResolvedAborts != 1 || st.InDoubt != 0 {
		t.Fatalf("stats after abort: %+v", st)
	}
}

// TestRecoverInDoubt crashes a shard holding a prepared-but-undecided
// transaction. Recovery must carry the leg forward IN DOUBT — durable,
// invisible, listed with its commit-group id, and cleanly resolvable in
// either direction — not drop it as uncommitted work, and not report the
// log corrupt.
func TestRecoverInDoubt(t *testing.T) {
	for _, commit := range []bool{true, false} {
		name := "abort"
		if commit {
			name = "commit"
		}
		t.Run(name, func(t *testing.T) {
			e, tbl, _ := walTable(t)
			tx := e.Begin()
			tbl.Insert(tx, row("base", "0"))
			e.Commit(tx)
			prepareOne(t, e, tbl, "leg", "v", 99)

			// Crash: only the log image survives. Recover must not error —
			// an undecided prepare is in-doubt, not corruption.
			e2, tbl2, ix2, applied := recoverInto(t, e.LogImage())
			if applied != 1 {
				t.Fatalf("applied %d committed txs, want 1", applied)
			}
			doubts := e2.InDoubtList()
			if len(doubts) != 1 || doubts[0].GID != 99 {
				t.Fatalf("in-doubt after recovery: %v, want one entry for group 99", doubts)
			}
			if got := snapshotState(t, e2, tbl2, ix2); len(got) != 1 {
				t.Fatalf("in-doubt row visible after recovery: %v", got)
			}

			if n, err := e2.ResolveGroup(doubts[0].GID, commit); err != nil || n != 1 {
				t.Fatalf("ResolveGroup: n=%d err=%v", n, err)
			}
			got := snapshotState(t, e2, tbl2, ix2)
			if commit {
				if len(got) != 2 || got["leg"] != "v" {
					t.Fatalf("commit decision after recovery not visible: %v", got)
				}
			} else {
				if len(got) != 1 || got["base"] != "0" {
					t.Fatalf("presumed abort left residue: %v", got)
				}
			}
		})
	}
}

// TestRecoverInDoubtInsertOvertaken: an in-doubt leg inserts a row, then a
// committed transaction inserts a row of the same key (an insert does not
// conflict with an undecided one). The committed row was written later, so
// it stays visible when the leg commits after a crash, as it would have
// without one: recovery does not replay the leg's insert after it.
func TestRecoverInDoubtInsertOvertaken(t *testing.T) {
	e, tbl, _ := walTable(t)
	prepareOne(t, e, tbl, "x", "leg", 42)
	tx := e.Begin()
	if _, _, err := tbl.Insert(tx, row("x", "committed")); err != nil {
		t.Fatal(err)
	}
	e.Commit(tx)
	e2, tbl2, ix2, _ := recoverInto(t, e.LogImage())
	if n, err := e2.ResolveGroup(42, true); err != nil || n != 0 {
		t.Fatalf("ResolveGroup = %d, %v; want 0 (the leg kept no write)", n, err)
	}
	if got := snapshotState(t, e2, tbl2, ix2); len(got) != 1 || got["x"] != "committed" {
		t.Fatalf("after the leg's commit: %v, want x=committed", got)
	}
}

// TestRecoverInDoubtTwice: recovery re-logs the prepare, so a second crash
// before the decision lands must recover the same in-doubt leg from the
// NEW log — replay of replay, still resolvable.
func TestRecoverInDoubtTwice(t *testing.T) {
	e, tbl, _ := walTable(t)
	prepareOne(t, e, tbl, "leg", "v", 5)

	e2, _, _, _ := recoverInto(t, e.LogImage())
	e3, tbl3, ix3, _ := recoverInto(t, e2.LogImage())
	doubts := e3.InDoubtList()
	if len(doubts) != 1 || doubts[0].GID != 5 {
		t.Fatalf("in-doubt after double recovery: %v", doubts)
	}
	if n, err := e3.ResolveGroup(doubts[0].GID, true); err != nil || n != 1 {
		t.Fatalf("ResolveGroup: n=%d err=%v", n, err)
	}
	if got := snapshotState(t, e3, tbl3, ix3); len(got) != 1 || got["leg"] != "v" {
		t.Fatalf("state after double recovery + commit: %v", got)
	}
}

// TestResolveRacesBegin resolves commit groups while other goroutines begin
// transactions. Finishing a prepared transaction returns its pooled handle,
// so a concurrent Begin may rewrite the handle's id at once: the registry
// entry must be removed under the id the transaction was PREPARED with, or
// it is left behind (a phantom in InDoubtList) or another prepared
// transaction's entry is deleted in its place — unreachable by
// ResolveGroup, InProgress forever, and Checkpoint busy forever. Run under
// -race: the stale read is a data race as well.
func TestResolveRacesBegin(t *testing.T) {
	e, tbl, _ := walTable(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					e.Commit(e.Begin())
				}
			}
		}()
	}
	const groups = 300
	for gid := uint64(1); gid <= groups; gid++ {
		// Two legs in flight at a time, so that a recycled id can hit a live
		// neighbour's entry and not only miss its own.
		prepareOne(t, e, tbl, fmt.Sprintf("a%04d", gid), "v", gid)
		prepareOne(t, e, tbl, fmt.Sprintf("b%04d", gid), "v", groups+gid)
		for _, g := range []uint64{gid, groups + gid} {
			if n, err := e.ResolveGroup(g, g%2 == 0); err != nil || n != 1 {
				t.Fatalf("ResolveGroup(%d): n=%d err=%v", g, n, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if st := e.TwoPCInfo(); st.InDoubt != 0 || st.ResolvedCommits+st.ResolvedAborts != 2*groups {
		t.Fatalf("after resolving every group: %+v, in-doubt list %v", st, e.InDoubtList())
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint on a quiescent engine: %v", err)
	}
}
