package check

import (
	"fmt"
	"testing"

	"mvpbt/internal/db"
)

// TestHarnessSmoke replays a moderately long generated history on every
// heap layout and expects zero invariant
// violations. This is the tier-1 entry point for the differential harness;
// cmd/mvpbt-check runs the same machinery at much larger op counts.
func TestHarnessSmoke(t *testing.T) {
	for _, heap := range []db.HeapKind{db.HeapHOT, db.HeapSIAS} {
		heap := heap
		t.Run(fmt.Sprintf("heap=%v", heap), func(t *testing.T) {
			t.Parallel()
			res := Run(RunConfig{
				Heap:    heap,
				Seed:    1,
				Ops:     1500,
				Clients: 3,
				Keys:    60,
				Crashes: 2,
			})
			if res.Violation != nil {
				t.Fatalf("violation: %v", res.Violation)
			}
			if res.Ops != 1500 {
				t.Fatalf("executed %d ops, want 1500", res.Ops)
			}
			if res.Crashes != 2 {
				t.Fatalf("executed %d crash-recoveries, want 2", res.Crashes)
			}
			if res.Audits == 0 || res.Conflicts == 0 {
				t.Fatalf("run exercised nothing: %d audits, %d conflicts", res.Audits, res.Conflicts)
			}
		})
	}
}

// TestFaultHistoryGenerationBackwardCompatible: turning Faults off must
// keep history generation byte-identical to the pre-fault generator, so
// existing seeds stay reproducible.
func TestFaultHistoryGenerationBackwardCompatible(t *testing.T) {
	plain := Generate(RunConfig{Seed: 42, Ops: 500, Clients: 3, Keys: 100})
	for _, op := range plain {
		if op.Kind >= OpFaultRead {
			t.Fatalf("fault op %v generated without Faults", op.Kind)
		}
	}
	faulty := Generate(RunConfig{Seed: 42, Ops: 500, Clients: 3, Keys: 100, Faults: true})
	n := 0
	for _, op := range faulty {
		if op.Kind >= OpFaultRead {
			n++
		}
	}
	if n == 0 {
		t.Fatal("Faults generated no fault ops")
	}
}

// TestShrinkPreservesFailure shrinks a real violation-free history with a
// fault injected only during shrinking — the shrinker must return the
// input unchanged when the failure is not reproducible.
func TestShrinkIrreproducibleReturnsInput(t *testing.T) {
	cfg := RunConfig{Heap: db.HeapHOT, Seed: 2, Ops: 60, Clients: 2, Keys: 10}
	ops := Generate(cfg)
	min := Shrink(cfg, ops, 10)
	if len(min) != len(ops) {
		t.Fatalf("shrinker altered a non-failing history: %d -> %d ops", len(ops), len(min))
	}
}
