package check

import (
	"fmt"
	"strings"

	"mvpbt/internal/util"
)

// OpKind enumerates the history grammar. Every kind is a no-op when its
// precondition is absent (no open transaction, key not visible, …), so
// any subsequence of a valid history is itself valid — the property the
// greedy shrinker relies on.
type OpKind int

// History operations.
const (
	OpInsert    OpKind = iota // insert a fresh row at Key (update if occupied)
	OpUpdate                  // update the visible row at Key in place (same key)
	OpUpdateKey               // move the visible row from Key to Key2
	OpDelete                  // delete the visible row at Key
	OpLookup                  // point lookup Key on index Ix, compare with oracle
	OpScan                    // range scan [Key, Key2) on index Ix, compare
	OpCount                   // COUNT(*) over [Key, Key2) on index Ix, compare
	OpCommit                  // commit the client's open transaction
	OpAbort                   // abort the client's open transaction
	OpVacuum                  // heap vacuum at the current horizon
	OpEvict                   // force a partition-buffer eviction pass
	OpMerge                   // force an MV-PBT partition merge
	OpBarrier                 // audit everything
	OpCrash                   // crash the engine, recover from the WAL, re-audit
	// Fault ops (generated only with RunConfig.Faults). Every fault is
	// armed as a deterministic ssd.FaultRule whose parameters derive from
	// Op.Key, so a replayed history injects the exact same faults.
	OpFaultRead  // arm 1-3 consecutive read errors on table/index pages
	OpFaultWrite // arm 1-3 consecutive write errors on table/index pages
	OpFaultFlip  // arm a one-shot bit-flip (media rot) on a table/index read
	OpTornCommit // commit through a torn WAL write, resolve the in-doubt
	// transaction from the durable bytes, then crash-restart
	OpTornBatch // batch-commit EVERY client's open transaction under one
	// torn flush, resolve each member independently, then crash-restart
	nOpKinds
)

var opNames = [nOpKinds]string{
	"insert", "update", "updatekey", "delete", "lookup", "scan", "count",
	"commit", "abort", "vacuum", "evict", "merge",
	"barrier", "crash", "fault-read", "fault-write", "fault-flip",
	"torn-commit", "torn-batch",
}

func (k OpKind) String() string {
	if k < 0 || int(k) >= len(opNames) {
		return "?"
	}
	return opNames[k]
}

// Op is one step of a history, executed by logical client Client.
type Op struct {
	Client int
	Kind   OpKind
	Key    int // key ordinal (the executor formats it)
	Key2   int // second ordinal: scan/count upper bound, updatekey target
	Ix     int // index selector for reads: 0=mv 1=mvu 2=bt 3=pb
}

func (op Op) String() string {
	switch op.Kind {
	case OpInsert, OpUpdate, OpDelete:
		return fmt.Sprintf("c%d %s k%d", op.Client, op.Kind, op.Key)
	case OpUpdateKey:
		return fmt.Sprintf("c%d %s k%d->k%d", op.Client, op.Kind, op.Key, op.Key2)
	case OpLookup:
		return fmt.Sprintf("c%d %s k%d ix%d", op.Client, op.Kind, op.Key, op.Ix)
	case OpScan, OpCount:
		return fmt.Sprintf("c%d %s [k%d,k%d) ix%d", op.Client, op.Kind, op.Key, op.Key2, op.Ix)
	case OpCommit, OpAbort, OpTornCommit:
		return fmt.Sprintf("c%d %s", op.Client, op.Kind)
	case OpFaultRead, OpFaultWrite, OpFaultFlip, OpTornBatch:
		return fmt.Sprintf("%s k%d", op.Kind, op.Key)
	default:
		return op.Kind.String()
	}
}

// FormatOps renders a history one op per line (failure reports).
func FormatOps(ops []Op) string {
	var b strings.Builder
	for i, op := range ops {
		fmt.Fprintf(&b, "  %3d: %s\n", i, op)
	}
	return b.String()
}

// Generate produces a deterministic randomized history from the seed:
// a mixed read/write workload across Clients logical clients with
// commit/abort decisions, forced evictions and merges, audit barriers,
// heap vacuums, and Crashes crash-restart points spread evenly through the
// run, and, with cfg.Faults, deterministic device-fault ops. The same
// (seed, ops, clients, keys, crashes, faults) tuple always yields the same
// history; Run replays exactly it.
func Generate(cfg RunConfig) []Op {
	r := util.NewRand(cfg.Seed)
	crashAt := make(map[int]bool, cfg.Crashes)
	for i := 1; i <= cfg.Crashes; i++ {
		crashAt[i*cfg.Ops/(cfg.Crashes+1)] = true
	}
	ops := make([]Op, 0, cfg.Ops)
	for len(ops) < cfg.Ops {
		if crashAt[len(ops)] {
			delete(crashAt, len(ops))
			ops = append(ops, Op{Kind: OpCrash})
			continue
		}
		c := r.Intn(cfg.Clients)
		key := r.Intn(cfg.Keys)
		span := 1 + r.Intn(cfg.Keys/4+1)
		op := Op{Client: c, Key: key, Ix: r.Intn(4)}
		if cfg.Faults {
			// ~8% of ops arm a fault; the extra draw happens only in fault
			// mode, so non-fault histories are unchanged.
			if fr := r.Intn(100); fr < 8 {
				switch {
				case fr < 2:
					op.Kind = OpFaultRead
				case fr < 4:
					op.Kind = OpFaultWrite
				case fr < 6:
					op.Kind = OpFaultFlip
				case fr < 7:
					op.Kind = OpTornCommit
				default:
					op.Kind = OpTornBatch
				}
				ops = append(ops, op)
				continue
			}
		}
		switch roll := r.Intn(1000); {
		case roll < 180:
			op.Kind = OpInsert
		case roll < 400:
			op.Kind = OpUpdate
		case roll < 440:
			op.Kind = OpUpdateKey
			op.Key2 = r.Intn(cfg.Keys)
		case roll < 520:
			op.Kind = OpDelete
		case roll < 680:
			op.Kind = OpLookup
		case roll < 780:
			op.Kind = OpScan
			op.Key2 = key + span
		case roll < 820:
			op.Kind = OpCount
			op.Key2 = key + span
		case roll < 930:
			op.Kind = OpCommit
		case roll < 965:
			op.Kind = OpAbort
		case roll < 975:
			op.Kind = OpVacuum
		case roll < 983:
			op.Kind = OpEvict
		case roll < 989:
			op.Kind = OpMerge
		default:
			op.Kind = OpBarrier
		}
		ops = append(ops, op)
	}
	return ops
}
