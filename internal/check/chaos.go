package check

import (
	"errors"
	"fmt"
	"time"

	"mvpbt/internal/server/chaos"
	"mvpbt/internal/server/shardclient"
	"mvpbt/internal/shard"
	"mvpbt/internal/util"
)

// The network-chaos campaign: for every chaos kind × seed, a seeded history
// is run by a self-healing client through the served fixture while its
// listener injects a deterministic schedule of connection resets, mid-frame
// truncations and read/write stalls. A cell passes when
//
//   - every acknowledged operation survives: after the schedule is
//     disarmed, a clean client's full scan matches the client-side oracle
//     exactly — an acked SET/DEL/COMMIT is never lost, and nothing the
//     oracle doesn't know about leaks in (an unacked autocommit write may
//     only exist if its retry later acked it, which the oracle records);
//   - every unacked COMMIT resolves one way: a commit whose connection died
//     mid-decision is driven to CommitResolvedApplied or CommitNotApplied
//     via its idempotent token, and the split is reported.
//
// Chaos rules are keyed by protocol frame index (see package chaos), which is
// what makes the injection points — and with them the fingerprint — a pure
// function of the logical history rather than of kernel scheduling.
var chaosCampaign = &Campaign{
	Name:  "chaos",
	Seeds: 8,
	Size:  Size{Ops: 240, Keys: 120},
	Cells: func(seeds []uint64, sz Size) []Cell {
		var cells []Cell
		for _, kind := range []string{"reset", "truncate", "stall", "mixed"} {
			for _, seed := range seeds {
				cells = append(cells, Cell{
					Coords: []Coord{{"kind", kind}, seedCoord(seed)},
					Run:    func() (Fingerprint, error) { return chaosCell(kind, seed, sz) },
				})
			}
		}
		return cells
	},
	Totals: func(cells []CellResult) string {
		var sum ChaosFingerprint
		for _, c := range cells {
			f := c.Fp.(ChaosFingerprint)
			sum.Chaos.Cuts += f.Chaos.Cuts
			sum.Chaos.Truncations += f.Chaos.Truncations
			sum.Chaos.Stalls += f.Chaos.Stalls
			sum.Client.Reconnects += f.Client.Reconnects
			sum.Client.Resolves += f.Client.Resolves
		}
		return fmt.Sprintf("injected: %d cuts, %d truncations, %d stalls across %d runs; %d reconnects, %d commit resolutions",
			sum.Chaos.Cuts, sum.Chaos.Truncations, sum.Chaos.Stalls, len(cells), sum.Client.Reconnects, sum.Client.Resolves)
	},
}

// ChaosFingerprint is everything two runs of one (kind, seed) must agree on.
type ChaosFingerprint struct {
	servedFingerprint
	Scans uint64
	// Transaction outcomes: directly acked, resolved-as-applied after a
	// lost ack, resolved-as-lost after a lost request, and lost before the
	// commit was ever issued (deterministically not applied).
	TxApplied, TxResolvedApplied, TxResolvedLost, TxLost uint64
	// Chaos counts what the schedule injected and how many frames flowed.
	Chaos chaos.Stats
	// Client counts the client's self-healing: dials, reconnects, retried
	// operations, commit-token resolutions.
	Client shardclient.RStats
}

func (fp ChaosFingerprint) String() string {
	return fmt.Sprintf("cuts=%d truncs=%d stalls=%d reconnects=%d "+
		"tx[acked=%d resolved-applied=%d resolved-lost=%d lost=%d] live=%d hash=%016x",
		fp.Chaos.Cuts, fp.Chaos.Truncations, fp.Chaos.Stalls, fp.Client.Reconnects, fp.TxApplied,
		fp.TxResolvedApplied, fp.TxResolvedLost, fp.TxLost, fp.LiveKeys, fp.StateHash)
}

// chaosRules builds kind's seeded schedule. Frame indices start past the
// handshake and are spaced so the client's bounded retry budget always
// outlasts the worst contiguous burst a single operation can see.
func chaosRules(kind string, rng *util.Rand) []chaos.Rule {
	n := 5 + rng.Intn(5)
	frame := uint64(4 + rng.Intn(6))
	rules := make([]chaos.Rule, 0, n)
	for i := 0; i < n; i++ {
		dir := chaos.In
		if rng.Intn(2) == 1 {
			dir = chaos.Out
		}
		var action chaos.Action
		switch kind {
		case "reset":
			action = chaos.Cut
		case "truncate":
			action = chaos.Truncate
		case "stall":
			action = chaos.Stall
		default: // mixed
			action = chaos.Action(rng.Intn(3))
		}
		rules = append(rules, chaos.Rule{
			Dir:        dir,
			Frame:      frame,
			Action:     action,
			TruncBytes: 1 + rng.Intn(12),
			StallFor:   time.Duration(1+rng.Intn(3)) * time.Millisecond,
		})
		frame += uint64(6 + rng.Intn(30))
	}
	return rules
}

// chaosCell runs one seeded history under one seeded schedule.
func chaosCell(kind string, seed uint64, sz Size) (fp ChaosFingerprint, err error) {
	seed = saltSeed(seed, kind)
	rng := util.NewRand(seed)
	s, err := serve("chaos", seed, rng, sz[Keys], chaosRules(kind, rng), shard.TwoPCHooks{})
	if err != nil {
		return fp, err
	}
	defer func() {
		fp.servedFingerprint = s.fp
		fp.Chaos = s.sched.Stats()
		fp.Client = s.client.Stats()
		if cerr := s.close(); err == nil {
			err = cerr
		}
	}()

	for op := 0; op < sz[Ops]; op++ {
		switch roll := rng.Intn(100); {
		case roll < 50:
			err = s.set(op)
		case roll < 65:
			err = s.get(op)
		case roll < 75: // SCAN, verified against the acked state
			lo := s.key()
			got, serr := s.client.Scan([]byte(lo), 20)
			if serr != nil {
				return fp, fmt.Errorf("op %d: SCAN %s exhausted retries: %w", op, lo, serr)
			}
			if err := s.acked.match(pairs(got), lo, 20); err != nil {
				return fp, fmt.Errorf("op %d: SCAN %s: %w", op, lo, err)
			}
			fp.Scans++
		case roll < 80:
			err = s.del(op)
		default: // transaction: 2-4 SETs under one token commit
			pending := make([][2]string, 2+rng.Intn(3))
			for i := range pending {
				pending[i] = [2]string{s.key(), fmt.Sprintf("t-%d-%d-%04x", op, i, rng.Uint64()&0xffff)}
			}
			tx, lost, serr := s.stage(op, pending)
			if serr != nil {
				return fp, serr
			}
			if lost {
				fp.TxLost++
				break
			}
			outcome, cerr := tx.Commit()
			switch {
			case cerr == nil && outcome == shardclient.CommitApplied:
				fp.TxApplied++
			case cerr == nil && outcome == shardclient.CommitResolvedApplied:
				fp.TxResolvedApplied++
			case cerr == nil && outcome == shardclient.CommitNotApplied:
				fp.TxResolvedLost++
			case errors.Is(cerr, shardclient.ErrTxLost):
				fp.TxLost++
			default:
				// An unresolved in-doubt commit is exactly what the token
				// machinery exists to prevent.
				return fp, fmt.Errorf("op %d: COMMIT unresolved: outcome=%v err=%v", op, outcome, cerr)
			}
			if applied(outcome, cerr) {
				for _, p := range pending {
					s.acked.put(p[0], p[1])
				}
			}
		}
		if err != nil {
			return fp, err
		}
	}
	// Chaos over: verify every acked write survived, on a clean connection.
	return fp, s.verify()
}
