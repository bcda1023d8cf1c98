package check

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mvpbt/internal/server/chaos"
	"mvpbt/internal/server/shardclient"
	"mvpbt/internal/shard"
	"mvpbt/internal/util"
)

// The 2PC crash campaign: for every seed, a seeded history of single-key
// traffic and multi-shard transactions runs through the served fixture, whose
// router commits cross-shard groups via presumed-abort two-phase commit — and
// a deterministic crash PLAN kills the coordinator or a participant at every
// protocol step, rotating through
//
//	before-prepare (each shard)  — participant dies before voting
//	after-prepare  (each shard)  — participant dies holding a durable YES
//	before-decide                — coordinator dies undecided
//	after-decide                 — every participant dies after the commit
//	                               decision is durable, before learning it
//	before-forget                — coordinator dies before retiring the group
//
// plus standalone coordinator crashes between operations, all under the
// chaos listener. A cell passes when
//
//   - every group is ATOMIC: the final clean scan matches the client-side
//     oracle exactly, so a group's keys are present both-or-neither — no
//     half-applied group, no acked-commit loss, no aborted group leaking;
//   - a group whose crash step precedes the decision NEVER applies
//     (presumed abort), and a group whose commit decision became durable
//     ALWAYS applies, however many participants died after voting;
//   - every in-doubt leg resolves: after each crash the cell waits for the
//     restarted shards to finish coordinator-log resolution, and the run
//     ends with zero in-doubt transactions;
//   - the coordinator log retires exactly the groups whose forget step ran
//     (a before-forget crash leaves its — idempotent — decision live).
var twoPCCampaign = &Campaign{
	Name:  "2pc",
	Seeds: 8,
	Cells: func(seeds []uint64, _ Size) []Cell {
		var cells []Cell
		for _, seed := range seeds {
			cells = append(cells, Cell{
				Coords: []Coord{seedCoord(seed)},
				Run:    func() (Fingerprint, error) { return twoPCCell(seed) },
			})
		}
		return cells
	},
	Totals: func(cells []CellResult) string {
		var groups, crashes, coord uint64
		for _, c := range cells {
			f := c.Fp.(TwoPCFingerprint)
			groups += f.GroupsApplied + f.GroupsAborted
			for _, n := range f.Crashes {
				crashes += n
			}
			coord += f.CoordCrashes
		}
		return fmt.Sprintf("injected: %d protocol-step crashes, %d coordinator crashes across %d commit groups in %d runs",
			crashes, coord, groups, len(cells))
	},
}

const (
	// twoPCOps is the history length; roughly a quarter are multi-shard
	// transactions, so it covers the 10-entry crash plan about four times over.
	twoPCOps = 160
	// twoPCKeys sizes the single-key background keyspace. Group keys are
	// fresh per group and live outside it.
	twoPCKeys = 96
)

// twoPCStep is one crash-injection point in the commit protocol.
type twoPCStep int

const (
	stepNone twoPCStep = iota
	stepBeforePrepare
	stepAfterPrepare
	stepBeforeDecide
	stepAfterDecide
	stepBeforeForget
	numTwoPCSteps
)

func (s twoPCStep) String() string {
	return [numTwoPCSteps]string{"none", "before-prepare", "after-prepare", "before-decide", "after-decide", "before-forget"}[s]
}

// twoPCPlanEntry assigns one commit group its crash step (and, for the
// per-participant steps, which shard dies).
type twoPCPlanEntry struct {
	step  twoPCStep
	shard int
}

// twoPCPlan is the rotation applied to commit groups in creation order:
// every protocol step crashes, on every shard where that makes sense,
// interleaved with clean groups so forget/ack bookkeeping is exercised too.
var twoPCPlan = []twoPCPlanEntry{
	{stepNone, 0},
	{stepBeforePrepare, 0},
	{stepAfterPrepare, 0},
	{stepNone, 0},
	{stepBeforeDecide, 0},
	{stepAfterPrepare, 1},
	{stepAfterDecide, 0},
	{stepNone, 0},
	{stepBeforeForget, 0},
	{stepBeforePrepare, 1},
}

// TwoPCFingerprint is everything two replays of one seed must agree on.
// Deliberately a pure function of the logical history and the crash plan:
// timing-sensitive counters (retries, reconnect totals, restart counts)
// are excluded, group OUTCOMES are not — a group that applied in one
// replay and aborted in the other is a mismatch.
type TwoPCFingerprint struct {
	servedFingerprint
	// Multi-shard group outcomes: applied (directly or resolved through
	// the commit token), aborted by a pre-decision crash, lost before the
	// commit was issued.
	GroupsApplied, GroupsAborted, GroupsLost uint64
	// Crashes[s] counts injected crashes per twoPCStep; CoordCrashes the
	// standalone coordinator crash/recover cycles between operations.
	Crashes      [numTwoPCSteps]uint64
	CoordCrashes uint64
	// Coordinator-log end state: live (unretired) decisions must equal the
	// before-forget crash count, and the incarnation is one bump per
	// coordinator crash.
	LiveDecisions int
	Incarnation   uint64
	// InDoubtFinal must be zero: every leg resolved.
	InDoubtFinal int
}

func (fp TwoPCFingerprint) String() string {
	return fmt.Sprintf("groups[applied=%d aborted=%d lost=%d] crashes=%v coord-crashes=%d "+
		"live-decisions=%d live=%d hash=%016x",
		fp.GroupsApplied, fp.GroupsAborted, fp.GroupsLost, fp.Crashes,
		fp.CoordCrashes, fp.LiveDecisions, fp.LiveKeys, fp.StateHash)
}

// errSimCrash is the injected failure every crash hook returns.
var errSimCrash = errors.New("2pc campaign: simulated crash")

// twoPCCell runs one seeded history under the crash plan.
func twoPCCell(seed uint64) (fp TwoPCFingerprint, err error) {
	seed = saltSeed(seed, "2pc")
	rng := util.NewRand(seed)

	// The crash hooks run on server goroutines, so everything they touch —
	// the router pointer, the gid→ordinal map, the per-step crash counters —
	// lives behind one mutex. Every hook maps its group to a plan entry by
	// CREATION ORDER; the serial client makes that order a pure function of
	// the history.
	var (
		mu      sync.Mutex
		rt      *shard.Router
		ordOf   = map[uint64]int{} // gid → group ordinal
		nGroups int
		crashes [numTwoPCSteps]uint64
	)
	// crashAt is the body of every hook: if gid's plan entry crashes at this
	// step (on this shard, for the per-participant steps; sh < 0 otherwise),
	// count the injection, do what the protocol will not do by itself, and
	// return the error the hook reports. The ordinal is assigned on first
	// sight (BeforePrepare is the first hook every group fires).
	crashAt := func(step twoPCStep, gid uint64, sh int) error {
		mu.Lock()
		o, ok := ordOf[gid]
		if !ok {
			o = nGroups
			ordOf[gid] = o
			nGroups++
		}
		e := twoPCPlan[o%len(twoPCPlan)]
		hit := e.step == step && (sh < 0 || e.shard == sh)
		if hit {
			crashes[step]++
		}
		router := rt
		mu.Unlock()
		if !hit {
			return nil
		}
		switch step {
		case stepBeforePrepare:
			router.FailShard(sh, errSimCrash)
		case stepBeforeDecide:
			router.CrashCoordinator() // undecided groups vanish: presumed abort
		}
		// The other steps need no help: commit2PC fails the shard itself
		// (after-prepare) or every prepared leg (after-decide), and a
		// before-forget crash just leaves the decision live in the
		// coordinator log.
		return errSimCrash
	}
	groupCount := func() int {
		mu.Lock()
		defer mu.Unlock()
		return nGroups
	}
	hooks := shard.TwoPCHooks{
		BeforePrepare: func(gid uint64, sh int) error { return crashAt(stepBeforePrepare, gid, sh) },
		AfterPrepare:  func(gid uint64, sh int) error { return crashAt(stepAfterPrepare, gid, sh) },
		BeforeDecide:  func(gid uint64) error { return crashAt(stepBeforeDecide, gid, -1) },
		AfterDecide:   func(gid uint64) error { return crashAt(stepAfterDecide, gid, -1) },
		BeforeForget:  func(gid uint64) error { return crashAt(stepBeforeForget, gid, -1) },
	}

	// A light chaos schedule keeps the wire layer honest without drowning
	// the crash plan: a few connection cuts, far apart, keyed by frame
	// index (deterministic against the serial history).
	s, err := serve("2pc", seed, rng, twoPCKeys, []chaos.Rule{
		{Dir: chaos.Out, Frame: 23, Action: chaos.Cut},
		{Dir: chaos.In, Frame: 101, Action: chaos.Cut},
		{Dir: chaos.Out, Frame: 211, Action: chaos.Cut},
	}, hooks)
	if err != nil {
		return fp, err
	}
	r := s.router
	mu.Lock()
	rt = r
	mu.Unlock()
	defer func() {
		fp.servedFingerprint = s.fp
		if cerr := s.close(); err == nil {
			err = cerr
		}
	}()

	// groupKey mints a fresh key owned by the given shard: group keys are
	// never reused, so an atomicity breach shows up as a key that exists
	// when its group aborted (or half of a group that committed).
	groupKey := func(op, target int) string {
		for nonce := 0; ; nonce++ {
			k := fmt.Sprintf("g%04d-s%d-%d", op, target, nonce)
			if r.ShardOf([]byte(k)) == target {
				return k
			}
		}
	}
	// quiesce waits for every shard to be healthy with zero in-doubt legs —
	// the cell's "recovery finished" barrier after each injected crash.
	quiesce := func() bool {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			settled := r.TwoPCInfo().InDoubt == 0
			for i := 0; settled && i < r.NumShards(); i++ {
				settled = r.Health(i).State == shard.Healthy
			}
			if settled || time.Now().After(deadline) {
				return settled
			}
		}
	}

	for op := 0; op < twoPCOps; op++ {
		if op%40 == 20 {
			// Standalone coordinator crash between operations: durable
			// decisions and retired groups must survive it, and the bumped
			// incarnation must keep new group ids collision-free.
			r.CrashCoordinator()
			fp.CoordCrashes++
		}
		switch roll := rng.Intn(100); {
		case roll < 45:
			err = s.set(op)
		case roll < 65:
			err = s.get(op)
		case roll < 75:
			err = s.del(op)
		default: // multi-shard transaction: one fresh key on each shard
			k0, v0 := groupKey(op, 0), fmt.Sprintf("t0-%d-%04x", op, rng.Uint64()&0xffff)
			k1, v1 := groupKey(op, 1), fmt.Sprintf("t1-%d-%04x", op, rng.Uint64()&0xffff)
			before := groupCount()
			tx, lost, serr := s.stage(op, [][2]string{{k0, v0}, {k1, v1}})
			if serr != nil {
				return fp, serr
			}
			if lost {
				fp.GroupsLost++
				break
			}
			outcome, cerr := tx.Commit()
			if errors.Is(cerr, shardclient.ErrTxLost) {
				fp.GroupsLost++
				break
			}
			landed := applied(outcome, cerr)
			if groupCount() == before {
				// The commit never reached 2PC (connection cut before the
				// server processed it, or a leg failed at Put time): no
				// group, no plan entry consumed — it must not have applied.
				if landed {
					return fp, fmt.Errorf("op %d: commit applied without a 2PC group", op)
				}
				fp.GroupsLost++
				break
			}
			entry := twoPCPlan[before%len(twoPCPlan)]
			switch entry.step {
			case stepBeforePrepare, stepBeforeDecide:
				// Crash before the decision: presumed abort, must never apply.
				if landed {
					return fp, fmt.Errorf("op %d: group %d applied despite %v crash", op, before, entry.step)
				}
				fp.GroupsAborted++
			case stepAfterPrepare, stepAfterDecide, stepBeforeForget:
				// The commit decision becomes durable: must always apply,
				// however many participants died after voting.
				if !landed {
					return fp, fmt.Errorf("op %d: group %d lost despite durable commit decision (%v crash): outcome=%v err=%v",
						op, before, entry.step, outcome, cerr)
				}
				fp.GroupsApplied++
				s.acked.put(k0, v0)
				s.acked.put(k1, v1)
			default: // clean group: whatever the wire decided, atomically
				if landed {
					fp.GroupsApplied++
					s.acked.put(k0, v0)
					s.acked.put(k1, v1)
				} else {
					fp.GroupsAborted++
				}
			}
			if entry.step != stepNone && !quiesce() {
				return fp, fmt.Errorf("op %d: shards did not quiesce after %v crash (in-doubt=%d)",
					op, entry.step, r.TwoPCInfo().InDoubt)
			}
		}
		if err != nil {
			return fp, err
		}
	}

	// History over: let every restart and in-doubt resolution finish, then
	// verify on a clean connection that exactly the oracle survived.
	if !quiesce() {
		return fp, fmt.Errorf("final quiescence timeout (in-doubt=%d)", r.TwoPCInfo().InDoubt)
	}
	if err := s.verify(); err != nil {
		return fp, err
	}
	mu.Lock()
	fp.Crashes = crashes
	mu.Unlock()

	info := r.TwoPCInfo()
	fp.LiveDecisions = info.Coordinator.LiveDecisions
	fp.Incarnation = info.Coordinator.Incarnation
	fp.InDoubtFinal = info.InDoubt
	if fp.InDoubtFinal != 0 {
		return fp, fmt.Errorf("final state: %d transaction(s) still in doubt", fp.InDoubtFinal)
	}
	if uint64(fp.LiveDecisions) != fp.Crashes[stepBeforeForget] {
		return fp, fmt.Errorf("coordinator log holds %d live decisions, want %d (one per before-forget crash)",
			fp.LiveDecisions, fp.Crashes[stepBeforeForget])
	}
	if want := 1 + fp.CoordCrashes + fp.Crashes[stepBeforeDecide]; fp.Incarnation != want {
		return fp, fmt.Errorf("coordinator incarnation %d, want %d (one bump per crash)", fp.Incarnation, want)
	}
	for st := stepBeforePrepare; st < numTwoPCSteps; st++ {
		if fp.Crashes[st] < 2 {
			return fp, fmt.Errorf("crash step %v exercised %d time(s), want >= 2 (history too short?)", st, fp.Crashes[st])
		}
	}
	return fp, nil
}
