package check

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"mvpbt/internal/server/chaos"
	"mvpbt/internal/server/shardclient"
	"mvpbt/internal/shard"
	"mvpbt/internal/util"
)

// The served campaign: for every kind × seed, one seeded history runs
// through the served fixture — a self-healing client over TCP into a
// 2-shard router that commits cross-shard transactions by presumed-abort
// two-phase commit. The history mixes single-key SET, GET and DEL, SCANs,
// keyspace transactions (single- and cross-shard: SETs, a read of the last
// staged key, a DEL of an acked key; a seeded quarter of them ABORT) and
// fresh-key group transactions with one key on each shard. The kind says
// what is injected:
//
//   - reset, truncate, stall, mixed: a seeded schedule of connection resets,
//     mid-frame truncations or read/write stalls (mixed draws all three) on
//     the listener, under a crash plan that crashes nothing;
//   - 2pc: three far-apart connection cuts, a standalone coordinator crash
//     every 40 operations, and a crash plan that kills the coordinator or a
//     participant at every protocol step (twoPCPlan).
//
// A cell passes when
//
//   - every acked GET and SCAN equals the acked state, and, with the
//     schedule disarmed, a clean connection's full scan equals it exactly:
//     no acked write is lost, nothing unacked or aborted leaks in, and every
//     group is there both-or-neither;
//   - a transaction reads its own staged write, and the key it deleted reads
//     as the acked state right after it ends: gone once it committed, as
//     before once it aborted or was lost;
//   - every commit whose answer was lost resolves one way through its token;
//   - every transaction that opened a 2PC group ends as its plan entry says:
//     a crash before the decision never applies (presumed abort), and a
//     durable commit decision always applies, however many participants
//     died after voting;
//   - zero in-doubt legs remain after each crash and at the end;
//   - the coordinator log holds one live decision per before-forget crash,
//     and its incarnation is one plus the coordinator crashes.
//
// Chaos rules are keyed by protocol frame index (see package chaos) and plan
// entries by group creation order; with a serial client both are a pure
// function of the logical history, and with them the fingerprint.
var chaosCampaign = &Campaign{
	Name:  "chaos",
	Seeds: 8,
	Size:  Size{Ops: 240, Keys: 120},
	Cells: func(seeds []uint64, sz Size) []Cell {
		var cells []Cell
		for _, kind := range []string{"reset", "truncate", "stall", "mixed", "2pc"} {
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
		var groups uint64
		for _, c := range cells {
			f := c.Fp.(ChaosFingerprint)
			sum.Chaos.Cuts += f.Chaos.Cuts
			sum.Chaos.Truncations += f.Chaos.Truncations
			sum.Chaos.Stalls += f.Chaos.Stalls
			for st, n := range f.Crashes {
				sum.Crashes[st] += n
			}
			sum.CoordCrashes += f.CoordCrashes
			groups += f.GroupsApplied + f.GroupsAborted
			sum.TxAborted += f.TxAborted
			sum.TxDeletes += f.TxDeletes
			sum.Client.Reconnects += f.Client.Reconnects
			sum.Client.Resolves += f.Client.Resolves
		}
		steps := make([]string, 0, numTwoPCSteps-1)
		for st := stepBeforePrepare; st < numTwoPCSteps; st++ {
			steps = append(steps, fmt.Sprintf("%v=%d", st, sum.Crashes[st]))
		}
		return fmt.Sprintf("injected: %d cuts, %d truncations, %d stalls, %d coordinator crashes, protocol-step crashes [%s] "+
			"across %d commit groups in %d runs; %d aborted transactions, %d transactional deletes; %d reconnects, %d commit resolutions outside kind=2pc",
			sum.Chaos.Cuts, sum.Chaos.Truncations, sum.Chaos.Stalls, sum.CoordCrashes, strings.Join(steps, " "),
			groups, len(cells), sum.TxAborted, sum.TxDeletes, sum.Client.Reconnects, sum.Client.Resolves)
	},
}

// ChaosFingerprint is everything two runs of one (kind, seed) must agree on.
type ChaosFingerprint struct {
	servedFingerprint
	// Wire outcomes of the transactions no plan entry crashed: directly
	// acked, resolved as applied after a lost ack, resolved as lost after a
	// lost request, lost before the commit or abort was ever issued
	// (deterministically not applied), and aborted by the client.
	TxApplied, TxResolvedApplied, TxResolvedLost, TxLost, TxAborted uint64
	// TxDeletes counts the transactional DELs that applied.
	TxDeletes uint64
	// Outcomes of the transactions that opened a 2PC group, whatever path
	// the answer took to the client.
	GroupsApplied, GroupsAborted uint64
	// Crashes[s] counts the plan's crashes per twoPCStep; CoordCrashes the
	// standalone coordinator crash/recover cycles between operations.
	Crashes      [numTwoPCSteps]uint64
	CoordCrashes uint64
	// Coordinator-log end state: the live (unretired) decisions, and the
	// incarnation, one bump per coordinator crash.
	LiveDecisions int
	Incarnation   uint64
	// Chaos counts what the schedule injected and how many frames flowed;
	// Client the client's self-healing: dials, reconnects, retried
	// operations, commit-token resolutions. Where the plan restarts shards
	// (kind=2pc), a commit's answer and the retries around it depend on
	// when a shard comes back, so the frame counts and Client stay zero.
	Chaos  chaos.Stats
	Client shardclient.RStats
}

func (fp ChaosFingerprint) String() string {
	return fmt.Sprintf("cuts=%d truncs=%d stalls=%d reconnects=%d "+
		"tx[acked=%d resolved-applied=%d resolved-lost=%d lost=%d aborted=%d dels=%d] groups[applied=%d aborted=%d] "+
		"crashes=%v coord-crashes=%d live-decisions=%d live=%d hash=%016x",
		fp.Chaos.Cuts, fp.Chaos.Truncations, fp.Chaos.Stalls, fp.Client.Reconnects, fp.TxApplied,
		fp.TxResolvedApplied, fp.TxResolvedLost, fp.TxLost, fp.TxAborted, fp.TxDeletes, fp.GroupsApplied, fp.GroupsAborted,
		fp.Crashes[stepBeforePrepare:], fp.CoordCrashes, fp.LiveDecisions, fp.LiveKeys, fp.StateHash)
}

// chaosRules builds a network kind's seeded schedule. Frame indices start
// past the handshake and are spaced so the client's bounded retry budget
// always outlasts the worst contiguous burst a single operation can see.
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

// twoPCCuts is kind=2pc's schedule: a light one that keeps the wire layer
// honest without drowning the crash plan.
var twoPCCuts = []chaos.Rule{
	{Dir: chaos.Out, Frame: 23, Action: chaos.Cut},
	{Dir: chaos.In, Frame: 101, Action: chaos.Cut},
	{Dir: chaos.Out, Frame: 211, Action: chaos.Cut},
}

// twoPCStep is one crash-injection point in the commit protocol.
type twoPCStep int

const (
	stepNone          twoPCStep = iota
	stepBeforePrepare           // participant dies before voting
	stepAfterPrepare            // participant dies holding a durable YES
	stepBeforeDecide            // coordinator dies undecided
	stepAfterDecide             // every participant dies after the commit decision is durable, before learning it
	stepBeforeForget            // coordinator dies before retiring the group
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

// twoPCPlan is kind=2pc's rotation, applied to commit groups in creation
// order: every protocol step crashes, on every shard where that makes
// sense, interleaved with clean groups so forget/ack bookkeeping is
// exercised too. The network kinds' plan is one clean entry.
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

// errSimCrash is the injected failure every crash hook returns.
var errSimCrash = errors.New("chaos campaign: simulated crash")

// crashPlan injects a plan's crashes through the router's 2PC hooks. The
// hooks run on server goroutines, so everything they touch lives behind mu.
// Every hook maps its group to a plan entry by CREATION ORDER, which the
// serial client makes a pure function of the history.
type crashPlan struct {
	entries []twoPCPlanEntry
	mu      sync.Mutex
	router  *shard.Router
	ordOf   map[uint64]int // gid → group ordinal
	crashes [numTwoPCSteps]uint64
}

func (p *crashPlan) entry(ordinal int) twoPCPlanEntry { return p.entries[ordinal%len(p.entries)] }

// groups is how many 2PC groups have opened so far.
func (p *crashPlan) groups() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ordOf)
}

// at is the body of every hook: if gid's plan entry crashes at this step
// (on this shard, for the per-participant steps; sh < 0 otherwise), count
// the injection, do what the protocol will not do by itself, and return the
// error the hook reports. The ordinal is assigned on first sight
// (BeforePrepare is the first hook every group fires).
func (p *crashPlan) at(step twoPCStep, gid uint64, sh int) error {
	p.mu.Lock()
	o, ok := p.ordOf[gid]
	if !ok {
		o = len(p.ordOf)
		p.ordOf[gid] = o
	}
	e := p.entry(o)
	hit := e.step == step && (sh < 0 || e.shard == sh)
	if hit {
		p.crashes[step]++
	}
	router := p.router
	p.mu.Unlock()
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
	// before-forget crash just leaves the decision live in the coordinator
	// log.
	return errSimCrash
}

func (p *crashPlan) hooks() shard.TwoPCHooks {
	return shard.TwoPCHooks{
		BeforePrepare: func(gid uint64, sh int) error { return p.at(stepBeforePrepare, gid, sh) },
		AfterPrepare:  func(gid uint64, sh int) error { return p.at(stepAfterPrepare, gid, sh) },
		BeforeDecide:  func(gid uint64) error { return p.at(stepBeforeDecide, gid, -1) },
		AfterDecide:   func(gid uint64) error { return p.at(stepAfterDecide, gid, -1) },
		BeforeForget:  func(gid uint64) error { return p.at(stepBeforeForget, gid, -1) },
	}
}

// chaosCell runs one seeded history under kind's schedule and crash plan.
func chaosCell(kind string, seed uint64, sz Size) (fp ChaosFingerprint, err error) {
	seed = saltSeed(seed, kind)
	rng := util.NewRand(seed)
	crashing := kind == "2pc"
	plan := &crashPlan{entries: []twoPCPlanEntry{{}}, ordOf: map[uint64]int{}}
	var rules []chaos.Rule
	if crashing {
		plan.entries, rules = twoPCPlan, twoPCCuts
	} else {
		rules = chaosRules(kind, rng)
	}
	s, err := serve(seed, rng, sz[Keys], rules, plan.hooks())
	if err != nil {
		return fp, err
	}
	r := s.router
	plan.mu.Lock()
	plan.router = r
	plan.mu.Unlock()
	defer func() {
		fp.servedFingerprint = s.fp
		fp.Chaos = s.sched.Stats()
		fp.Client = s.client.Stats()
		if crashing {
			fp.Chaos.FramesIn, fp.Chaos.FramesOut, fp.Client = 0, 0, shardclient.RStats{}
		}
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
	// commit stages pending and del in one transaction (see stage) and
	// commits it under its token, or aborts it. A transaction that opened a
	// 2PC group must end as its plan entry says; one the plan did not crash
	// must reach a definite outcome on the wire.
	commit := func(op int, pending [][2]string, del string, abort bool) error {
		tx, lost, err := s.stage(op, pending, del)
		if err != nil {
			return err
		}
		if abort && !lost {
			aerr := tx.Abort()
			if aerr != nil && !errors.Is(aerr, shardclient.ErrTxLost) {
				return fmt.Errorf("op %d: ABORT: %w", op, aerr)
			}
			lost = aerr != nil
		}
		if lost {
			fp.TxLost++
			return nil
		}
		if abort {
			fp.TxAborted++
			return nil
		}
		before := plan.groups()
		outcome, cerr := tx.Commit()
		landed := applied(outcome, cerr)
		step := stepNone
		if plan.groups() == before {
			// The commit never reached 2PC: single-shard, or cut before the
			// server processed it. A cross-shard one must not have applied.
			home := r.ShardOf([]byte(pending[0][0]))
			if landed && slices.ContainsFunc(pending, func(p [2]string) bool { return r.ShardOf([]byte(p[0])) != home }) {
				return fmt.Errorf("op %d: cross-shard commit applied without a 2PC group", op)
			}
		} else {
			switch step = plan.entry(before).step; step {
			case stepBeforePrepare, stepBeforeDecide:
				if landed {
					return fmt.Errorf("op %d: group %d applied despite %v crash", op, before, step)
				}
			case stepAfterPrepare, stepAfterDecide, stepBeforeForget:
				if !landed {
					return fmt.Errorf("op %d: group %d lost despite durable commit decision (%v crash): outcome=%v err=%v",
						op, before, step, outcome, cerr)
				}
			}
			if landed {
				fp.GroupsApplied++
			} else {
				fp.GroupsAborted++
			}
		}
		if landed {
			for _, p := range pending {
				s.acked.put(p[0], p[1])
			}
			if del != "" {
				s.acked.del(del)
				fp.TxDeletes++
			}
		}
		if step != stepNone {
			// The plan decided the outcome; how the answer reached the
			// client depends on when the crashed shards came back.
			if !s.quiesce() {
				return fmt.Errorf("op %d: shards did not quiesce after %v crash (in-doubt=%d)", op, step, r.TwoPCInfo().InDoubt)
			}
			return nil
		}
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
			return fmt.Errorf("op %d: COMMIT unresolved: outcome=%v err=%v", op, outcome, cerr)
		}
		return nil
	}

	for op := 0; op < sz[Ops]; op++ {
		if crashing && op%40 == 20 {
			// Standalone coordinator crash between operations: durable
			// decisions and retired groups must survive it, and the bumped
			// incarnation must keep new group ids collision-free.
			r.CrashCoordinator()
			fp.CoordCrashes++
		}
		switch roll := rng.Intn(100); {
		case roll < 40:
			err = s.set(op)
		case roll < 55:
			err = s.get(op)
		case roll < 65:
			err = s.scan(op)
		case roll < 72:
			err = s.del(op)
		case roll < 86: // keyspace transaction: 2-4 SETs, a DEL; a quarter abort
			pending := make([][2]string, 2+rng.Intn(3))
			for i := range pending {
				pending[i] = [2]string{s.key(), fmt.Sprintf("t-%d-%d-%04x", op, i, rng.Uint64()&0xffff)}
			}
			del := s.key()
			if _, ok := s.acked.get(del); !ok {
				del = ""
			}
			if err = commit(op, pending, del, rng.Intn(4) == 0); err == nil && del != "" {
				err = s.getKey(op, del) // gone if the transaction applied, as acked if not
			}
		default: // group transaction: one fresh key on each shard
			err = commit(op, [][2]string{
				{groupKey(op, 0), fmt.Sprintf("t0-%d-%04x", op, rng.Uint64()&0xffff)},
				{groupKey(op, 1), fmt.Sprintf("t1-%d-%04x", op, rng.Uint64()&0xffff)},
			}, "", false)
		}
		if err != nil {
			return fp, err
		}
	}

	// History over: let every restart and in-doubt resolution finish, then
	// verify on a clean connection that exactly the acked state survived.
	if !s.quiesce() {
		return fp, fmt.Errorf("final quiescence timeout (in-doubt=%d)", r.TwoPCInfo().InDoubt)
	}
	if err := s.verify(); err != nil {
		return fp, err
	}
	plan.mu.Lock()
	fp.Crashes = plan.crashes
	plan.mu.Unlock()
	info := r.TwoPCInfo()
	fp.LiveDecisions, fp.Incarnation = info.Coordinator.LiveDecisions, info.Coordinator.Incarnation
	if info.InDoubt != 0 {
		return fp, fmt.Errorf("final state: %d transaction(s) still in doubt", info.InDoubt)
	}
	if uint64(fp.LiveDecisions) != fp.Crashes[stepBeforeForget] {
		return fp, fmt.Errorf("coordinator log holds %d live decisions, want %d (one per before-forget crash)",
			fp.LiveDecisions, fp.Crashes[stepBeforeForget])
	}
	if want := 1 + fp.CoordCrashes + fp.Crashes[stepBeforeDecide]; fp.Incarnation != want {
		return fp, fmt.Errorf("coordinator incarnation %d, want %d (one bump per crash)", fp.Incarnation, want)
	}
	for st := stepBeforePrepare; crashing && st < numTwoPCSteps; st++ {
		if fp.Crashes[st] < 2 {
			return fp, fmt.Errorf("crash step %v exercised %d time(s), want >= 2 (history too short?)", st, fp.Crashes[st])
		}
	}
	return fp, nil
}
