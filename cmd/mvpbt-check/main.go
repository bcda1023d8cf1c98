// Command mvpbt-check runs the verification arsenal of internal/check:
//
//	mvpbt-check diff       differential harness: a randomized multi-client
//	                       history against the engine and a naive MVCC oracle
//	                       in lockstep, crash-restarts injected; a violation
//	                       is shrunk to a minimal reproducer
//	mvpbt-check faults     device faults under the same harness, both heaps
//	mvpbt-check scenarios  hostile workloads across the device zoo and both
//	                       heaps; snapshot-pin fills to read-only, reclaims,
//	                       resumes, injects ENOSPC and recovers
//	mvpbt-check chaos      connection resets, truncations, stalls over TCP
//	mvpbt-check 2pc        crashes at every step of the cross-shard commit
//	mvpbt-check all        the four campaigns above, back to back
//
// Every campaign cell is run twice and must replay byte-identically
// (DESIGN.md "Verification campaigns"). With no flags a subcommand runs what
// `make check-<name>` runs (`diff`: what `make check` runs); `<subcommand>
// -h` lists the flags that mean something to it. A failing cell prints the
// command that reruns exactly that cell.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"mvpbt/internal/check"
	"mvpbt/internal/db"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one subcommand and returns the process exit code: 0 pass,
// 1 a violation or nondeterministic replay, 2 usage.
func run(args []string, out, errw io.Writer) int {
	var campaigns []*check.Campaign
	switch {
	case len(args) == 0:
	case args[0] == "diff":
		return runDiff(args[1:], out, errw)
	case args[0] == "all" && len(args) == 1:
		campaigns = check.Campaigns
	default:
		if c := check.CampaignByName(args[0]); c != nil {
			campaigns = []*check.Campaign{c}
		}
	}
	if campaigns == nil {
		names := []string{"diff"}
		for _, c := range check.Campaigns {
			names = append(names, c.Name)
		}
		fmt.Fprintf(errw, "usage: mvpbt-check <%s|all> [flags]   (all takes none)\n", strings.Join(names, "|"))
		return 2
	}
	code := 0
	for _, c := range campaigns {
		sel, ok := selection(c, args[1:], errw)
		if !ok {
			return 2
		}
		if _, failed := c.Run(sel, out); failed {
			code = 1
		}
	}
	return code
}

// selection parses the flags c's grid gives meaning to: a list flag per axis
// its cells have a coordinate on, a size flag per history size it uses.
func selection(c *check.Campaign, args []string, errw io.Writer) (sel check.Selection, ok bool) {
	fs := flag.NewFlagSet("mvpbt-check "+c.Name, flag.ContinueOnError)
	fs.SetOutput(errw)
	seed := fs.Uint64("seed", 1, "first seed (reruns are deterministic)")
	seeds := fs.Int("seeds", c.Seeds, "seed count (seeds -seed..-seed+N-1)")

	values := map[string][]string{} // axis → the values the default grid has on it
	for _, cell := range c.Select(check.Selection{}) {
		for _, co := range cell.Coords {
			if !slices.Contains(values[co.Axis], co.Value) {
				values[co.Axis] = append(values[co.Axis], co.Value)
			}
		}
	}
	csv := map[string]*string{}
	for axis, name := range check.AxisFlags {
		if len(values[axis]) > 0 {
			csv[axis] = fs.String(name, "", "comma-separated subset of "+strings.Join(values[axis], ", ")+" (empty = all)")
		}
	}
	for i, def := range c.Size {
		if def > 0 {
			fs.IntVar(&sel.Size[i], check.SizeFlags[i], def, "history size")
		}
	}
	if err := fs.Parse(args); err != nil || fs.NArg() > 0 {
		return sel, false
	}
	for i := 0; i < *seeds; i++ {
		sel.Seeds = append(sel.Seeds, *seed+uint64(i))
	}
	sel.Filter = map[string][]string{}
	for axis, list := range csv {
		for _, v := range strings.FieldsFunc(*list, func(r rune) bool { return r == ',' || r == ' ' }) {
			if !slices.Contains(values[axis], v) {
				fmt.Fprintf(errw, "unknown -%s value %q (want %s)\n", check.AxisFlags[axis], v, strings.Join(values[axis], ", "))
				return sel, false
			}
			sel.Filter[axis] = append(sel.Filter[axis], v)
		}
	}
	return sel, true
}

// runDiff drives the differential harness on each selected heap; on a
// violation it shrinks the history and prints the exact repro command.
func runDiff(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("mvpbt-check diff", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		seed       = fs.Uint64("seed", 1, "history seed (printed on failure; reruns are deterministic)")
		ops        = fs.Int("ops", 6000, "history length — the run-length budget knob (nightly: 50000)")
		clients    = fs.Int("clients", 4, "logical clients interleaved in the history")
		keys       = fs.Int("keys", 200, "key-space size")
		crashes    = fs.Int("crashes", 2, "crash-restart points injected into the history")
		heapSel    = fs.String("heap", "both", "heap layout: hot, sias or both")
		auditEvery = fs.Int("audit-every", 250, "full audit cadence in ops")
		fault      = fs.Int("inject-fault", 0, "TEST the harness: invert visibility for tx ids divisible by N")
		noShrink   = fs.Bool("no-shrink", false, "skip shrinking on failure")
		verbose    = fs.Bool("v", false, "progress output")
	)
	if err := fs.Parse(args); err != nil || fs.NArg() > 0 {
		return 2
	}
	if *heapSel != "both" && *heapSel != "hot" && *heapSel != "sias" {
		fmt.Fprintf(errw, "unknown -heap %q (want hot, sias or both)\n", *heapSel)
		return 2
	}
	for _, hk := range []db.HeapKind{db.HeapHOT, db.HeapSIAS} {
		if *heapSel != "both" && *heapSel != hk.String() {
			continue
		}
		cfg := check.RunConfig{
			Heap: hk, Seed: *seed, Ops: *ops, Clients: *clients, Keys: *keys,
			Crashes: *crashes, AuditEvery: *auditEvery,
			FaultEvery: *fault,
		}
		if *verbose {
			cfg.Log = func(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) }
		}
		fmt.Fprintf(out, "heap=%-4s seed=%d ops=%d clients=%d keys=%d crashes=%d\n",
			hk, *seed, *ops, *clients, *keys, *crashes)
		res := check.Run(cfg)
		if res.Violation == nil {
			fmt.Fprintf(out, "  OK: %d ops, %d audits, %d crash-recoveries, %d write conflicts — zero invariant violations\n",
				res.Ops, res.Audits, res.Crashes, res.Conflicts)
			continue
		}
		fmt.Fprintf(out, "  VIOLATION: %v\n", res.Violation)
		if !*noShrink {
			history := check.History(cfg)
			fmt.Fprintf(out, "  shrinking (%d-op history)...\n", len(history))
			min := check.Shrink(cfg, history, 0)
			fmt.Fprintf(out, "  minimal failing history (%d ops):\n%s", len(min), check.FormatOps(min))
			step := cfg
			step.StepAudit, step.Log = true, nil
			if r := check.Replay(step, min); r.Violation != nil {
				fmt.Fprintf(out, "  violation: %v\n", r.Violation)
			}
		}
		fmt.Fprintf(out, "  reproduce: go run ./cmd/mvpbt-check diff -seed %d -ops %d -clients %d -keys %d -crashes %d -heap %s -audit-every %d",
			*seed, *ops, *clients, *keys, *crashes, hk, *auditEvery)
		if *fault > 0 {
			fmt.Fprintf(out, " -inject-fault %d", *fault)
		}
		fmt.Fprintln(out)
		return 1
	}
	return 0
}
