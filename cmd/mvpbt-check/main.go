// Command mvpbt-check runs the verification campaigns of internal/check:
//
//	mvpbt-check faults     device faults under the differential harness,
//	                       both heaps
//	mvpbt-check scenarios  hostile workloads across the device zoo and both
//	                       heaps; snapshot-pin fills to read-only, reclaims,
//	                       resumes, injects ENOSPC and recovers
//	mvpbt-check chaos      connection resets, truncations, stalls over TCP
//	mvpbt-check 2pc        crashes at every step of the cross-shard commit
//	mvpbt-check diff       differential harness: a randomized multi-client
//	                       history against the engine and a naive MVCC oracle
//	                       in lockstep, crash-restarts injected, both heaps
//	mvpbt-check all        the five campaigns above, back to back
//
// Every campaign cell is run twice and must replay byte-identically
// (DESIGN.md §8). With no flags a subcommand runs what `make check-<name>`
// runs; `<subcommand> -h` lists the flags that mean something to it. A
// failing cell prints the command that reruns exactly that cell; a harness
// cell (faults, diff) also prints the shrunk history that still fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"mvpbt/internal/check"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one subcommand and returns the process exit code: 0 pass,
// 1 a violation or nondeterministic replay, 2 usage.
func run(args []string, out, errw io.Writer) int {
	var campaigns []*check.Campaign
	switch {
	case len(args) == 0:
	case args[0] == "all" && len(args) == 1:
		campaigns = check.Campaigns
	default:
		if c := check.CampaignByName(args[0]); c != nil {
			campaigns = []*check.Campaign{c}
		}
	}
	if campaigns == nil {
		var names []string
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
