// Command mvpbt-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	mvpbt-bench -list
//	mvpbt-bench -run fig12a
//	mvpbt-bench -all -scale full
//	mvpbt-bench -run parallel -cpuprofile cpu.pprof -memprofile mem.pprof
//	mvpbt-bench -run fig12a -device consumer-tlc
//	mvpbt-bench -all -json > bench-figures.json
//
// Every experiment prints the same rows/series the corresponding figure of
// the paper reports; EXPERIMENTS.md records paper-vs-measured values. -json
// prints one JSON array of typed results (every cell's value, precision and kind, and the headline
// metrics with units) for programs that diff figures. The
// -cpuprofile/-memprofile flags write standard pprof profiles covering the
// experiment run (inspect with `go tool pprof`).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mvpbt/internal/bench"
	"mvpbt/internal/ssd"
)

func main() {
	os.Exit(run())
}

// run carries the exit code back to main so that profile-flushing defers
// execute before the process exits.
func run() int {
	var (
		list       = flag.Bool("list", false, "list all experiments")
		runID      = flag.String("run", "", "run one experiment by id (e.g. fig3)")
		all        = flag.Bool("all", false, "run every experiment")
		scale      = flag.String("scale", "quick", "experiment scale: quick | full")
		asJSON     = flag.Bool("json", false, "emit one JSON array of typed results instead of aligned tables")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to `file`")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the run to `file`")
		device     = flag.String("device", "", "device-zoo name every engine-backed experiment runs on (default: calibrated enterprise NVMe); see -list-devices")
		listDev    = flag.Bool("list-devices", false, "list the device zoo and exit")
	)
	flag.Parse()

	if *listDev {
		for _, spec := range ssd.Zoo() {
			fmt.Printf("%-16s mode=%s\n", spec.Name, spec.Mode)
		}
		return 0
	}
	if *device != "" {
		spec, ok := ssd.SpecByName(*device)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown device %q (zoo: %s)\n", *device, strings.Join(ssd.ZooNames(), ", "))
			return 2
		}
		bench.Device = spec
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	var s bench.Scale
	switch *scale {
	case "quick":
		s = bench.Quick
	case "full":
		s = bench.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or full)\n", *scale)
		return 2
	}

	var run []bench.Experiment
	switch {
	case *list:
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return 0
	case *runID != "":
		e, ok := bench.Lookup(*runID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", *runID)
			return 2
		}
		run = []bench.Experiment{e}
	case *all:
		run = bench.All()
	default:
		flag.Usage()
		return 2
	}
	for i, e := range run {
		start := time.Now()
		res, err := e.Run(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			return 1
		}
		switch {
		case *asJSON:
			doc, err := res.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
				return 1
			}
			// One array, one result a line.
			open, end := "[", ","
			if i > 0 {
				open = " "
			}
			if i == len(run)-1 {
				end = "]"
			}
			fmt.Printf("%s%s%s\n", open, doc, end)
		default:
			fmt.Print(res.String())
			fmt.Printf("# completed in %v (real time)\n\n", time.Since(start).Round(time.Millisecond))
		}
	}
	return 0
}
