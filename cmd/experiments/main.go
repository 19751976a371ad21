// Command experiments regenerates every table and figure-equivalent of the
// paper reproduction (see DESIGN.md §4 and EXPERIMENTS.md).
//
// Usage:
//
//	experiments [-quick] [-only EX4] [-cpuprofile f] [-memprofile f]
//
// -quick runs EX4 at reduced scale (seconds instead of ~10s) and smaller
// sweeps; -only selects a single experiment by id; -cpuprofile/-memprofile
// write pprof evidence for perf work. The solvers' O(S²) loops use
// GOMAXPROCS workers (results are identical at every count).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sourcecurrents/internal/experiments"
	"sourcecurrents/internal/profiling"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-scale variants")
	only := flag.String("only", "", "run a single experiment (e.g. EX4)")
	prof := profiling.Register(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer prof.Finish()

	sweepObjects := 400
	if *quick {
		sweepObjects = 120
	}
	ex4 := experiments.DefaultEX4Config()
	if *quick {
		ex4 = experiments.SmallEX4Config()
	}

	runs := []struct {
		id  string
		run func() *experiments.Report
	}{
		{"EX1", experiments.EX1Table1},
		{"EX2", experiments.EX2Table2},
		{"EX3", experiments.EX3Table3},
		{"EX4", func() *experiments.Report { return experiments.EX4AbeBooks(ex4) }},
		{"EX5", func() *experiments.Report { return experiments.EX5CopySweep(11, sweepObjects) }},
		{"EX6", func() *experiments.Report { return experiments.EX6TruthSweep(13, sweepObjects) }},
		{"EX7", func() *experiments.Report { return experiments.EX7TemporalSweep(17, 60) }},
		{"EX8", func() *experiments.Report { return experiments.EX8QueryOrder(19) }},
		{"EX9", func() *experiments.Report { return experiments.EX9DissimSweep(23) }},
		{"EX10", func() *experiments.Report { return experiments.EX10Winnow(29, sweepObjects) }},
		{"EX11", experiments.RecommendDemo},
	}
	any := false
	for _, r := range runs {
		if *only != "" && !strings.EqualFold(*only, r.id) {
			continue
		}
		any = true
		start := time.Now()
		rep := r.run()
		fmt.Print(rep.String())
		fmt.Printf("(%s completed in %v)\n\n", r.id, time.Since(start).Round(time.Millisecond))
	}
	if !any {
		prof.Finish() // os.Exit skips deferred calls
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
		os.Exit(1)
	}
}
