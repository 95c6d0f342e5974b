// Command profilegen emits the analytical network profiles as JSON
// chains, the interchange format consumed by madpipe -chain. It stands in
// for the paper's GPU profiling step.
//
//	profilegen -net resnet50 > resnet50.json
//	profilegen -net inception -batch 16 -size 500 -o inception.json
//	profilegen -all -dir profiles/
//
// With -cpuprofile it instead runs a representative planning workload
// (repeated Algorithm 1 invocations on the chosen network) and writes a
// CPU profile. Algorithm 1 runs its probes under the pprof label
// madpipe-phase=probe and times every probe into the obs "probe" phase,
// so the sample-based breakdown in the profile and the wall-clock total
// printed after the run describe the same work:
//
//	profilegen -cpuprofile cpu.out -net resnet50 -iters 20
//	go tool pprof -tags cpu.out                       # phase breakdown
//	go tool pprof -tagfocus madpipe-phase=probe cpu.out
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"madpipe/internal/core"
	"madpipe/internal/nets"
	"madpipe/internal/obs"
	"madpipe/internal/platform"
)

func main() {
	var (
		netName = flag.String("net", "resnet50", "network: resnet50, resnet101, inception, densenet121")
		batch   = flag.Int("batch", 8, "mini-batch size")
		size    = flag.Int("size", 1000, "square image size in pixels")
		out     = flag.String("o", "", "output file (default stdout)")
		all     = flag.Bool("all", false, "emit every network")
		dir     = flag.String("dir", ".", "output directory with -all")
		asGraph = flag.Bool("graph", false, "emit the op-level computational graph instead of the linearized chain")
		cpuProf = flag.String("cpuprofile", "", "profile a planning workload into this file instead of emitting chains")
		iters   = flag.Int("iters", 20, "planning invocations under -cpuprofile")
		par     = flag.Int("j", 0, "planner parallelism under -cpuprofile (0 = all cores, 1 = sequential)")
	)
	flag.Parse()

	if *cpuProf != "" {
		if err := profilePlanning(*cpuProf, *netName, *batch, *size, *iters, *par); err != nil {
			fatal(err)
		}
		return
	}

	if *all {
		for _, n := range nets.Names() {
			c, err := nets.Build(nets.Spec{Name: n, Batch: *batch, Size: *size})
			if err != nil {
				fatal(err)
			}
			path := filepath.Join(*dir, n+".json")
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := c.Write(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%d layers)\n", path, c.Len())
		}
		return
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	spec := nets.Spec{Name: *netName, Batch: *batch, Size: *size}
	if *asGraph {
		g, _, err := nets.BuildGraph(spec)
		if err != nil {
			fatal(err)
		}
		if err := g.Write(w); err != nil {
			fatal(err)
		}
		return
	}
	c, err := nets.Build(spec)
	if err != nil {
		fatal(err)
	}
	if err := c.Write(w); err != nil {
		fatal(err)
	}
}

// profilePlanning runs Algorithm 1 repeatedly under the CPU profiler.
// The workload mirrors the repository benchmarks: a 24-node coarsened
// chain planned onto an 8-worker platform with a memory limit tight
// enough to exercise the memory checks. The planner's pprof label
// (madpipe-phase=probe) survives into the profile; inspect it with
// `go tool pprof -tags`. The obs registry attached here times the same
// probes, and its wall-clock totals print after the run as a sanity
// check against the profile's sampled breakdown.
func profilePlanning(path, netName string, batch, size, iters, par int) error {
	c, err := nets.Build(nets.Spec{Name: netName, Batch: batch, Size: size})
	if err != nil {
		return err
	}
	cc, err := c.Coarsen(24)
	if err != nil {
		return err
	}
	plat := platform.Platform{Workers: 8, Memory: 6 * platform.GB, Bandwidth: 12 * platform.GB}
	reg := obs.NewRegistry()
	opts := core.Options{Parallel: par, Obs: reg}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	defer pprof.StopCPUProfile()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := core.PlanAllocation(cc, plat, opts); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "profilegen: %d plans of %s in %s profiled into %s\n",
		iters, netName, elapsed.Round(time.Millisecond), path)
	// Wall-clock phase totals of the labelled probes. Concurrent probes
	// (probe fan > 1) sum per-goroutine time and can exceed the elapsed
	// wall clock.
	snap := reg.Snapshot()
	for _, name := range sortedPhases(snap.Phases) {
		ph := snap.Phases[name]
		fmt.Fprintf(os.Stderr, "  phase %-12s %10s across %d calls (madpipe-phase=%s)\n",
			name, time.Duration(ph.TotalNS).Round(time.Microsecond), ph.Count, name)
	}
	return nil
}

func sortedPhases(m map[string]obs.PhaseSnapshot) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "profilegen:", err)
	os.Exit(1)
}
