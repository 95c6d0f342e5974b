// Command madpipe plans and schedules pipelined model-parallel training
// for one network on one platform, printing the allocation, the periodic
// schedule (as an ASCII Gantt chart), per-GPU memory, and a comparison
// with the PipeDream baseline.
//
// Examples:
//
//	madpipe -net resnet50 -p 4 -mem 8 -bw 12
//	madpipe -chain profile.json -p 8 -mem 16 -ilp 10s
//	madpipe -net densenet121 -p 4 -mem 6 -contig
//	madpipe -net resnet50 -p 4 -frontier 3:16:1
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"madpipe/internal/chain"
	"madpipe/internal/core"
	"madpipe/internal/ilpsched"
	"madpipe/internal/nets"
	"madpipe/internal/obs"
	"madpipe/internal/pipedream"
	"madpipe/internal/platform"
	"madpipe/internal/sim"
	"madpipe/internal/trace"
)

func main() {
	var (
		netName   = flag.String("net", "resnet50", "network profile: resnet50, resnet101, inception, densenet121, gpt2, gpt2-xl, llama7b")
		chainFile = flag.String("chain", "", "load the chain from a JSON profile instead of -net")
		workers   = flag.Int("p", 4, "number of GPUs")
		memGB     = flag.Float64("mem", 8, "memory per GPU in GB")
		bwGB      = flag.Float64("bw", 12, "link bandwidth in GB/s")
		batch     = flag.Int("batch", 8, "mini-batch size (with -net)")
		size      = flag.Int("size", 1000, "image size (with -net)")
		ilp       = flag.Duration("ilp", 10*time.Second, "exact-scheduler budget (0 disables the MILP)")
		contig    = flag.Bool("contig", false, "disable the special processor (contiguous ablation)")
		maxChain  = flag.Int("maxchain", 24, "coarsen the chain to at most this many nodes before planning")
		width     = flag.Int("gantt", 100, "Gantt chart width in columns (0 disables)")
		simP      = flag.Int("sim", 24, "simulation horizon in periods for verification (0 disables)")
		traceFile = flag.String("trace", "", "write a Chrome trace-event JSON of the schedule (and, with -stats/-listen, the planning process) to this file")
		weights   = flag.String("weights", "2bw", "weight-versioning policy: 2bw (paper) or stash (original PipeDream)")
		statsFile = flag.String("stats", "", "write a structured PlanReport JSON to this file (\"-\" for stdout)")
		listen    = flag.String("listen", "", "serve /metrics (Prometheus), /debug/vars (expvar) and /debug/pprof on this address while planning, e.g. :8080")
		parallel  = flag.Int("parallel", 0, "planner probe fan-out budget (0 auto, 1 sequential bisection, at most 4 probes per round; see core.Options.Parallel)")
		timeout   = flag.Duration("timeout", 0, "planning deadline (0 = none); expiry cancels the planner between probes")
		frontier  = flag.String("frontier", "", "solve the T*(M) frontier over these memory limits in GB instead of planning one cell: a comma-separated list (\"3,4,6,8\"), a lo:hi:step range (\"3:16:1\"), or both; dumps the breakpoint list as JSON to -stats (default stdout)")
		blocks    = flag.Int("blocks", 0, "override a transformer preset's decoder-block count (with -net gpt2/gpt2-xl/llama7b)")
		gran      = flag.Int("gran", 0, "transformer chain granularity: layers per decoder block, 1..8 (with a transformer -net; 0 = the preset's op granularity)")
		coarsenG  = flag.Int("coarsen-group", 0, "merge runs of near-uniform layers into super-layers of at most this many layers before planning (0 off, 1 identity; replaces -maxchain when set)")
		coarsenT  = flag.Float64("coarsen-tol", 0, "relative per-field tolerance of the run-coarsening scan (0 = bit-equal layers only)")
	)
	flag.Parse()

	c, err := loadChain(*chainFile, *netName, *batch, *size, *blocks, *gran)
	if err != nil {
		fatal(err)
	}
	plat := platform.Platform{Workers: *workers, Memory: *memGB * platform.GB, Bandwidth: *bwGB * platform.GB}
	if err := plat.Validate(); err != nil {
		fatal(err)
	}
	if *coarsenG < 0 {
		fatal(fmt.Errorf("-coarsen-group must be >= 0, got %d", *coarsenG))
	}
	if *coarsenT < 0 || math.IsInf(*coarsenT, 0) || math.IsNaN(*coarsenT) {
		fatal(fmt.Errorf("-coarsen-tol must be finite and >= 0, got %g", *coarsenT))
	}
	// Chain reduction before planning. -coarsen-group selects the exact
	// run-coarsening path: the planner merges runs of near-uniform layers
	// into super-layers, plans on the short chain, and un-coarsens the
	// cuts back to original layer indices — so it supersedes the greedy
	// -maxchain pass here. Without it the greedy pass still applies,
	// except that its CNN-era default of 24 nodes is not forced onto the
	// transformer presets (it would blindly collapse thousands of uniform
	// decoder layers); pass -maxchain explicitly to insist.
	maxChainSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "maxchain" {
			maxChainSet = true
		}
	})
	_, isTransformer := nets.TransformerPreset(*netName)
	cc := c
	if *coarsenG == 0 && !(isTransformer && *chainFile == "" && !maxChainSet) {
		cc, err = c.Coarsen(*maxChain)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("network: %v\nplatform: %v\n", cc, plat)

	opts := core.Options{
		DisableSpecial:   *contig,
		Parallel:         *parallel,
		CoarsenGroup:     *coarsenG,
		CoarsenTolerance: *coarsenT,
	}
	switch *weights {
	case "2bw":
		opts.Weights = chain.TwoBufferedWeights()
	case "stash":
		opts.Weights = chain.StashedWeights()
	default:
		fatal(fmt.Errorf("unknown -weights %q (want 2bw or stash)", *weights))
	}
	// Observability: one registry feeds the HTTP endpoints, the PlanReport
	// and the planner-phase trace lanes. It stays nil when unused so the
	// planner runs its uninstrumented hot path.
	var reg *obs.Registry
	if *statsFile != "" || *listen != "" {
		reg = obs.NewRegistry()
		opts.Obs = reg
	}
	if *listen != "" {
		srv, addr, err := reg.ListenAndServe(*listen)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Printf("observability: http://%s/metrics /debug/vars /debug/pprof (until exit)\n", addr)
	}
	// One shared cancellation path covers both planning modes: the
	// deadline cancels the search between probes, never mid-DP, so a run
	// that finishes in time is bit-identical to an unbounded one.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *frontier != "" {
		if err := runFrontier(ctx, cc, plat, opts, reg, *frontier, *statsFile); err != nil {
			fatal(err)
		}
		return
	}
	sched := core.ScheduleOptions{}
	if *ilp > 0 {
		sched.MILP = ilpsched.New(ilpsched.Options{Budget: *ilp})
	}
	start := time.Now()
	plan, err := core.PlanAndScheduleCtx(ctx, cc, plat, opts, sched)
	if err != nil {
		fatal(fmt.Errorf("madpipe found no feasible schedule: %w", err))
	}
	fmt.Printf("\nMadPipe (planned in %s):\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("  phase-1 prediction: %.4fs (target T=%.4fs)\n",
		plan.PhaseOne.PredictedPeriod, plan.PhaseOne.TargetPeriod)
	fmt.Printf("  valid schedule:     %.4fs via %s  (%.2f batches/s)\n",
		plan.Period, plan.Scheduler, 1/plan.Period)
	fmt.Printf("  speedup vs 1 GPU:   %.2fx (of %d)\n", cc.TotalU()/plan.Period, *workers)
	fmt.Printf("  allocation:         %v\n", plan.Pattern.Alloc)
	fmt.Println("  memory peaks:")
	peaks := plan.Pattern.MemoryPeaks()
	for gpu := 0; gpu < *workers; gpu++ {
		fmt.Printf("    gpu%d: %.2f / %.2f GB\n", gpu, peaks[gpu]/platform.GB, *memGB)
	}
	if *width > 0 {
		fmt.Println("\nschedule pattern:")
		fmt.Print(plan.Pattern.Gantt(*width))
	}
	// The run report drives -stats and the planner lanes of -trace.
	var report *core.PlanReport
	if reg != nil {
		report = core.NewPlanReport(cc, plat, opts, plan.PhaseOne)
		report.AttachSchedule(plan)
		report.AttachObs(reg)
	}
	if *statsFile != "" {
		if err := writeReport(*statsFile, report); err != nil {
			fatal(err)
		}
		if *statsFile != "-" {
			fmt.Printf("\nplan report written to %s\n", *statsFile)
		}
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatal(err)
		}
		tf := trace.FromPattern(plan.Pattern, 12)
		if report != nil {
			trace.StampPlanner(tf, report)
			trace.AppendPlanner(tf, report)
		}
		if err := tf.Write(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\ntrace written to %s (open in chrome://tracing or Perfetto)\n", *traceFile)
	}
	if *simP > 0 {
		res, err := sim.Run(plan.Pattern, *simP)
		if err != nil {
			fatal(err)
		}
		if len(res.Violations) > 0 {
			fmt.Printf("\nSIMULATION VIOLATIONS (%d):\n", len(res.Violations))
			for _, v := range res.Violations {
				fmt.Println(" ", v)
			}
			os.Exit(1)
		}
		fmt.Printf("\nsimulated %d periods: no violations, throughput %.3f batches/s\n",
			res.Periods, res.Throughput)
	}

	// Baseline comparison.
	if pd, err := pipedream.Plan(cc, plat); err == nil {
		if pdPlan, err := core.ScheduleAllocation(pd.Alloc, core.ScheduleOptions{}); err == nil {
			ratio := pdPlan.Period / plan.Period
			fmt.Printf("\nPipeDream baseline: predicted %.4fs, valid %.4fs -> MadPipe is %.2fx %s\n",
				pd.PredictedPeriod, pdPlan.Period, math.Max(ratio, 1/ratio), winner(ratio))
		} else {
			fmt.Printf("\nPipeDream baseline: partitioning unschedulable within memory (%v)\n", err)
		}
	} else {
		fmt.Printf("\nPipeDream baseline: no partitioning fits (%v)\n", err)
	}
}

func winner(ratio float64) string {
	if ratio >= 1 {
		return "faster"
	}
	return "slower"
}

func loadChain(file, net string, batch, size, blocks, gran int) (*chain.Chain, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return chain.Read(f)
	}
	if ts, ok := nets.TransformerPreset(net); ok {
		if batch >= 1 {
			ts.Batch = batch
		}
		if blocks >= 1 {
			ts.Blocks = blocks
		}
		if gran >= 1 {
			ts.Granularity = gran
		}
		return nets.BuildTransformer(ts)
	}
	return nets.Build(nets.Spec{Name: net, Batch: batch, Size: size})
}

func writeReport(path string, report *core.PlanReport) error {
	return writeJSONReport(path, report.WriteJSON)
}

func writeJSONReport(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runFrontier handles -frontier: one PlanFrontier walk over the parsed
// memory ladder, a human summary of the breakpoints on stdout, and the
// full FrontierReport as JSON to dest ("-" or empty for stdout).
func runFrontier(ctx context.Context, cc *chain.Chain, plat platform.Platform, opts core.Options, reg *obs.Registry, spec, dest string) error {
	mems, err := parseMemSpec(spec)
	if err != nil {
		return err
	}
	start := time.Now()
	fr, err := core.PlanFrontierCtx(ctx, cc, plat, mems, opts)
	if err != nil {
		return err
	}
	fmt.Printf("\nT*(M) frontier (%d samples, solved in %s):\n",
		len(fr.Samples), time.Since(start).Round(time.Millisecond))
	for _, s := range fr.Segments {
		if s.Feasible {
			fmt.Printf("  [%6.2f, %6.2f] GB  T*=%.4fs (target %.4fs), certified down to %.2f GB\n",
				s.MemLo/platform.GB, s.MemHi/platform.GB, s.Predicted, s.Target, s.CertLo/platform.GB)
		} else {
			fmt.Printf("  [%6.2f, %6.2f] GB  infeasible\n", s.MemLo/platform.GB, s.MemHi/platform.GB)
		}
	}
	fmt.Printf("  probes: %d folded, %d answered without a DP run (%d by the frontier store), %d replays after the seed\n",
		fr.Probes, fr.ProbesSaved, fr.FrontierSaved, fr.Replays)
	report := core.NewFrontierReport(cc, plat, opts, fr)
	report.AttachObs(reg)
	if dest == "" {
		dest = "-"
	}
	if err := writeJSONReport(dest, report.WriteJSON); err != nil {
		return err
	}
	if dest != "-" {
		fmt.Printf("\nfrontier report written to %s\n", dest)
	}
	return nil
}

// parseMemSpec parses the -frontier memory ladder: comma-separated
// items, each either a single limit in GB or a lo:hi:step range
// (inclusive of hi when it lands on the step).
func parseMemSpec(spec string) ([]float64, error) {
	var mems []float64
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if strings.Contains(item, ":") {
			parts := strings.Split(item, ":")
			if len(parts) != 3 {
				return nil, fmt.Errorf("bad -frontier range %q (want lo:hi:step)", item)
			}
			var lo, hi, step float64
			for i, p := range []*float64{&lo, &hi, &step} {
				v, err := strconv.ParseFloat(strings.TrimSpace(parts[i]), 64)
				if err != nil {
					return nil, fmt.Errorf("bad -frontier range %q: %v", item, err)
				}
				*p = v
			}
			if step <= 0 || hi < lo {
				return nil, fmt.Errorf("bad -frontier range %q (want lo <= hi, step > 0)", item)
			}
			for k := 0; ; k++ {
				m := lo + float64(k)*step
				if m > hi*(1+1e-12) {
					break
				}
				mems = append(mems, m*platform.GB)
			}
			continue
		}
		v, err := strconv.ParseFloat(item, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -frontier memory %q: %v", item, err)
		}
		mems = append(mems, v*platform.GB)
	}
	if len(mems) == 0 {
		return nil, fmt.Errorf("-frontier %q names no memory limits", spec)
	}
	return mems, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "madpipe:", err)
	os.Exit(1)
}
