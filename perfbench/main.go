// Command perfbench is the repository's benchmark: one command that takes
// a workload name and a seed, generates that workload's inputs, runs them
// against the code under test, checks the outputs, and prints every
// metric by name with its unit. Run it through run.sh, which builds
// madpiped and this command from the same checkout:
//
//	bash perfbench/run.sh --workload serve_cnn_mix --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh compare .bench_build/results/old .bench_build/results/new
//	bash perfbench/run.sh attribution .bench_build/results/untraced .bench_build/results/traced
//
// Workloads (see README.md for why each exists):
//
//   - serve_cnn_mix: closed-loop /v1/plan traffic over the four CNN
//     profiles from two clients against a madpiped child process —
//     a seeded hot set that hits the memo plus one cold cell every 8–10
//     requests, half the requests carrying their chain inline.
//   - serve_gpt2_raw: one client planning raw 1026–1050-layer GPT-2
//     chains on P = 16 (blocked DP storage, the large-chain parallel
//     default); every request is a memo miss.
//   - sweep_fig7: expt.Runner.Sweep on two sweep workers, in process,
//     over cycles of one-profile jobs on the Fig. 7 memory ladder in a
//     seeded order.
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 the same stream runs with spans recorded around
// every layer call and an in-process replay of each request, and the
// last line carries the per-layer metrics. Every run also writes its full
// result (host metadata, sample counts, exact work counters, workload
// properties) under -out, which the compare and attribution modes read.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// Metric is one named value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Unit is one slice of the seeded stream whose work counters must repeat
// exactly for a seed: a block of served requests, one raw plan, or one
// sweep job. Runs of one seed complete different numbers of units, so
// compare matches units by name.
type Unit struct {
	Name     string           `json:"name"`
	Counters map[string]int64 `json:"counters"`
}

// Result is the full record of one run.
type Result struct {
	Host      Host              `json:"host"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Started   time.Time         `json:"started"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	Layers    map[string]Metric `json:"layers,omitempty"`
	// Samples counts the observations behind each quantile metric.
	Samples map[string]int `json:"samples"`
	// Exact holds the counters that must repeat for the seed, per unit.
	Exact []Unit `json:"exact"`
	// Scheduling holds counters that depend on which worker took which
	// request, labelled so they are never mistaken for exact ones.
	Scheduling map[string]float64 `json:"scheduling_dependent,omitempty"`
	// Properties describes the generated inputs (hit share, chain
	// lengths, ...), so a later claim can cite its share per workload.
	Properties map[string]any `json:"properties"`
	Notes      []string       `json:"notes,omitempty"`
}

// maxFailureNotes bounds how many failure messages a result keeps.
const maxFailureNotes = 20

// fail records a failed attempt with its reason.
func (r *Result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *Result) metric(name, unit string, v float64) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// layer records a per-layer metric. Layers a workload does not exercise
// are reported as 0 (see finish).
func (r *Result) layer(name, unit string, v float64) {
	if r.Layers == nil {
		r.Layers = map[string]Metric{}
	}
	r.Layers[name] = Metric{Value: v, Unit: unit}
}

// config is one run's parameters.
type config struct {
	root    string // repository checkout the program is built from
	daemon  string // madpiped binary
	out     string // result directory
	seed    int64
	seconds int
	trace   bool
}

type workload func(cfg config, res *Result) error

var workloads = map[string]workload{
	"serve_cnn_mix":  runCNNMix,
	"serve_gpt2_raw": runGPT2Raw,
	"sweep_fig7":     runSweep,
}

func main() {
	var (
		root    = flag.String("root", ".", "repository checkout under test")
		daemon  = flag.String("daemon", "", "madpiped binary built from the checkout")
		out     = flag.String("out", "", "directory for full result files (required for a workload run)")
		name    = flag.String("workload", "", "workload to run: serve_cnn_mix, serve_gpt2_raw or sweep_fig7")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds = flag.Int("seconds", 30, "length of the timed window")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	)
	flag.Parse()
	if args := flag.Args(); len(args) > 0 {
		if err := runMode(*root, args); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || *out == "" {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1, --trace 0 or 1, and -out given")
		os.Exit(2)
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// An interrupted run stops its daemons before exiting, so no child
	// outlives the benchmark.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		stopAll()
		os.Exit(130)
	}()
	cfg := config{root: absRoot, daemon: *daemon, out: *out, seed: *seed, seconds: *seconds, trace: *trace == 1}
	res := &Result{
		Host:     hostInfo(absRoot),
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: cfg.trace,
		Started:    time.Now().UTC(),
		Metrics:    map[string]Metric{},
		Samples:    map[string]int{},
		Properties: map[string]any{},
	}
	if err := run(cfg, res); err != nil {
		// A workload that could not run prints no result line.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if res.Attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no work completed in the window\n", *name)
		os.Exit(1)
	}
	res.metric("ok_ratio", "1", float64(res.Attempted-res.Failed)/float64(res.Attempted))
	res.Correct = res.Failed == 0
	if err := finish(cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// finish writes the full result and prints the summary and the result
// line, which must be the last line of standard output.
func finish(cfg config, res *Result) error {
	spec, err := loadSpec(cfg.root)
	if err != nil {
		return err
	}
	if err := spec.conform(res.Metrics, spec.EndToEnd, false); err != nil {
		return fmt.Errorf("%s: %w", res.Workload, err)
	}
	if cfg.trace {
		if res.Layers == nil {
			res.Layers = map[string]Metric{}
		}
		if err := spec.conform(res.Layers, spec.PerLayer, true); err != nil {
			return fmt.Errorf("%s: %w", res.Workload, err)
		}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-%s-%s.json", res.Workload, res.Seed, mode, res.Started.Format("20060102T150405.000")))
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: wrote", path)
	printSummary(os.Stderr, res)
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics}
	if cfg.trace {
		line.Metrics = res.Layers
	}
	b, err = json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func printSummary(w *os.File, res *Result) {
	fmt.Fprintf(w, "%s seed=%d seconds=%d trace=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
	for _, set := range []map[string]Metric{res.Metrics, res.Layers} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
}
