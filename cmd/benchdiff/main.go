// Command benchdiff is the repository's benchmark-regression harness. It
// runs the root benchmark suite, records every metric (ns/op, B/op,
// allocs/op and the custom ReportMetric values such as DPstates/s) in a
// BENCH_<date>.json snapshot, and compares the run against the most
// recent previous snapshot so a PR can prove it did not regress the
// planner's hot paths.
//
//	go run ./cmd/benchdiff                  # run, compare, write snapshot
//	go run ./cmd/benchdiff -write=false     # compare only
//	go run ./cmd/benchdiff -old BENCH_2026-08-01.json
//	go run ./cmd/benchdiff -bench 'Fig6|MadPipeDP' -benchtime 5x
//
// Exit status is 1 when any benchmark regresses more than -threshold on
// a gated metric — by default ns/op and allocs/op (lower is better for
// both); -gate narrows or widens the set, e.g. -gate allocs on shared
// machines whose timing noise would make a ns/op gate flaky, or
// -gate allocs,states to additionally gate the planner's deterministic
// states/op counter (exact across machines, so any drift is a real
// search-space change). -threshold 0 makes the gate exact: a gated
// metric that moves in either direction fails, so an exact counter that
// falls must be re-pinned by a new snapshot rather than pass silently.
// Unrecognised gate names containing a slash are treated as literal
// units, so any custom ReportMetric counter can be gated. Ungated
// metrics are informational. Benchmarks or metrics that exist only in
// the current run print as "new" and ones that exist only in the
// baseline print as "gone" — neither fails the comparison, since both
// usually mean a rename or a narrower -bench regexp rather than a
// regression.
//
// Without -old, each benchmark's baseline is its entry in the newest
// BENCH_*.json snapshot that contains it, so a narrow snapshot (say,
// `make bench-warm`'s two sweep benchmarks) does not strip every other
// benchmark of its baseline. Snapshots never overwrite an existing
// file: a second run on the same day writes BENCH_<date>b.json (then c,
// d, ...), which still sorts lexically after the original. The
// benchmarks are deterministic (fixed seeds), so allocs/op comparisons
// are exact; ns/op carries machine noise — pick a threshold accordingly
// or pin -benchtime.
//
// Every snapshot records the host it ran on (CPU model, logical CPUs,
// GOMAXPROCS, GOOS/GOARCH). A baseline result from a snapshot with a
// different host, or with none, prints its ns/op row as "other host"
// with no delta and no verdict: timings from two machines say nothing
// about the change. Allocation and exact-counter gates still apply,
// since those counts do not depend on the machine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Snapshot is the on-disk BENCH_<date>.json format.
type Snapshot struct {
	Date      string   `json:"date"`
	Go        string   `json:"go"`
	Host      *Host    `json:"host,omitempty"`
	Bench     string   `json:"bench"`
	BenchTime string   `json:"benchtime"`
	Results   []Result `json:"results"`
}

// Host identifies the machine a snapshot ran on. Snapshots written
// before hosts were recorded have none.
type Host struct {
	CPU        string `json:"cpu"` // go test's "cpu:" line
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// Result holds every metric of one benchmark, keyed by unit.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	// From names the older snapshot a baseline result was taken from
	// when the newest one lacks the benchmark (see baseline), and Host
	// is the host of the snapshot the result was read from (see
	// stampHost); neither is written.
	From string `json:"-"`
	Host *Host  `json:"-"`
}

func main() {
	var (
		bench     = flag.String("bench", "Benchmark", "benchmark regexp passed to go test -bench")
		benchtime = flag.String("benchtime", "3x", "value passed to go test -benchtime")
		dir       = flag.String("dir", ".", "directory holding the BENCH_*.json snapshots")
		old       = flag.String("old", "", "previous snapshot to compare against (default: per benchmark, the newest BENCH_*.json in -dir that contains it)")
		write     = flag.Bool("write", true, "write BENCH_<date>.json after the run")
		threshold = flag.Float64("threshold", 0.10, "relative regression tolerated on gated metrics; 0 fails any change in either direction")
		gate      = flag.String("gate", "time,allocs", "comma list of metrics whose regressions fail the run: time, allocs, states, probes, bytes, or a literal unit such as states/op")
		warm      = flag.Bool("warm", false, "print a Cold/Warm column pair for every <Name>Cold/<Name>Warm benchmark pair in this run, and fail unless each Warm side shows live reuse (states/op strictly below the Cold side's)")
		count     = flag.Int("count", 1, "value passed to go test -count; runs above 1 interleave the whole benchmark set (A/B pairs see the same machine conditions) and report per-metric means")
	)
	flag.Parse()
	gated, err := parseGate(*gate)
	if err != nil {
		fatal(err)
	}

	out, err := runBenchmarks(*bench, *benchtime, *count)
	if err != nil {
		fatal(err)
	}
	results := mergeRuns(parseBench(out))
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark results parsed; output was:\n%s", out))
	}
	cur := &Snapshot{
		Date:      time.Now().Format("2006-01-02"),
		Go:        runtime.Version(),
		Host:      parseHost(out),
		Bench:     *bench,
		BenchTime: *benchtime,
		Results:   results,
	}

	var prev *Snapshot
	prevPath := *old
	if prevPath != "" {
		prev, err = readSnapshot(prevPath)
	} else {
		prev, prevPath, err = baseline(*dir, cur)
	}
	if err != nil {
		fatal(err)
	}
	regressed := false
	if prev == nil {
		fmt.Println("benchdiff: no previous BENCH_*.json snapshot; nothing to compare")
	} else {
		regressed = compare(prev, cur, prevPath, *threshold, gated)
	}

	if *warm {
		if !warmReport(cur) {
			regressed = true
		}
	}

	if *write {
		path, err := snapshotPath(*dir, cur.Date)
		if err != nil {
			fatal(err)
		}
		data, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchdiff: snapshot written to %s\n", path)
	}
	if regressed {
		os.Exit(1)
	}
}

// parseGate maps the -gate flag to the set of gated metric units. Named
// aliases cover the common metrics; any token containing a slash is
// taken as a literal unit so custom deterministic ReportMetric counters
// (states/op, certs/op, ...) can be gated without code changes.
func parseGate(spec string) (map[string]bool, error) {
	gated := map[string]bool{}
	for _, g := range strings.Split(spec, ",") {
		switch u := strings.TrimSpace(g); u {
		case "time":
			gated["ns/op"] = true
		case "allocs":
			gated["allocs/op"] = true
		case "states":
			gated["states/op"] = true
		case "probes":
			// The sweep benchmarks' total bisection probe count — exact
			// for a fixed grid, so it is gated exact-match (threshold 0)
			// while their wall time stays advisory.
			gated["probes/op"] = true
		case "bytes":
			gated["B/op"] = true
		case "":
		default:
			if !strings.Contains(u, "/") {
				return nil, fmt.Errorf("unknown -gate metric %q (want time, allocs, states, probes, bytes, or a unit like states/op)", g)
			}
			gated[u] = true
		}
	}
	return gated, nil
}

func runBenchmarks(bench, benchtime string, count int) (string, error) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem", "-benchtime", benchtime, "-count", strconv.Itoa(count), "."}
	fmt.Fprintf(os.Stderr, "benchdiff: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("benchdiff: go test failed: %w\n%s", err, out)
	}
	return string(out), nil
}

// parseBench extracts results from `go test -bench` output lines of the
// form:
//
//	BenchmarkName-8  5  60568631 ns/op  353.7 custom-unit  276681 B/op  2024 allocs/op
func parseBench(out string) []Result {
	var results []Result
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			// Strip the GOMAXPROCS suffix so snapshots from machines with
			// different core counts stay comparable.
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		r := Result{Name: name, Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			r.Metrics[f[i+1]] = v
		}
		results = append(results, r)
	}
	return results
}

// parseHost reads the CPU model from go test's "cpu:" header line and
// completes it with this process's CPU count, GOMAXPROCS, GOOS and
// GOARCH, which the go test child shares through the environment.
func parseHost(out string) *Host {
	h := &Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	for _, line := range strings.Split(out, "\n") {
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			h.CPU = strings.TrimSpace(cpu)
			break
		}
	}
	return h
}

// mergeRuns folds repeated results of the same benchmark (go test
// -count above 1) into one entry per name: iterations sum, every metric
// becomes the mean across runs. Order of first appearance is kept so
// snapshots stay diffable.
func mergeRuns(results []Result) []Result {
	type acc struct {
		idx, runs int
	}
	seen := map[string]*acc{}
	var merged []Result
	for _, r := range results {
		a, ok := seen[r.Name]
		if !ok {
			seen[r.Name] = &acc{idx: len(merged), runs: 1}
			merged = append(merged, r)
			continue
		}
		m := &merged[a.idx]
		m.Iterations += r.Iterations
		n := float64(a.runs)
		for u, v := range r.Metrics {
			m.Metrics[u] = (m.Metrics[u]*n + v) / (n + 1)
		}
		a.runs++
	}
	return merged
}

// snapshotPath returns a snapshot filename that does not clobber an
// existing one: BENCH_<date>.json, then BENCH_<date>b.json, c, ... —
// letter suffixes sort lexically after the bare date ('b' > '.'), so
// latestSnapshot keeps picking the newest run of the day.
func snapshotPath(dir, date string) (string, error) {
	base := filepath.Join(dir, "BENCH_"+date)
	if p := base + ".json"; !fileExists(p) {
		return p, nil
	}
	for s := 'b'; s <= 'z'; s++ {
		if p := base + string(s) + ".json"; !fileExists(p) {
			return p, nil
		}
	}
	return "", fmt.Errorf("more than 25 snapshots dated %s; clean up %s", date, dir)
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// baseline assembles the comparison baseline for cur from the snapshots
// in dir: every result of the newest snapshot, plus, for each benchmark
// of cur the newest lacks, its entry in the newest older snapshot that
// has it (Result.From names that file). It returns nil when dir holds no
// snapshot, and the newest snapshot's path.
func baseline(dir string, cur *Snapshot) (*Snapshot, string, error) {
	paths, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if len(paths) == 0 {
		return nil, "", nil
	}
	sort.Strings(paths) // dates are ISO: lexical order is chronological
	newest := paths[len(paths)-1]
	prev, err := readSnapshot(newest)
	if err != nil {
		return nil, "", err
	}
	have := map[string]bool{}
	for _, r := range prev.Results {
		have[r.Name] = true
	}
	for i := len(paths) - 2; i >= 0; i-- {
		var older *Snapshot
		for _, r := range cur.Results {
			if have[r.Name] {
				continue
			}
			if older == nil {
				if older, err = readSnapshot(paths[i]); err != nil {
					return nil, "", err
				}
			}
			for _, o := range older.Results {
				if o.Name == r.Name {
					o.From = paths[i]
					prev.Results = append(prev.Results, o)
					have[r.Name] = true
					break
				}
			}
		}
	}
	return prev, newest, nil
}

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	stampHost(&s)
	return &s, nil
}

// stampHost records the snapshot's host on each of its results, so a
// baseline assembled from several snapshots keeps every result's host.
func stampHost(s *Snapshot) {
	for i := range s.Results {
		s.Results[i].Host = s.Host
	}
}

// sameHost reports whether a baseline result ran on the current host.
func sameHost(base, cur *Host) bool {
	return base != nil && cur != nil && *base == *cur
}

// compare prints a delta table and reports whether any benchmark
// regressed beyond the threshold on a gated lower-is-better metric — or,
// at threshold 0, whether any gated metric moved at all. ns/op against a
// baseline from another host (or one without a host) gets no verdict.
func compare(prev, cur *Snapshot, prevPath string, threshold float64, gated map[string]bool) bool {
	prevBy := map[string]Result{}
	for _, r := range prev.Results {
		prevBy[r.Name] = r
	}
	fmt.Printf("benchdiff: comparing against %s (%s)\n", prevPath, prev.Date)
	fmt.Printf("%-28s %14s %14s %8s\n", "benchmark/metric", "old", "new", "delta")
	regressed := false
	curNames := map[string]bool{}
	for _, r := range cur.Results {
		curNames[r.Name] = true
		p, ok := prevBy[r.Name]
		if !ok {
			fmt.Printf("%-28s %14s %14s %8s\n", r.Name, "-", "-", "new")
			continue
		}
		if p.From != "" {
			fmt.Printf("%-28s baseline from %s\n", r.Name, p.From)
		}
		otherHost := !sameHost(p.Host, cur.Host)
		units := make([]string, 0, len(r.Metrics))
		for u := range r.Metrics {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			nv := r.Metrics[u]
			ov, had := p.Metrics[u]
			label := r.Name + " " + u
			if !had {
				fmt.Printf("%-28s %14s %14.4g %8s\n", label, "-", nv, "new")
				continue
			}
			if u == "ns/op" && otherHost {
				fmt.Printf("%-28s %14.4g %14.4g %8s\n", label, ov, nv, "other host")
				continue
			}
			delta := "0%"
			if ov != 0 {
				delta = fmt.Sprintf("%+.1f%%", (nv-ov)/ov*100)
			}
			flag := ""
			switch {
			case !gated[u]:
			case threshold == 0 && nv != ov:
				flag = "  CHANGED (exact gate)"
				regressed = true
			case ov > 0 && nv > ov*(1+threshold):
				flag = "  REGRESSION"
				regressed = true
			}
			fmt.Printf("%-28s %14.4g %14.4g %8s%s\n", label, ov, nv, delta, flag)
		}
		for u := range p.Metrics {
			if _, still := r.Metrics[u]; !still {
				fmt.Printf("%-28s %14.4g %14s %8s\n", r.Name+" "+u, p.Metrics[u], "-", "gone")
			}
		}
	}
	// Benchmarks present in the baseline but absent from this run are
	// reported, not failed: the run may have used a narrower -bench
	// regexp, or the benchmark may have been renamed — both are the
	// reviewer's call, not a mechanical regression.
	for _, p := range prev.Results {
		if !curNames[p.Name] {
			fmt.Printf("%-28s %14s %14s %8s\n", p.Name, "-", "-", "gone")
		}
	}
	return regressed
}

// warmReport prints, for every <Name>Cold/<Name>Warm benchmark pair in
// the current run, the cold and warm-start ns/op and states/op side by
// side with the warm/cold ratio. It returns false — failing the run —
// unless every Warm benchmark evaluates strictly fewer states than its
// Cold side: the warm side adopts death certificates recorded by earlier
// cells, so a missing or closed gap means the reuse layer was silently
// disabled, which must fail `make verify`, not just look slow in a
// timing eyeball.
func warmReport(cur *Snapshot) bool {
	byName := map[string]Result{}
	for _, r := range cur.Results {
		byName[r.Name] = r
	}
	ok := true
	printed := false
	for _, r := range cur.Results {
		base, isCold := strings.CutSuffix(r.Name, "Cold")
		if !isCold {
			continue
		}
		w, has := byName[base+"Warm"]
		if !has {
			continue
		}
		if !printed {
			fmt.Printf("benchdiff: cold/warm pairs\n")
			fmt.Printf("%-28s %14s %14s %10s\n", "pair/metric", "cold", "warm", "warm/cold")
			printed = true
		}
		for _, u := range []string{"ns/op", "states/op"} {
			cv, cok := r.Metrics[u]
			wv, wok := w.Metrics[u]
			if !cok || !wok {
				continue
			}
			ratio := "-"
			if cv > 0 {
				ratio = fmt.Sprintf("%.3f", wv/cv)
			}
			fmt.Printf("%-28s %14.4g %14.4g %10s\n", base+" "+u, cv, wv, ratio)
		}
		cs, cok := r.Metrics["states/op"]
		ws, wok := w.Metrics["states/op"]
		if !cok || !wok || ws >= cs {
			fmt.Printf("%-28s REGRESSION (reuse disabled: warm states/op not below cold)\n", base)
			ok = false
		}
	}
	if !printed {
		fmt.Println("benchdiff: -warm set but no <Name>Cold/<Name>Warm pairs in this run")
		return false
	}
	return ok
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
