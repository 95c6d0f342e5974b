package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metric names, units, directions and bounds are declared there once.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// conform checks measured metrics against their declaration: every
// declared metric present with its declared unit and nothing
// undeclared. With fill, a declared metric the workload does not
// exercise is reported as 0.
func (s *benchSpec) conform(got map[string]Metric, want []specMetric, fill bool) error {
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
		v, ok := got[m.Name]
		switch {
		case !ok && fill:
			got[m.Name] = Metric{Value: 0, Unit: m.Unit}
		case !ok:
			return fmt.Errorf("metric %s not measured", m.Name)
		case v.Unit != m.Unit:
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, v.Unit, m.Unit)
		}
	}
	for name := range got {
		if !declared[name] {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

func runMode(root string, args []string) error {
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	switch {
	case args[0] == "compare" && len(args) == 3:
		return compare(spec, args[1], args[2])
	case args[0] == "attribution" && len(args) == 2:
		return attribution(spec, args[1])
	}
	return errors.New("usage: perfbench compare OLD_DIR NEW_DIR | perfbench attribution DIR")
}

// loadResults reads every result file in dir.
func loadResults(dir string) ([]*Result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []*Result
	for _, p := range paths {
		if strings.Contains(filepath.Base(p), "-spans-") {
			continue
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r Result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	return out, nil
}

// quartiles returns Q1, median and Q3 by the same rule as Python's
// statistics.quantiles(values, n=4) (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	n := len(v)
	if n == 1 {
		return v[0], v[0], v[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			return v[0]
		case j >= n:
			return v[n-1]
		}
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// side groups one directory's runs of one workload.
type side struct {
	runs []*Result
}

func (s side) values(metric string) []float64 {
	var v []float64
	for _, r := range s.runs {
		v = append(v, r.Metrics[metric].Value)
	}
	return v
}

func bySeed(rs []*Result) map[int64]*Result {
	m := map[int64]*Result{}
	for _, r := range rs {
		if _, ok := m[r.Seed]; !ok {
			m[r.Seed] = r
		}
	}
	return m
}

// exactPerSeed names the end-to-end metrics whose value repeats exactly
// for a seed: any seed-paired difference is a real change, not noise.
var exactPerSeed = map[string]bool{"plan_period_geomean_s": true}

// compare prints, for each workload and end-to-end metric, both sides'
// median and quartiles, the share of seed-paired runs the new side won,
// and a verdict: gain when the new side wins at least nine tenths of the
// pairs and the medians differ by more than the old side's quartile
// spread; regression when the new median is worse by more than the
// metric's bound, or, for a metric exact per seed, when any seed pair
// reads worse; unresolved when the old side's own spread exceeds the
// bound and not every new run beats every old run; no-change otherwise.
// Exact counters are compared per seed and unit over the runs of both
// sides (see exactReport).
func compare(spec *benchSpec, oldDir, newDir string) error {
	olds, err := loadResults(oldDir)
	if err != nil {
		return err
	}
	news, err := loadResults(newDir)
	if err != nil {
		return err
	}
	key := olds[0].Host.Key()
	for _, r := range append(append([]*Result(nil), olds...), news...) {
		if r.Host.Key() != key {
			return fmt.Errorf("refusing to compare results from different hosts:\n  %s\n  %s", key, r.Host.Key())
		}
	}
	fmt.Printf("host: %s\n", key)
	sources := map[string]bool{}
	for _, r := range append(append([]*Result(nil), olds...), news...) {
		sources[r.Host.SourceDigest] = true
	}
	if len(sources) == 1 {
		// Then a gain or regression verdict measures the host, for
		// example its speed drifting between two sets run one after
		// the other.
		fmt.Println("both sides measure the same program source")
	}
	group := func(rs []*Result) map[string]side {
		g := map[string]side{}
		for _, r := range rs {
			if r.Trace {
				continue
			}
			s := g[r.Workload]
			s.runs = append(s.runs, r)
			g[r.Workload] = s
		}
		return g
	}
	og, ng := group(olds), group(news)
	var names []string
	for w := range og {
		if _, ok := ng[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	for _, w := range names {
		o, n := og[w], ng[w]
		fmt.Printf("\n## %s (old %d runs, new %d runs)\n", w, len(o.runs), len(n.runs))
		fmt.Printf("%-22s %-8s %12s %12s %12s %12s %12s %12s %7s %7s %6s  %s\n",
			"metric", "unit", "old q1", "old med", "old q3", "new q1", "new med", "new q3", "spread", "delta", "won", "verdict")
		op, np := bySeed(o.runs), bySeed(n.runs)
		for _, m := range spec.EndToEnd {
			ov, nv := o.values(m.Name), n.values(m.Name)
			oq1, om, oq3 := quartiles(ov)
			nq1, nm, nq3 := quartiles(nv)
			lower := m.Better == "lower"
			better := func(a, b float64) bool { // a better than b
				if lower {
					return a < b
				}
				return a > b
			}
			pairs, won, lost := 0, 0, 0
			for seed, or := range op {
				if nr, ok := np[seed]; ok {
					pairs++
					a, b := nr.Metrics[m.Name].Value, or.Metrics[m.Name].Value
					if better(a, b) {
						won++
					} else if better(b, a) {
						lost++
					}
				}
			}
			worse := (nm - om) / om
			if !lower {
				worse = -worse
			}
			spread := (oq3 - oq1) / om
			allBetter := true
			for _, a := range nv {
				for _, b := range ov {
					if !better(a, b) {
						allBetter = false
					}
				}
			}
			verdict := "no-change"
			switch {
			case pairs > 0 && float64(won) >= 0.9*float64(pairs) && math.Abs(nm-om) > oq3-oq1 && better(nm, om):
				verdict = "gain"
			case worse > m.Bound || (exactPerSeed[m.Name] && lost > 0):
				verdict = "regression"
			case spread > m.Bound && !allBetter:
				verdict = "unresolved"
			}
			fmt.Printf("%-22s %-8s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %6.1f%% %+6.1f%% %3d/%-2d  %s\n",
				m.Name, m.Unit, oq1, om, oq3, nq1, nm, nq3, 100*spread, -100*worse, won, pairs, verdict)
		}
		fmt.Println()
		var all []*Result
		for _, r := range append(append([]*Result(nil), olds...), news...) {
			if r.Workload == w {
				all = append(all, r)
			}
		}
		exactReport(all)
	}
	return nil
}

// exactReport compares the exact counters of every two runs of one seed,
// traced or not and from either side, unit by unit over the counters both
// recorded. A mismatch between runs of the same program source is
// nondeterminism; between different sources it is changed work, and a
// changed period_ps_sum means changed plans.
func exactReport(runs []*Result) {
	type tally struct {
		compared, mismatched int
		first                string
	}
	var same, changed tally
	plans := 0
	for i, x := range runs {
		for _, y := range runs[i+1:] {
			if x.Seed != y.Seed {
				continue
			}
			t := &changed
			if x.Host.SourceDigest == y.Host.SourceDigest {
				t = &same
			}
			ux := map[string]Unit{}
			for _, u := range x.Exact {
				ux[u.Name] = u
			}
			for _, uy := range y.Exact {
				u, ok := ux[uy.Name]
				if !ok {
					continue
				}
				for k, v := range uy.Counters {
					w, ok := u.Counters[k]
					if !ok {
						continue
					}
					t.compared++
					if v == w {
						continue
					}
					t.mismatched++
					if t == &changed && k == "period_ps_sum" {
						plans++
					}
					if t.first == "" {
						t.first = fmt.Sprintf("seed %d %s %s: %d vs %d", x.Seed, uy.Name, k, w, v)
					}
				}
			}
		}
	}
	line := func(label string, t tally, what string) {
		fmt.Printf("exact counters, %s: %d compared, %d %s", label, t.compared, t.mismatched, what)
		if t.first != "" {
			fmt.Printf(" (first: %s)", t.first)
		}
		fmt.Println()
	}
	line("same source", same, "nondeterministic")
	line("different source", changed, "changed")
	if plans > 0 {
		fmt.Printf("plans changed: %d units with a different period_ps_sum\n", plans)
	}
}
