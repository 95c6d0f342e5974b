package main

import (
	"fmt"
	"sort"
)

// attribution prints the per-layer table of a directory's traced runs
// (medians over seeds), the span self-time table of the first traced run
// of each workload, and the tracing overhead: each end-to-end metric of
// a traced run against the untraced run of the same seed.
func attribution(spec *benchSpec, dir string) error {
	rs, err := loadResults(dir)
	if err != nil {
		return err
	}
	traced, plain := map[string][]*Result{}, map[string]map[int64]*Result{}
	for _, r := range rs {
		if r.Trace {
			traced[r.Workload] = append(traced[r.Workload], r)
		} else {
			if plain[r.Workload] == nil {
				plain[r.Workload] = map[int64]*Result{}
			}
			plain[r.Workload][r.Seed] = r
		}
	}
	var names []string
	for w := range traced {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		runs := traced[w]
		sort.Slice(runs, func(i, j int) bool { return runs[i].Seed < runs[j].Seed })
		fmt.Printf("\n## %s — %d traced runs (seeds", w, len(runs))
		for _, r := range runs {
			fmt.Printf(" %d", r.Seed)
		}
		fmt.Printf(")\n\n| layer metric | unit | median |\n|---|---|---|\n")
		for _, m := range spec.PerLayer {
			var v []float64
			for _, r := range runs {
				v = append(v, r.Layers[m.Name].Value)
			}
			if med := median(v); med != 0 {
				fmt.Printf("| %s | %s | %.6g |\n", m.Name, m.Unit, med)
			}
		}
		if st, ok := runs[0].Properties["span_stats"].([]any); ok {
			fmt.Printf("\nSpans of seed %d (self = duration minus the part covered by child spans):\n\n| span | count | p50 ms | total ms | self ms |\n|---|---|---|---|---|\n", runs[0].Seed)
			for _, e := range st {
				m, _ := e.(map[string]any)
				fmt.Printf("| %v | %v | %.4g | %.6g | %.6g |\n", m["name"], m["count"], m["p50_ms"], m["total_ms"], m["self_ms"])
			}
		}
		fmt.Printf("\nTracing overhead (traced − untraced, same seed, median over pairs):\n\n| metric | unit | untraced | traced | overhead |\n|---|---|---|---|---|\n")
		for _, m := range spec.EndToEnd {
			var u, t []float64
			for _, r := range runs {
				if p, ok := plain[w][r.Seed]; ok {
					u = append(u, p.Metrics[m.Name].Value)
					t = append(t, r.Metrics[m.Name].Value)
				}
			}
			if len(u) == 0 {
				continue
			}
			mu, mt := median(u), median(t)
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.1f%% |\n", m.Name, m.Unit, mu, mt, 100*ratio(mt-mu, mu))
		}
	}
	return nil
}
