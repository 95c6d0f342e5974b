package expt

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"text/tabwriter"
)

// fmtPeriod renders a period or "inf" for infeasible configurations.
func fmtPeriod(v float64) string {
	if math.IsInf(v, 1) || v <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.4f", v)
}

// Fig6Table renders the Figure 6 series for one network: period versus
// memory limit, one block per (P, beta), with the phase-1 prediction
// (dashed) and the valid schedule (solid) for both PipeDream and MadPipe.
// Lower is better.
func Fig6Table(rows []Row, net string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — period (s) vs memory for %s (dashed = phase-1 prediction, solid = valid schedule)\n", net)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "P\tbeta(GB/s)\tM(GB)\tPD-dashed\tPD-solid\tMP-dashed\tMP-solid\tPD/MP")
	for _, r := range sorted(filter(rows, net)) {
		ratio := "-"
		if r.PipeDream.Feasible() && r.MadPipe.Feasible() {
			ratio = fmt.Sprintf("%.3f", r.PipeDream.Valid/r.MadPipe.Valid)
		}
		fmt.Fprintf(w, "%d\t%.0f\t%.0f\t%s\t%s\t%s\t%s\t%s\n",
			r.Workers, r.BandGB, r.MemGB,
			fmtPeriod(r.PipeDream.Predicted), fmtPeriod(r.PipeDream.Valid),
			fmtPeriod(r.MadPipe.Predicted), fmtPeriod(r.MadPipe.Valid), ratio)
	}
	w.Flush()
	return b.String()
}

// GeoMeanRatio aggregates, for one network and memory limit, the
// geometric mean over all (P, beta) of valid-period ratios
// other / madpipe — the Figure 7 series. Values above 1 mean MadPipe is
// faster. Configurations where either side is infeasible are skipped and
// counted.
func GeoMeanRatio(rows []Row, net string, memGB float64, other func(Row) Outcome) (ratio float64, used, skipped int) {
	var logSum float64
	for _, r := range rows {
		if r.Net != net || r.MemGB != memGB {
			continue
		}
		o := other(r)
		if !o.Feasible() || !r.MadPipe.Feasible() {
			skipped++
			continue
		}
		logSum += math.Log(o.Valid / r.MadPipe.Valid)
		used++
	}
	if used == 0 {
		return math.NaN(), 0, skipped
	}
	return math.Exp(logSum / float64(used)), used, skipped
}

// Fig7Table renders the Figure 7 series: per network and memory limit,
// the geometric mean over P and beta of the PipeDream/MadPipe period
// ratio. Values above 1 mean MadPipe wins.
func Fig7Table(rows []Row) string {
	nets := netNames(rows)
	mems := memValues(rows)
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 7 — geometric mean of PipeDream/MadPipe period ratios over P and beta (>1: MadPipe faster)")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "M(GB)")
	for _, n := range nets {
		fmt.Fprintf(w, "\t%s", n)
	}
	fmt.Fprintln(w)
	for _, m := range mems {
		fmt.Fprintf(w, "%.0f", m)
		for _, n := range nets {
			ratio, used, skipped := GeoMeanRatio(rows, n, m, func(r Row) Outcome { return r.PipeDream })
			if used == 0 {
				fmt.Fprintf(w, "\t-")
			} else if skipped > 0 {
				fmt.Fprintf(w, "\t%.3f(%d/%d)", ratio, used, used+skipped)
			} else {
				fmt.Fprintf(w, "\t%.3f", ratio)
			}
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return b.String()
}

// Speedup returns U(1,L)/period, the Figure 8 metric.
func Speedup(r Row, o Outcome) float64 {
	if !o.Feasible() {
		return 0
	}
	return r.SeqTime / o.Valid
}

// Fig8Table renders the Figure 8 series: speedup over sequential
// execution versus the number of GPUs, per network and memory limit, for
// both planners, at the first bandwidth of the sweep.
func Fig8Table(rows []Row) string {
	nets := netNames(rows)
	mems := memValues(rows)
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 8 — speedup U(1,L)/T vs number of GPUs (PD = PipeDream, MP = MadPipe)")
	for _, n := range nets {
		fmt.Fprintf(&b, "\n%s:\n", n)
		w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintf(w, "P")
		for _, m := range mems {
			fmt.Fprintf(w, "\tPD@%.0fGB\tMP@%.0fGB", m, m)
		}
		fmt.Fprintln(w)
		for _, p := range workerValues(rows) {
			fmt.Fprintf(w, "%d", p)
			for _, m := range mems {
				pd, mp := 0.0, 0.0
				for _, r := range rows {
					if r.Net == n && r.Workers == p && r.MemGB == m && r.BandGB == firstBand(rows) {
						pd = Speedup(r, r.PipeDream)
						mp = Speedup(r, r.MadPipe)
					}
				}
				fmt.Fprintf(w, "\t%s\t%s", fmtSpeedup(pd), fmtSpeedup(mp))
			}
			fmt.Fprintln(w)
		}
		w.Flush()
	}
	return b.String()
}

// AblationTable compares MadPipe against its contiguous (no special
// processor) variant, isolating the value of non-contiguous allocations.
func AblationTable(rows []Row) string {
	nets := netNames(rows)
	mems := memValues(rows)
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation — geometric mean of Contiguous-MadPipe/MadPipe period ratios (>1: special processor helps)")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "M(GB)")
	for _, n := range nets {
		fmt.Fprintf(w, "\t%s", n)
	}
	fmt.Fprintln(w)
	for _, m := range mems {
		fmt.Fprintf(w, "%.0f", m)
		for _, n := range nets {
			ratio, used, _ := GeoMeanRatio(rows, n, m, func(r Row) Outcome { return r.MadPipeContig })
			if used == 0 {
				fmt.Fprintf(w, "\t-")
			} else {
				fmt.Fprintf(w, "\t%.3f", ratio)
			}
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return b.String()
}

// CSV renders the raw sweep, one line per configuration. The trailing
// columns are the MadPipe planner's pruning-rate breakdown (states
// evaluated fresh, states settled by death certificates, fraction of
// cut positions skipped by the monotone break, and the fraction of
// bisection probes answered without a DP run — dominance floors plus the frontier store) followed by the
// parametric-frontier economics of the configuration's sweep row
// (mp_frontier_breakpoints: T*(M) plateaus the row resolved into, both
// modes summed; mp_frontier_replays_pct: DP probes re-run after the
// row's seed sample as a percentage of all probes the row folded). The
// pruning columns are empty unless the sweep ran with an observability
// registry attached (see Runner.Obs and EXPERIMENTS.md);
// mp_probes_saved_pct comes from the outcomes themselves and is empty
// only when phase 1 found nothing in either mode; the frontier columns
// are empty when the row was not frontier-solved (standalone Run rows,
// or sweeps with planner-internal parallelism).
func CSV(rows []Row) string {
	var b strings.Builder
	b.WriteString("net,workers,mem_gb,bw_gbs,seq_s,pd_pred,pd_valid,pd_sched,pd_simok,mp_pred,mp_valid,mp_sched,mp_simok,contig_valid,mp_states,mp_cert_pruned,mp_cut_skip_pct,mp_probes_saved_pct,mp_frontier_breakpoints,mp_frontier_replays_pct\n")
	csvf := func(v float64) string {
		if math.IsInf(v, 1) {
			return "inf"
		}
		return fmt.Sprintf("%.6f", v)
	}
	for _, r := range sorted(rows) {
		var states, pruned, skipPct string
		if rep := r.MadPipe.Report; rep != nil {
			st := rep.TotalStats()
			states = fmt.Sprintf("%d", st.StatesEvaluated)
			pruned = fmt.Sprintf("%d", st.StatesCertPruned)
			skipped := st.CutsSkippedMonotone
			if total := st.CutsEvaluated + skipped; total > 0 {
				skipPct = fmt.Sprintf("%.2f", 100*float64(skipped)/float64(total))
			}
		}
		var savedPct string
		if probes := r.MadPipe.Probes + r.MadPipeContig.Probes; probes > 0 {
			saved := r.MadPipe.ProbesSaved + r.MadPipeContig.ProbesSaved
			savedPct = fmt.Sprintf("%.2f", 100*float64(saved)/float64(probes))
		}
		var frontBreaks, frontReplaysPct string
		if r.FrontierProbes > 0 {
			frontBreaks = fmt.Sprintf("%d", r.FrontierBreakpoints)
			frontReplaysPct = fmt.Sprintf("%.2f", 100*float64(r.FrontierReplays)/float64(r.FrontierProbes))
		}
		fmt.Fprintf(&b, "%s,%d,%.0f,%.0f,%.6f,%s,%s,%s,%t,%s,%s,%s,%t,%s,%s,%s,%s,%s,%s,%s\n",
			r.Net, r.Workers, r.MemGB, r.BandGB, r.SeqTime,
			csvf(r.PipeDream.Predicted), csvf(r.PipeDream.Valid), r.PipeDream.Scheduler, r.PipeDream.SimOK,
			csvf(r.MadPipe.Predicted), csvf(r.MadPipe.Valid), r.MadPipe.Scheduler, r.MadPipe.SimOK,
			csvf(r.MadPipeContig.Valid), states, pruned, skipPct, savedPct, frontBreaks, frontReplaysPct)
	}
	return b.String()
}

func filter(rows []Row, net string) []Row {
	var out []Row
	for _, r := range rows {
		if r.Net == net {
			out = append(out, r)
		}
	}
	return out
}

func sorted(rows []Row) []Row {
	out := append([]Row(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.Net != b.Net:
			return a.Net < b.Net
		case a.Workers != b.Workers:
			return a.Workers < b.Workers
		case a.BandGB != b.BandGB:
			return a.BandGB < b.BandGB
		default:
			return a.MemGB < b.MemGB
		}
	})
	return out
}

func netNames(rows []Row) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rows {
		if !seen[r.Net] {
			seen[r.Net] = true
			out = append(out, r.Net)
		}
	}
	sort.Strings(out)
	return out
}

func memValues(rows []Row) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, r := range rows {
		if !seen[r.MemGB] {
			seen[r.MemGB] = true
			out = append(out, r.MemGB)
		}
	}
	sort.Float64s(out)
	return out
}

func workerValues(rows []Row) []int {
	seen := map[int]bool{}
	var out []int
	for _, r := range rows {
		if !seen[r.Workers] {
			seen[r.Workers] = true
			out = append(out, r.Workers)
		}
	}
	sort.Ints(out)
	return out
}

func firstBand(rows []Row) float64 {
	band := math.Inf(1)
	for _, r := range rows {
		if r.BandGB < band {
			band = r.BandGB
		}
	}
	return band
}

func fmtSpeedup(v float64) string {
	if v <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}
