package trace

import (
	"fmt"
	"math"

	"madpipe/internal/core"
)

// Planner-phase lanes: the planning *process* rendered next to the
// planned schedule. The planner is process 2 ("madpipe planner") of the
// trace — one lane per Algorithm 1 probe slot with each probe as a
// slice, and a "bracket" counter tracking the bisection's lb/ub
// convergence. Timestamps come from the probe timeline PlanAllocation
// records when core.Options.Obs is set; without observability the
// slices degenerate to zero-length markers at t=0 but the trace stays
// valid.

// plannerPID is the trace process id of the planner lanes (the pipeline
// schedule is process 1).
const plannerPID = 2

// StampPlanner writes the planner's identity into the trace header so
// exported files are self-describing: planner version, the resolved
// Options (parallel budget, probe fan, grids), and a chain/platform
// summary.
func StampPlanner(f *File, rep *core.PlanReport) {
	if rep == nil {
		return
	}
	if f.OtherData == nil {
		f.OtherData = make(map[string]string)
	}
	o := rep.Options
	f.OtherData["planner_version"] = rep.Version
	f.OtherData["planner_options"] = fmt.Sprintf(
		"parallel=%d workers=%d probe_fan=%d iterations=%d disc=%dx%dx%d disable_special=%t observed=%t",
		o.Parallel, o.Workers, o.ProbeFan, o.Iterations,
		o.Disc.TP, o.Disc.MP, o.Disc.V, o.DisableSpecial, o.Observed)
	f.OtherData["chain"] = fmt.Sprintf("layers=%d total_u=%g total_comm=%g",
		rep.Chain.Layers, rep.Chain.TotalU, rep.Chain.TotalComm)
	f.OtherData["platform"] = fmt.Sprintf("workers=%d memory=%g latency=%g bandwidth=%g",
		rep.Platform.Workers, rep.Platform.Memory, rep.Platform.Latency, rep.Platform.Bandwidth)
}

// AppendPlanner adds the planner-phase lanes of rep to f and re-sorts
// the trace. Safe to call on a freshly built FromPattern file (the
// usual composition in cmd/madpipe) or on an empty File.
func AppendPlanner(f *File, rep *core.PlanReport) {
	if rep == nil {
		return
	}
	evs := f.TraceEvents
	evs = append(evs, Event{
		Name: "process_name", Ph: "M", PID: plannerPID,
		Args: map[string]any{"name": "madpipe planner"},
	})
	slots := 1
	for _, p := range rep.Probes {
		if p.Slot+1 > slots {
			slots = p.Slot + 1
		}
	}
	for s := 0; s < slots; s++ {
		evs = append(evs, Event{
			Name: "thread_name", Ph: "M", PID: plannerPID, TID: s + 1,
			Args: map[string]any{"name": fmt.Sprintf("probe slot %d", s)},
		})
	}
	for i, p := range rep.Probes {
		args := map[string]any{
			"that":     fmt.Sprintf("%g", p.That),
			"feasible": fmt.Sprintf("%t", p.Feasible),
			"states":   fmt.Sprintf("%d", p.States),
			"lb":       fmt.Sprintf("%g", p.LB),
			"ub":       fmt.Sprintf("%g", p.UB),
		}
		if p.Feasible {
			args["raw"] = fmt.Sprintf("%g", p.Raw)
			args["effective"] = fmt.Sprintf("%g", p.Effective)
		}
		evs = append(evs, Event{
			Name: fmt.Sprintf("probe %d T=%.4g", i, p.That),
			Cat:  "planner", Ph: "X",
			TS: float64(p.StartNS) / 1e3, Dur: float64(p.DurNS) / 1e3,
			PID: plannerPID, TID: p.Slot + 1,
			Args: args,
		})
		// Bracket convergence: one counter sample per fold, at the
		// probe's end. +Inf cannot ride in JSON, so an unconverged upper
		// bound is simply omitted from that sample.
		bargs := map[string]any{"lb": p.LB}
		if !math.IsInf(p.UB, 1) {
			bargs["ub"] = p.UB
		}
		evs = append(evs, Event{
			Name: "bracket", Cat: "planner", Ph: "C",
			TS:  float64(p.StartNS+p.DurNS) / 1e3,
			PID: plannerPID, Args: bargs,
		})
	}
	f.TraceEvents = evs
	sortEvents(f.TraceEvents)
}

// FromPlanReport builds a standalone planning trace (no schedule lanes).
func FromPlanReport(rep *core.PlanReport) *File {
	f := &File{DisplayTimeUnit: "ms"}
	StampPlanner(f, rep)
	AppendPlanner(f, rep)
	return f
}
