package core

import (
	"encoding/json"
	"io"
	"math"

	"madpipe/internal/chain"
	"madpipe/internal/obs"
	"madpipe/internal/platform"
)

// PlannerVersion identifies the planner generation stamped into
// PlanReports and exported traces, so archived artifacts are
// self-describing. Bump it when a change alters planner outputs or the
// meaning of a reported counter.
const PlannerVersion = "madpipe-planner/12"

// ChainSummary condenses the planned chain for reports and trace
// metadata.
type ChainSummary struct {
	Layers    int     `json:"layers"`
	TotalU    float64 `json:"total_u"`
	TotalComm float64 `json:"total_comm"`
}

// PlatformSummary condenses the target platform.
type PlatformSummary struct {
	Workers   int     `json:"workers"`
	Memory    float64 `json:"memory"`
	Latency   float64 `json:"latency"`
	Bandwidth float64 `json:"bandwidth"`
}

// OptionsSummary records the planner options a run used, with the
// parallelism already resolved (Parallel is the raw option, Workers the
// resolved budget and ProbeFan the bracket probes per round it buys).
type OptionsSummary struct {
	Disc           Discretization `json:"disc"`
	Iterations     int            `json:"iterations"`
	DisableSpecial bool           `json:"disable_special,omitempty"`
	MaxChainLength int            `json:"max_chain_length,omitempty"`
	Parallel       int            `json:"parallel"`
	Workers        int            `json:"workers"`
	ProbeFan       int            `json:"probe_fan"`
	Observed       bool           `json:"observed"`
}

// ProbeReport is one Algorithm 1 probe in a PlanReport. JSON cannot
// encode +Inf, so infeasible probes carry Feasible=false with Raw and
// Effective zeroed instead of infinite.
type ProbeReport struct {
	That      float64 `json:"that"`
	Feasible  bool    `json:"feasible"`
	Raw       float64 `json:"raw,omitempty"`
	Effective float64 `json:"effective,omitempty"`
	States    int     `json:"states"`
	// LB/UB are the bisection bracket after this probe folded.
	LB float64 `json:"lb"`
	UB float64 `json:"ub"`
	// Slot is the probe slot (position in its bracket round) that ran
	// the probe.
	Slot int `json:"slot"`
	// StartNS/DurNS position the probe on the planning wall clock
	// (zero when observability was off).
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	// Stats is the probe's DP counter set (zero when observability was
	// off).
	Stats DPStats `json:"stats"`
}

// StageReport is one stage of the chosen allocation.
type StageReport struct {
	From int `json:"from"`
	To   int `json:"to"`
	Proc int `json:"proc"`
}

// ScheduleReport summarizes the phase-2 outcome.
type ScheduleReport struct {
	Scheduler string  `json:"scheduler"`
	Period    float64 `json:"period"`
}

// PlanReport is the structured run report of one planner invocation:
// what was planned, with which options, how the bisection converged,
// what each probe cost, and — when observability was enabled — the full
// pruning breakdown. It is emitted by `cmd/madpipe -stats`, appended
// per row by `cmd/experiments -stats`, and convertible to a Perfetto
// planning trace by internal/trace.
type PlanReport struct {
	Version  string          `json:"version"`
	Chain    ChainSummary    `json:"chain"`
	Platform PlatformSummary `json:"platform"`
	Options  OptionsSummary  `json:"options"`

	// PredictedPeriod/TargetPeriod mirror PhaseOneResult.
	PredictedPeriod float64 `json:"predicted_period"`
	TargetPeriod    float64 `json:"target_period"`

	Probes []ProbeReport `json:"probes"`
	Stages []StageReport `json:"stages,omitempty"`

	// Schedule is present when phase 2 ran (PlanAndSchedule).
	Schedule *ScheduleReport `json:"schedule,omitempty"`

	// Obs is a snapshot of the run's registry (cumulative counters,
	// high-water gauges and phase timers), when one was attached.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// NewPlanReport builds a report from a phase-1 result. c and plat must
// be the same inputs PlanAllocation received; opts is normalized the
// same way the planner normalizes it.
func NewPlanReport(c *chain.Chain, plat platform.Platform, opts Options, p1 *PhaseOneResult) *PlanReport {
	opts = opts.withDefaults()
	w := resolveParallel(opts.Parallel)
	r := &PlanReport{
		Version: PlannerVersion,
		Chain: ChainSummary{
			Layers:    c.Len(),
			TotalU:    c.TotalU(),
			TotalComm: c.TotalCommTimeAlphaBeta(plat.Latency, plat.Bandwidth),
		},
		Platform: PlatformSummary{
			Workers: plat.Workers, Memory: plat.Memory,
			Latency: plat.Latency, Bandwidth: plat.Bandwidth,
		},
		Options: OptionsSummary{
			Disc:           opts.Disc,
			Iterations:     opts.Iterations,
			DisableSpecial: opts.DisableSpecial,
			MaxChainLength: opts.MaxChainLength,
			Parallel:       opts.Parallel,
			Workers:        w,
			ProbeFan:       probeFan(w),
			Observed:       opts.Obs != nil,
		},
		PredictedPeriod: p1.PredictedPeriod,
		TargetPeriod:    p1.TargetPeriod,
	}
	r.Probes = make([]ProbeReport, 0, len(p1.Evals))
	for _, ev := range p1.Evals {
		pr := ProbeReport{
			That: ev.That, States: ev.States,
			LB: ev.LB, UB: ev.UB, Slot: ev.Slot,
			StartNS: ev.StartNS, DurNS: ev.DurNS,
			Stats: ev.Stats,
		}
		if !math.IsInf(ev.Raw, 1) {
			pr.Feasible = true
			pr.Raw, pr.Effective = ev.Raw, ev.Effective
		}
		r.Probes = append(r.Probes, pr)
	}
	if a := p1.Alloc; a != nil {
		r.Stages = make([]StageReport, len(a.Spans))
		for i, sp := range a.Spans {
			r.Stages[i] = StageReport{From: sp.From, To: sp.To, Proc: a.Procs[i]}
		}
	}
	return r
}

// AttachSchedule records the phase-2 outcome (and switches Stages to the
// scheduled plan's allocation when phase 2 picked a different portfolio
// member than phase 1's nominal best).
func (r *PlanReport) AttachSchedule(plan *Plan) {
	if plan == nil {
		return
	}
	r.Schedule = &ScheduleReport{Scheduler: plan.Scheduler, Period: plan.Period}
	if pat := plan.Pattern; pat != nil && pat.Alloc != nil {
		a := pat.Alloc
		r.Stages = make([]StageReport, len(a.Spans))
		for i, sp := range a.Spans {
			r.Stages[i] = StageReport{From: sp.From, To: sp.To, Proc: a.Procs[i]}
		}
	}
}

// AttachObs embeds a snapshot of the registry the run recorded into.
func (r *PlanReport) AttachObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s := reg.Snapshot()
	r.Obs = &s
}

// TotalStats sums the per-probe DP counter sets — the whole-run pruning
// breakdown (zero when the run had no observability attached).
func (r *PlanReport) TotalStats() DPStats {
	var t DPStats
	for i := range r.Probes {
		t.add(&r.Probes[i].Stats)
	}
	return t
}

// WriteJSON writes the report as indented JSON.
func (r *PlanReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// SegmentReport is one T*(M) plateau in a FrontierReport. JSON cannot
// encode +Inf, so infeasible segments carry Feasible=false with the
// periods zeroed instead of infinite.
type SegmentReport struct {
	MemHi    float64 `json:"mem_hi"`
	MemLo    float64 `json:"mem_lo"`
	CertLo   float64 `json:"cert_lo"`
	Feasible bool    `json:"feasible"`
	// Predicted/Target are the plateau's phase-1 periods (absent when
	// infeasible).
	Predicted float64 `json:"predicted,omitempty"`
	Target    float64 `json:"target,omitempty"`
	// Stages is the plateau's allocation (absent when infeasible).
	Stages []StageReport `json:"stages,omitempty"`
	// Probes/Replays are the plateau's probe economics (see
	// FrontierSegment).
	Probes  int `json:"probes"`
	Replays int `json:"replays"`
}

// FrontierReport is the structured output of one PlanFrontier walk: the
// T*(M) breakpoint list over the sampled memory range, with the same
// chain/platform/options envelope as a PlanReport. Emitted by
// `cmd/madpipe -frontier`. The envelope's platform memory is the
// highest sampled limit.
type FrontierReport struct {
	Version  string          `json:"version"`
	Chain    ChainSummary    `json:"chain"`
	Platform PlatformSummary `json:"platform"`
	Options  OptionsSummary  `json:"options"`

	// Samples are the memory limits walked, descending.
	Samples []float64 `json:"samples"`
	// Segments are the breakpoint list, descending; consecutive segments
	// always differ in outcome.
	Segments []SegmentReport `json:"segments"`

	// Probe economics of the whole walk (see FrontierResult).
	Probes        int `json:"probes"`
	ProbesSaved   int `json:"probes_saved"`
	FrontierSaved int `json:"frontier_saved"`
	Replays       int `json:"replays"`

	// Obs is a snapshot of the walk's registry, when one was attached.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// NewFrontierReport builds a report from a frontier solve. c, plat and
// opts must be the inputs PlanFrontier received.
func NewFrontierReport(c *chain.Chain, plat platform.Platform, opts Options, fr *FrontierResult) *FrontierReport {
	opts = opts.withDefaults()
	opts.Parallel = 1 // PlanFrontier plans at probe fan 1
	plat.Memory = fr.Samples[0]
	r := &FrontierReport{
		Version: PlannerVersion,
		Chain: ChainSummary{
			Layers:    c.Len(),
			TotalU:    c.TotalU(),
			TotalComm: c.TotalCommTimeAlphaBeta(plat.Latency, plat.Bandwidth),
		},
		Platform: PlatformSummary{
			Workers: plat.Workers, Memory: plat.Memory,
			Latency: plat.Latency, Bandwidth: plat.Bandwidth,
		},
		Options: OptionsSummary{
			Disc:           opts.Disc,
			Iterations:     opts.Iterations,
			DisableSpecial: fr.DisableSpecial,
			MaxChainLength: opts.MaxChainLength,
			Parallel:       opts.Parallel,
			Workers:        1,
			ProbeFan:       1,
			Observed:       opts.Obs != nil,
		},
		Samples:       fr.Samples,
		Probes:        fr.Probes,
		ProbesSaved:   fr.ProbesSaved,
		FrontierSaved: fr.FrontierSaved,
		Replays:       fr.Replays,
	}
	r.Segments = make([]SegmentReport, 0, len(fr.Segments))
	for _, s := range fr.Segments {
		sr := SegmentReport{
			MemHi: s.MemHi, MemLo: s.MemLo, CertLo: s.CertLo,
			Probes: s.Probes, Replays: s.Replays,
		}
		if s.Feasible {
			sr.Feasible = true
			sr.Predicted, sr.Target = s.Predicted, s.Target
			if a := s.Result.Alloc; a != nil {
				sr.Stages = make([]StageReport, len(a.Spans))
				for i, sp := range a.Spans {
					sr.Stages[i] = StageReport{From: sp.From, To: sp.To, Proc: a.Procs[i]}
				}
			}
		}
		r.Segments = append(r.Segments, sr)
	}
	return r
}

// AttachObs embeds a snapshot of the registry the walk recorded into.
func (r *FrontierReport) AttachObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s := reg.Snapshot()
	r.Obs = &s
}

// WriteJSON writes the report as indented JSON.
func (r *FrontierReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
