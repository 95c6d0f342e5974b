// Package serve is the planning daemon's serving layer: JSON request
// types shared by cmd/madpiped, cmd/madpipeload and the benchmarks, a
// sharded fingerprint-keyed plan memo with LRU + TTL eviction and a
// byte budget, and an admission-controlled HTTP server that layers the
// memo above per-worker core.PlannerCache shards so warm DP tables
// survive across requests.
package serve

import (
	"context"
	"fmt"
	"math"

	"madpipe/internal/chain"
	"madpipe/internal/core"
	"madpipe/internal/nets"
	"madpipe/internal/platform"
)

// Response envelope headers. The serving metadata rides in headers, not
// the body, so a memo hit's body is byte-for-byte the miss's body — the
// bit-identity contract tests compare raw bodies.
const (
	// HeaderFingerprint carries the request's fingerprint in hex.
	HeaderFingerprint = "X-Madpipe-Fingerprint"
	// HeaderMemo is "hit" when the response came from the plan memo,
	// "miss" when it was planned by this request.
	HeaderMemo = "X-Madpipe-Memo"
)

// PlatformSpec is the target platform in a request. All sizes are
// bytes and bytes/second, matching the core model and PlanReport; the
// *GB convenience fields multiply by 1e9 when the byte field is zero.
type PlatformSpec struct {
	// Workers is the processor count, at most core.MaxDPIndex (the DP's
	// normal-processor packing limit); larger counts are rejected with a
	// 400.
	Workers     int     `json:"workers"`
	Memory      float64 `json:"memory,omitempty"`
	MemoryGB    float64 `json:"memory_gb,omitempty"`
	Bandwidth   float64 `json:"bandwidth,omitempty"`
	BandwidthGB float64 `json:"bandwidth_gb,omitempty"`
	Latency     float64 `json:"latency,omitempty"`
}

// Platform resolves the spec to a core platform.
func (p PlatformSpec) Platform() platform.Platform {
	mem, bw := p.Memory, p.Bandwidth
	if mem == 0 {
		mem = p.MemoryGB * platform.GB
	}
	if bw == 0 {
		bw = p.BandwidthGB * platform.GB
	}
	return platform.Platform{Workers: p.Workers, Memory: mem, Bandwidth: bw, Latency: p.Latency}
}

// NetSpec names one of the built-in analytical profiles instead of an
// inline chain (convenience for smokes and examples; production traffic
// sends measured chains).
type NetSpec struct {
	Name  string `json:"name"`
	Batch int    `json:"batch,omitempty"` // default 8
	Size  int    `json:"size,omitempty"`  // default 1000
	// Blocks and Granularity apply to transformer presets (gpt2,
	// gpt2-xl, llama7b): decoder-block count override and chain layers
	// per block (1..8). The chain's blocks × granularity + 2 layers must
	// stay within core.MaxDPIndex, or the request is a 400. Ignored for
	// the CNN profiles.
	Blocks      int `json:"blocks,omitempty"`
	Granularity int `json:"granularity,omitempty"`
}

// OptionsSpec is the subset of core.Options a request may set. Work
// carriers (Obs, Cache, Hint) are daemon-owned and not exposed.
type OptionsSpec struct {
	// Iterations is Algorithm 1's probe budget (0: the paper's 10). At
	// most core.MaxIterations (64): a search whose bracket stalls
	// between adjacent floats spends its whole budget, one full DP probe
	// each, so larger budgets are rejected with a 400.
	Iterations int `json:"iterations,omitempty"`
	// DisableSpecial plans the contiguous ablation.
	DisableSpecial bool `json:"disable_special,omitempty"`
	// MaxChain coarsens the chain to at most this many nodes before
	// planning (0: plan as sent).
	MaxChain int `json:"max_chain,omitempty"`
	// Weights selects the weight-versioning policy: "" or "2bw" for the
	// paper's PipeDream-2BW discipline, "stash" for original PipeDream.
	Weights string `json:"weights,omitempty"`
	// Parallel is the planner worker budget for this request. 0 uses
	// the daemon's default: Config.Parallel (1 unless configured — the
	// sequential reference search, whose outputs are machine-
	// independent), or Config.LargeParallel for chains of at least
	// Config.LargeChainLayers layers when the daemon enables the
	// large-chain override (-large-parallel). Different budgets are
	// different fingerprints: probe schedules differ.
	Parallel int `json:"parallel,omitempty"`
	// ColdTables opts this request out of the worker's warm table
	// shard in both directions (per-request isolation; see
	// core.Options.ColdTables). Outputs are identical either way.
	ColdTables bool `json:"cold_tables,omitempty"`
	// CoarsenGroup enables exact run coarsening before planning:
	// contiguous runs of near-uniform layers merge into super-layers of
	// at most this many original layers (0: off, 1: identity pass; see
	// core.Options.CoarsenGroup). The transformer-chain switch.
	CoarsenGroup int `json:"coarsen_group,omitempty"`
	// CoarsenTolerance is the relative per-field tolerance of the run
	// scan (0: bit-equal layers only). Consulted when CoarsenGroup > 0.
	CoarsenTolerance float64 `json:"coarsen_tolerance,omitempty"`
	// DiscTP/DiscMP/DiscV override the DP discretization grids
	// (core.Options.Disc). All zero uses the paper's defaults
	// (101x11x51); anything else must name a full valid grid. The knob
	// that makes raw multi-thousand-layer chains affordable to serve:
	// at the default grid a single raw GPT-2 probe runs into the
	// minutes, while on the special-mode 21x5x21 grid one probe of the
	// 1026-layer chain on P = 16 takes 3.1–4.4 s on a 2-vCPU Xeon.
	// Different grids are different fingerprints.
	DiscTP int `json:"disc_tp,omitempty"`
	DiscMP int `json:"disc_mp,omitempty"`
	DiscV  int `json:"disc_v,omitempty"`
}

// coreOptions maps the spec onto core.Options with the daemon default
// parallelism applied. MaxChain intentionally stays out of the returned
// options: the server coarsens once, up front, so the planner cache
// sees one canonical chain pointer per (chain, max_chain) bucket.
func (o OptionsSpec) coreOptions(defaultParallel int) (core.Options, error) {
	opts := core.Options{
		Iterations:       o.Iterations,
		DisableSpecial:   o.DisableSpecial,
		Parallel:         o.Parallel,
		ColdTables:       o.ColdTables,
		CoarsenGroup:     o.CoarsenGroup,
		CoarsenTolerance: o.CoarsenTolerance,
	}
	if o.Iterations < 0 || o.Iterations > core.MaxIterations {
		return core.Options{}, fmt.Errorf("iterations must be in [0, %d], got %d", core.MaxIterations, o.Iterations)
	}
	if o.Parallel < 0 {
		return core.Options{}, fmt.Errorf("parallel must be >= 0, got %d", o.Parallel)
	}
	if o.CoarsenGroup < 0 {
		return core.Options{}, fmt.Errorf("coarsen_group must be >= 0, got %d", o.CoarsenGroup)
	}
	if o.CoarsenTolerance < 0 || math.IsInf(o.CoarsenTolerance, 0) || math.IsNaN(o.CoarsenTolerance) {
		return core.Options{}, fmt.Errorf("coarsen_tolerance must be finite and >= 0, got %g", o.CoarsenTolerance)
	}
	switch o.Weights {
	case "", "2bw":
		opts.Weights = chain.TwoBufferedWeights()
	case "stash":
		opts.Weights = chain.StashedWeights()
	default:
		return core.Options{}, fmt.Errorf("unknown weights policy %q (want 2bw or stash)", o.Weights)
	}
	if o.DiscTP != 0 || o.DiscMP != 0 || o.DiscV != 0 {
		// All-or-nothing: a partially-set grid leaves zeros, which the
		// range check below rejects — no silent default mixing.
		d := core.Discretization{TP: o.DiscTP, MP: o.DiscMP, V: o.DiscV}
		if err := d.Validate(); err != nil {
			return core.Options{}, fmt.Errorf("disc_tp/disc_mp/disc_v: %w", err)
		}
		opts.Disc = d
	}
	if opts.Parallel == 0 {
		opts.Parallel = defaultParallel
	}
	return opts, nil
}

// PlanRequest is the body of POST /v1/plan. Exactly one of Chain and
// Net must be set. The response body is a core.PlanReport.
type PlanRequest struct {
	Chain    *chain.Chain `json:"chain,omitempty"`
	Net      *NetSpec     `json:"net,omitempty"`
	Platform PlatformSpec `json:"platform"`
	Options  OptionsSpec  `json:"options,omitempty"`
	// Schedule runs phase 2 (1F1B*/list — the deterministic
	// schedulers; the daemon never runs the budgeted MILP, whose
	// anytime results would break response memoization).
	Schedule bool `json:"schedule,omitempty"`
}

// FrontierRequest is the body of POST /v1/frontier: solve T*(M) over
// the given memory ladder (bytes; MemsGB is a ×1e9 convenience, used
// when Mems is empty). The platform's own memory field is ignored,
// exactly as core.PlanFrontier ignores it. The response body is a
// core.FrontierReport.
type FrontierRequest struct {
	Chain    *chain.Chain `json:"chain,omitempty"`
	Net      *NetSpec     `json:"net,omitempty"`
	Platform PlatformSpec `json:"platform"`
	Options  OptionsSpec  `json:"options,omitempty"`
	Mems     []float64    `json:"mems,omitempty"`
	MemsGB   []float64    `json:"mems_gb,omitempty"`
}

// MaxFrontierMems bounds a frontier request's memory ladder. Each rung
// is one sample of the walk (at least a floor lookup, at most a full
// Algorithm 1 search), so the ladder length is the request's cost; the
// bound sits well above the densest ladder the repository plans (833
// samples in BenchmarkFig7Frontier).
const MaxFrontierMems = 4096

// mems returns the request's memory ladder in bytes: Mems as sent, or
// MemsGB scaled by 1e9. The ladder must be non-empty, at most
// MaxFrontierMems long, and every rung finite and positive after the
// scaling (a huge mems_gb rung overflows to +Inf); errors name the
// field the ladder came from.
func (r *FrontierRequest) mems() ([]float64, error) {
	field, ms := "mems", r.Mems
	if len(ms) == 0 {
		field, ms = "mems_gb", r.MemsGB
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("frontier request needs a non-empty memory ladder (mems or mems_gb)")
	}
	if len(ms) > MaxFrontierMems {
		return nil, fmt.Errorf("%s holds %d limits, at most %d allowed", field, len(ms), MaxFrontierMems)
	}
	if field == "mems_gb" {
		gb := ms
		ms = make([]float64, len(gb))
		for i, m := range gb {
			ms[i] = m * platform.GB
		}
	}
	for i, m := range ms {
		if !(m > 0) || math.IsInf(m, 1) {
			return nil, fmt.Errorf("%s[%d] must be a finite positive memory limit, got %g bytes", field, i, m)
		}
	}
	return ms, nil
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// resolveChain materializes the request chain: the inline spec as sent,
// or a named built-in profile.
func resolveChain(c *chain.Chain, net *NetSpec) (*chain.Chain, error) {
	switch {
	case c != nil && net != nil:
		return nil, fmt.Errorf("request sets both chain and net")
	case c != nil:
		return c, nil
	case net != nil:
		if ts, ok := nets.TransformerPreset(net.Name); ok {
			if net.Batch >= 1 {
				ts.Batch = net.Batch
			}
			if net.Blocks >= 1 {
				ts.Blocks = net.Blocks
			}
			if net.Granularity >= 1 {
				ts.Granularity = net.Granularity
			}
			// Checked before the build allocates the layers: the chain has
			// one embedding and one head layer around the blocks, and the
			// preset's granularity (8) is only ever replaced by one >= 1.
			if ts.Blocks > (core.MaxDPIndex-2)/ts.Granularity {
				return nil, fmt.Errorf("blocks × granularity + 2 must be at most %d layers (the planner's chain limit), got blocks %d at granularity %d",
					core.MaxDPIndex, ts.Blocks, ts.Granularity)
			}
			return nets.BuildTransformer(ts)
		}
		spec := nets.Spec{Name: net.Name, Batch: net.Batch, Size: net.Size}
		if spec.Batch == 0 {
			spec.Batch = 8
		}
		if spec.Size == 0 {
			spec.Size = 1000
		}
		return nets.Build(spec)
	default:
		return nil, fmt.Errorf("request sets neither chain nor net")
	}
}

// job is one unit of planning work a worker executes. The two real
// implementations are planJob and frontierJob; tests inject blocking
// jobs to pin workers deterministically.
type job interface {
	run(ctx context.Context, s *Server, worker int) answer
}

// planJob is a fully resolved plan request: validated, ready for a
// worker.
type planJob struct {
	c        *chain.Chain // as sent (pre-coarsening)
	plat     platform.Platform
	opts     core.Options // MaxChainLength unset; maxChain applied by the worker
	maxChain int
	schedule bool
}

// frontierJob is a fully resolved frontier request.
type frontierJob struct {
	c        *chain.Chain
	plat     platform.Platform
	opts     core.Options
	maxChain int
	mems     []float64
}
