package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"madpipe/internal/chain"
	"madpipe/internal/core"
	"madpipe/internal/fingerprint"
	"madpipe/internal/nets"
	"madpipe/internal/obs"
	"madpipe/internal/platform"
	"madpipe/internal/serve"
)

// replayer runs each served request a second time in process, through
// the public calls the daemon's pipeline is made of, with a span around
// each: decode, resolve, fingerprint, memo, coarsen, plan (with probe
// children from Eval.StartNS/DurNS) and report. Each client has its own
// planner cache, like each daemon worker. The replay is what the traced
// run attributes time with, and its outputs are checked against the
// served ones (the served = direct contract).
type replayer struct {
	tr       *Tracer
	reg      *obs.Registry
	memo     *serve.Memo
	caches   []*core.PlannerCache
	largePar int // the daemon's -large-parallel budget (0: off)

	mu     sync.Mutex
	intern map[fingerprint.Key]*chain.Chain
}

// largeChainLayers is madpiped's default -large-chain threshold.
const largeChainLayers = 1025

func newReplayer(tr *Tracer, clients, largePar int) *replayer {
	rp := &replayer{
		tr:       tr,
		reg:      obs.NewRegistry(),
		memo:     serve.NewMemo(serve.MemoConfig{}, nil),
		largePar: largePar,
		intern:   map[fingerprint.Key]*chain.Chain{},
	}
	for i := 0; i < clients; i++ {
		rp.caches = append(rp.caches, core.NewPlannerCache())
	}
	return rp
}

// replayed is one request's in-process outcome and layer timings.
type replayed struct {
	hit    bool
	status int
	fp     string
	body   []byte
	rep    *core.PlanReport // parsed body when status is 200
	named  bool

	decode, resolve, fingerprint, memo, coarsen, plan, report time.Duration
	total                                                     time.Duration

	p1 *core.PhaseOneResult // nil on hits and infeasible plans
}

// leases returns the warm and cold table leases over every client cache.
func (rp *replayer) leases() (warm, cold uint64) {
	for _, pc := range rp.caches {
		w, c := pc.LeaseStats()
		warm += w
		cold += c
	}
	return warm, cold
}

func (rp *replayer) replay(client int, reqID int64, body []byte) (*replayed, error) {
	out := &replayed{}
	root := rp.tr.Reserve()
	t0 := time.Now()
	lap := func(name string, start time.Time) time.Duration {
		end := time.Now()
		rp.tr.Record(root, reqID, name, start, end)
		return end.Sub(start)
	}

	ts := time.Now()
	var req serve.PlanRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	out.decode = lap("decode", ts)

	ts = time.Now()
	rc, err := resolve(&req)
	if err != nil {
		return nil, fmt.Errorf("resolve: %w", err)
	}
	out.resolve = lap("resolve", ts)
	out.named = req.Net != nil

	plat := req.Platform.Platform()
	opts, err := rp.options(req.Options, rc.Len())
	if err != nil {
		return nil, err
	}
	ts = time.Now()
	keyOpts := opts
	keyOpts.MaxChainLength = req.Options.MaxChain
	key := fingerprint.PlanKey(rc, plat, keyOpts, req.Schedule, 0)
	out.fingerprint = lap("fingerprint", ts)
	out.fp = key.String()

	ts = time.Now()
	status, memoBody, hit := rp.memo.Get(key, time.Now())
	out.memo = lap("memo", ts)
	if hit {
		out.hit, out.status, out.body = true, status, memoBody
	} else {
		if err := rp.plan(client, reqID, root, rc, plat, opts, req.Options.MaxChain, out); err != nil {
			return nil, err
		}
		rp.memo.Put(key, out.status, out.body, time.Now())
	}
	out.total = time.Since(t0)
	rp.tr.Finish(root, 0, reqID, "replay", t0, t0.Add(out.total))
	if out.status == 200 {
		out.rep = &core.PlanReport{}
		if err := json.Unmarshal(out.body, out.rep); err != nil {
			return nil, fmt.Errorf("replay report: %w", err)
		}
	}
	return out, nil
}

// plan is the miss path: coarsen and intern the chain, plan it on the
// client's cache with Options.Obs set, and render the report.
func (rp *replayer) plan(client int, reqID int64, root int, rc *chain.Chain, plat platform.Platform, opts core.Options, maxChain int, out *replayed) error {
	ts := time.Now()
	c := rc
	if maxChain > 0 {
		cc, err := rc.Coarsen(maxChain)
		if err != nil {
			return fmt.Errorf("coarsen: %w", err)
		}
		c = cc
	}
	k := fingerprint.ChainKey(c, 0)
	rp.mu.Lock()
	if ic, ok := rp.intern[k]; ok {
		c = ic
	} else {
		rp.intern[k] = c
	}
	rp.mu.Unlock()
	end := time.Now()
	rp.tr.Record(root, reqID, "coarsen", ts, end)
	out.coarsen = end.Sub(ts)

	opts.Cache = rp.caches[client]
	opts.Obs = rp.reg
	planID := rp.tr.Reserve()
	ts = time.Now()
	p1, err := core.PlanAllocationCtx(context.Background(), c, plat, opts)
	end = time.Now()
	rp.tr.Finish(planID, root, reqID, "plan", ts, end)
	out.plan = end.Sub(ts)
	if err != nil {
		if !errors.Is(err, platform.ErrInfeasible) {
			return fmt.Errorf("plan: %w", err)
		}
		out.status = 422
		out.body, _ = json.Marshal(serve.ErrorResponse{Error: err.Error()})
		return nil
	}
	out.p1 = p1
	for _, ev := range p1.Evals {
		if ev.DurNS > 0 {
			s := ts.Add(time.Duration(ev.StartNS))
			rp.tr.Record(planID, reqID, "probe", s, s.Add(time.Duration(ev.DurNS)))
		}
	}

	ts = time.Now()
	var buf bytes.Buffer
	if err := core.NewPlanReport(c, plat, opts, p1).WriteJSON(&buf); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	end = time.Now()
	rp.tr.Record(root, reqID, "report", ts, end)
	out.report = end.Sub(ts)
	out.status, out.body = 200, buf.Bytes()
	return nil
}

// options maps a request's options onto the planner options madpiped
// runs it with: the 2BW weight policy, the requested grid, and the
// daemon's default worker budget (1, or -large-parallel for raw chains
// of at least largeChainLayers layers).
func (rp *replayer) options(o serve.OptionsSpec, layers int) (core.Options, error) {
	opts := core.Options{
		Iterations: o.Iterations,
		Parallel:   o.Parallel,
		ColdTables: o.ColdTables,
		Weights:    chain.TwoBufferedWeights(),
	}
	if o.Weights != "" || o.DisableSpecial || o.CoarsenGroup != 0 {
		return opts, errors.New("replay: request sets options the benchmark never generates")
	}
	if o.DiscTP != 0 || o.DiscMP != 0 || o.DiscV != 0 {
		opts.Disc = core.Discretization{TP: o.DiscTP, MP: o.DiscMP, V: o.DiscV}
	}
	if opts.Parallel == 0 {
		opts.Parallel = 1
		if rp.largePar > 0 && layers >= largeChainLayers {
			opts.Parallel = rp.largePar
		}
	}
	return opts, nil
}

// resolve materializes the request's chain the way madpiped does: the
// inline chain as sent, or the named profile at the request's batch,
// size, block count and granularity.
func resolve(req *serve.PlanRequest) (*chain.Chain, error) {
	if req.Chain != nil {
		return req.Chain, nil
	}
	n := req.Net
	if n == nil {
		return nil, errors.New("request names no chain")
	}
	if ts, ok := nets.TransformerPreset(n.Name); ok {
		if n.Batch >= 1 {
			ts.Batch = n.Batch
		}
		if n.Blocks >= 1 {
			ts.Blocks = n.Blocks
		}
		if n.Granularity >= 1 {
			ts.Granularity = n.Granularity
		}
		return nets.BuildTransformer(ts)
	}
	spec := nets.Spec{Name: n.Name, Batch: n.Batch, Size: n.Size}
	if spec.Batch == 0 {
		spec.Batch = 8
	}
	if spec.Size == 0 {
		spec.Size = 1000
	}
	return nets.Build(spec)
}
