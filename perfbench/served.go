package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"madpipe/internal/core"
	"madpipe/internal/serve"
)

// request is one generated /v1/plan call.
type request struct {
	idx    int
	body   []byte
	hot    bool // a re-request of a cell already planned: expected memo hit
	inline bool // carries its chain inline instead of naming a profile
	layers int  // resolved chain length as sent
	unit   string
}

// servedSpec describes one served workload to runServed.
type servedSpec struct {
	clients int
	flags   []string // madpiped flags beyond the listen address
	// largePar is the daemon's -large-parallel budget for chains of at
	// least largeChainLayers layers (0: off). runServed passes both
	// flags, and the traced replay applies the same budget.
	largePar int
	launches int // daemon start-ups timed for setup_s
	// warmup returns the requests planned before the timed window (part
	// of set-up); next returns the timed stream's requests in order.
	warmup func() []*request
	next   func() *request
	// unitLen is the number of consecutive requests per exact-counter
	// unit. The window ends on a unit boundary.
	unitLen int
	// periodReqs is the stream prefix plan_period_geomean_s covers. The
	// window runs at least until the prefix is complete, so the metric
	// is exact per seed however fast the program runs.
	periodReqs int
	// planOnly marks a stream without memo hits: the hit quantiles then
	// stand in as the miss quantiles.
	planOnly bool
	// collect runs two garbage collections in the daemon after each
	// timed request (see daemon.collect), outside the request's timing.
	collect bool
}

// servedSlices splits the window into equal time slices. Rates and the
// latency quantiles of a class that counts at least minSliceSamples in
// every slice are the median over slices, so a burst of interference
// from outside the benchmark moves one slice, not the result. Smaller
// classes are pooled over the window. At minSliceSamples a slice's p90
// has ten samples beyond it, and a slice's rate moves by at most 1% per
// request.
const (
	servedSlices    = 5
	minSliceSamples = 100
)

// outcome is one completed request.
type outcome struct {
	req    *request
	rep    reply
	rtt    time.Duration
	end    time.Time
	report *core.PlanReport // parsed 200 body
	replay *replayed        // traced runs only
}

// servedRun holds the state shared by the client goroutines.
type servedRun struct {
	spec servedSpec
	d    *daemon
	res  *Result
	rp   *replayer // nil when untraced
	tr   *Tracer

	mu      sync.Mutex
	digests map[string][32]byte // fingerprint -> sha256 of the miss body
	unknown int                 // hits whose miss body was never seen
	genMu   sync.Mutex
}

func runServed(cfg config, res *Result, spec servedSpec) error {
	run := &servedRun{spec: spec, res: res, digests: map[string][32]byte{}}
	if cfg.trace {
		run.tr = newTracer()
		run.rp = newReplayer(run.tr, spec.clients, spec.largePar)
	}
	var setups []float64
	var warm []*request
	if spec.warmup != nil {
		warm = spec.warmup()
	}
	flags := spec.flags
	if spec.largePar > 0 {
		flags = append(flags[:len(flags):len(flags)], "-large-parallel", strconv.Itoa(spec.largePar),
			"-large-chain", strconv.Itoa(largeChainLayers))
	}
	for i := 0; i < spec.launches; i++ {
		d, startup, err := startDaemon(cfg, spec.clients, flags...)
		if err != nil {
			return err
		}
		run.d = d
		run.digests = map[string][32]byte{}
		t0 := time.Now()
		if err := run.drive(warm); err != nil {
			d.stop()
			return err
		}
		setups = append(setups, (startup + time.Since(t0)).Seconds())
		if i < spec.launches-1 {
			// A daemon stopped right after it answered /healthz may not
			// have installed its SIGTERM handler yet and then dies of the
			// signal instead of draining; it holds no work at that point.
			if err := d.stop(); err != nil && !killedByTerm(err) {
				return fmt.Errorf("madpiped shutdown after set-up: %w", err)
			}
		}
	}
	d := run.d
	defer d.stop()
	res.metric("setup_s", "s", median(setups))
	res.Samples["setup_s"] = len(setups)

	if run.rp != nil {
		// The replay's memo and caches must hold what the daemon's do
		// before the window, so hits replay as hits. Set-up is not traced.
		run.rp.tr = nil
		for i, rq := range warm {
			if _, err := run.rp.replay(i%spec.clients, int64(rq.idx), rq.body); err != nil {
				return fmt.Errorf("replay warm-up: %w", err)
			}
		}
		run.rp.tr = run.tr
	}
	before, err := d.stats()
	if err != nil {
		return err
	}
	warmL, coldL := uint64(0), uint64(0)
	if run.rp != nil {
		warmL, coldL = run.rp.leases()
	}
	outs, bounds, peak, err := run.window(time.Duration(cfg.seconds) * time.Second)
	if err != nil {
		return err
	}
	after, err := d.stats()
	if err != nil {
		return err
	}
	res.metric("peak_rss_mb", "MB", peak)
	if err := d.stop(); err != nil {
		res.fail("madpiped shutdown: %v", err)
	}
	run.metrics(outs, bounds)
	run.units(outs)
	run.properties(outs)
	if run.rp != nil {
		w2, c2 := run.rp.leases()
		run.layers(outs, before, after, float64(w2-warmL), float64(c2-coldL))
		return writeTraceFile(cfg, res, run.tr)
	}
	return nil
}

// window runs the closed loop: each client sends its next request only
// after the previous one completed. Once the deadline has passed and the
// stream's period prefix is issued, the clients finish the current unit
// of the stream and stop; requests in flight finish and count. It
// returns the outcomes in stream order, the slice boundaries (the last
// one is the window's end, its last completion) and the daemon's peak
// RSS over the window.
func (run *servedRun) window(length time.Duration) ([]*outcome, []time.Time, float64, error) {
	start := time.Now()
	deadline := start.Add(length)
	bounds := make([]time.Time, servedSlices+1)
	for i := range bounds {
		bounds[i] = start.Add(length * time.Duration(i) / servedSlices)
	}
	pid := run.d.pid()
	if err := resetPeakRSS(pid); err != nil {
		return nil, nil, 0, err
	}
	var (
		mu     sync.Mutex
		outs   []*outcome
		issued int
		errc   = make(chan error, run.spec.clients)
		wg     sync.WaitGroup
	)
	for c := 0; c < run.spec.clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for {
				run.genMu.Lock()
				if issued%run.spec.unitLen == 0 && issued >= run.spec.periodReqs && !time.Now().Before(deadline) {
					run.genMu.Unlock()
					return
				}
				rq := run.spec.next()
				issued++
				run.genMu.Unlock()
				o, err := run.one(client, rq, true)
				if err != nil {
					errc <- err
					return
				}
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		return nil, nil, 0, err
	}
	peak, err := peakRSSMB(pid)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("daemon peak RSS: %w", err)
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].req.idx < outs[j].req.idx })
	end := start
	for _, o := range outs {
		if o.end.After(end) {
			end = o.end
		}
	}
	bounds[servedSlices] = end
	run.res.Properties["window_s"] = end.Sub(start).Seconds()
	return outs, bounds, peak, nil
}

// drive sends set-up requests from the workload's clients.
func (run *servedRun) drive(reqs []*request) error {
	var (
		mu   sync.Mutex
		next int
		errc = make(chan error, run.spec.clients)
		wg   sync.WaitGroup
	)
	for c := 0; c < run.spec.clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(reqs) {
					mu.Unlock()
					return
				}
				rq := reqs[next]
				next++
				mu.Unlock()
				if _, err := run.one(client, rq, false); err != nil {
					errc <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	return <-errc
}

// one sends a request, checks the reply, and in traced runs replays it
// in process and checks served = direct. Only errors that stop the run
// are returned; failed checks are counted on the result.
func (run *servedRun) one(client int, rq *request, timed bool) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	var id int
	if timed {
		id = run.tr.Reserve()
	}
	t0 := time.Now()
	rep, err := run.d.post(ctx, "/v1/plan", rq.body)
	end := time.Now()
	o := &outcome{req: rq, rep: rep, rtt: end.Sub(t0), end: end}
	if timed {
		run.tr.Finish(id, 0, int64(rq.idx), "request", t0, end)
		run.mu.Lock()
		run.res.Attempted++
		run.mu.Unlock()
	}
	if err != nil {
		run.failf(timed, "request %d: %v", rq.idx, err)
		return o, nil
	}
	run.check(o, timed)
	if timed && run.spec.collect {
		if err := run.d.collect(); err != nil {
			return nil, err
		}
	}
	if timed && run.rp != nil {
		rp, err := run.rp.replay(client, int64(rq.idx), rq.body)
		if err != nil {
			return nil, err
		}
		o.replay = rp
		run.checkDirect(o)
	}
	return o, nil
}

func (run *servedRun) failf(timed bool, format string, args ...any) {
	run.mu.Lock()
	defer run.mu.Unlock()
	if timed {
		run.res.fail(format, args...)
	} else {
		// A set-up request that fails still fails the run.
		run.res.Attempted++
		run.res.fail("set-up: "+format, args...)
	}
}

// check validates one reply: an expected status, a well-formed report,
// and a memo hit's body byte-identical to the miss body stored under
// the same fingerprint.
func (run *servedRun) check(o *outcome, timed bool) {
	rq, rep := o.req, o.rep
	switch rep.status {
	case 200:
		o.report = &core.PlanReport{}
		if err := json.Unmarshal(rep.body, o.report); err != nil {
			run.failf(timed, "request %d: undecodable report: %v", rq.idx, err)
			return
		}
		if err := validReport(o.report); err != nil {
			run.failf(timed, "request %d: %v", rq.idx, err)
			return
		}
	case 422:
		// Infeasible under the memory limit: a correct answer.
	default:
		run.failf(timed, "request %d: status %d: %s", rq.idx, rep.status, bytes.TrimSpace(rep.body))
		return
	}
	if rep.fp == "" || (rep.memo != "hit" && rep.memo != "miss") {
		run.failf(timed, "request %d: missing serving headers (fingerprint %q, memo %q)", rq.idx, rep.fp, rep.memo)
		return
	}
	sum := sha256.Sum256(rep.body)
	run.mu.Lock()
	want, seen := run.digests[rep.fp]
	switch {
	case rep.memo == "miss":
		run.digests[rep.fp] = sum
	case !seen:
		run.unknown++
	}
	run.mu.Unlock()
	if rep.memo == "hit" && seen && want != sum {
		run.failf(timed, "request %d: memo hit body differs from the miss body for fingerprint %s", rq.idx, rep.fp)
	}
}

// validReport checks a plan report's internal consistency: finite
// positive periods, and stages that tile the planned chain's layers with
// contiguous spans on valid processors.
func validReport(r *core.PlanReport) error {
	if !(r.PredictedPeriod > 0) || math.IsInf(r.PredictedPeriod, 0) || !(r.TargetPeriod > 0) {
		return fmt.Errorf("report: bad periods predicted=%g target=%g", r.PredictedPeriod, r.TargetPeriod)
	}
	if len(r.Stages) == 0 || len(r.Probes) == 0 {
		return fmt.Errorf("report: %d stages, %d probes", len(r.Stages), len(r.Probes))
	}
	st := append([]core.StageReport(nil), r.Stages...)
	sort.Slice(st, func(i, j int) bool { return st[i].From < st[j].From })
	first := st[0].From
	for i, s := range st {
		if s.To < s.From || (i > 0 && s.From != st[i-1].To+1) {
			return fmt.Errorf("report: stages do not tile the chain: %+v", r.Stages)
		}
		if s.Proc < 0 || s.Proc >= r.Platform.Workers {
			return fmt.Errorf("report: stage on processor %d of %d", s.Proc, r.Platform.Workers)
		}
	}
	if first > 1 || st[len(st)-1].To-first+1 != r.Chain.Layers {
		return fmt.Errorf("report: stages cover %d..%d of %d layers", first, st[len(st)-1].To, r.Chain.Layers)
	}
	return nil
}

// checkDirect enforces served = direct: the in-process replay's status,
// fingerprint, periods and allocation equal what the daemon served.
func (run *servedRun) checkDirect(o *outcome) {
	rp, rq := o.replay, o.req
	switch {
	case rp.fp != o.rep.fp:
		run.failf(true, "request %d: served fingerprint %s, direct %s", rq.idx, o.rep.fp, rp.fp)
	case rp.status != o.rep.status:
		run.failf(true, "request %d: served status %d, direct %d", rq.idx, o.rep.status, rp.status)
	case o.report != nil && (rp.rep.PredictedPeriod != o.report.PredictedPeriod ||
		rp.rep.TargetPeriod != o.report.TargetPeriod || !sameStages(rp.rep.Stages, o.report.Stages)):
		run.failf(true, "request %d: served plan (period %g, target %g, %v) differs from direct (period %g, target %g, %v)",
			rq.idx, o.report.PredictedPeriod, o.report.TargetPeriod, o.report.Stages,
			rp.rep.PredictedPeriod, rp.rep.TargetPeriod, rp.rep.Stages)
	}
}

func sameStages(a, b []core.StageReport) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// metrics computes the end-to-end metrics of the window per time slice
// and reports the median over slices (see servedSlices).
func (run *servedRun) metrics(outs []*outcome, bounds []time.Time) {
	res := run.res
	k := len(bounds) - 1
	hits, misses := make([][]float64, k), make([][]float64, k)
	n := make([]float64, k)
	periods := map[string]float64{}
	for _, o := range outs {
		s := sort.Search(k-1, func(i int) bool { return o.end.Before(bounds[i+1]) })
		n[s]++
		switch o.rep.memo {
		case "hit":
			hits[s] = append(hits[s], ms(float64(o.rtt)))
		case "miss":
			misses[s] = append(misses[s], ms(float64(o.rtt)))
		}
		if o.report != nil && o.req.idx < run.spec.periodReqs {
			periods[o.rep.fp] = o.report.PredictedPeriod
		}
	}
	// A rate is the median over slices when every slice counts at least
	// minSliceSamples events, so integer counts do not quantize it;
	// otherwise it is the window's count over its length.
	rate := func(count func(s int) float64) float64 {
		v := make([]float64, k)
		var total float64
		sliced := true
		for s := range v {
			total += count(s)
			sliced = sliced && count(s) >= minSliceSamples
			v[s] = count(s) / bounds[s+1].Sub(bounds[s]).Seconds()
		}
		if !sliced {
			return total / bounds[k].Sub(bounds[0]).Seconds()
		}
		return median(v)
	}
	res.metric("req_per_s", "req/s", rate(func(s int) float64 { return n[s] }))
	res.metric("cells_per_s", "cells/s", rate(func(s int) float64 { return float64(len(misses[s])) }))
	res.Samples["slices"] = k
	classes := []struct {
		name string
		xs   [][]float64
	}{{"miss", misses}, {"hit", hits}}
	if run.spec.planOnly {
		// Every request plans, as on the sweep: the hit quantiles stand
		// in as the miss quantiles.
		classes[1].xs = misses
		res.Notes = append(res.Notes, "no memo hits in the stream: hit_p50_ms and hit_p90_ms repeat the miss quantiles")
	}
	for _, c := range classes {
		q := slicedQuantiles(c.xs)
		res.metric(c.name+"_p50_ms", "ms", q.p50)
		res.metric(c.name+"_p90_ms", "ms", q.p90)
		res.Samples[c.name] = q.total
		if q.perSlice > 0 {
			res.Samples[c.name+"_min_per_slice"] = q.perSlice
		}
		if q.p90StandIn {
			res.Notes = append(res.Notes, fmt.Sprintf("%s_p90_ms repeats %s_p50_ms: %d samples, a p90 needs %d", c.name, c.name, q.total, minSliceSamples))
		}
	}
	ps := make([]float64, 0, len(periods))
	for _, p := range periods {
		ps = append(ps, p)
	}
	res.metric("plan_period_geomean_s", "s", geomean(ps))
	res.Samples["plan_period_geomean_s"] = len(ps)
}

// sliceQuantiles is a latency class's p50 and p90 with their samples.
type sliceQuantiles struct {
	p50, p90 float64
	total    int
	perSlice int // the smallest slice's count when sliced, else 0
	// p90StandIn is set when the class has fewer than minSliceSamples
	// samples, so that no p90 with ten samples beyond it exists; p90
	// then repeats p50.
	p90StandIn bool
}

// slicedQuantiles returns the median over slices of each slice's p50 and
// p90 when every slice holds at least minSliceSamples samples, and the
// pooled quantiles otherwise.
func slicedQuantiles(slices [][]float64) sliceQuantiles {
	var pooled []float64
	least := -1
	for _, xs := range slices {
		pooled = append(pooled, xs...)
		if least < 0 || len(xs) < least {
			least = len(xs)
		}
	}
	q := sliceQuantiles{total: len(pooled)}
	if least < minSliceSamples {
		q.p50, q.p90 = quantile(pooled, 0.5), quantile(pooled, 0.9)
		if q.total < minSliceSamples {
			q.p90, q.p90StandIn = q.p50, true
		}
		return q
	}
	a, b := make([]float64, len(slices)), make([]float64, len(slices))
	for i, xs := range slices {
		a[i], b[i] = quantile(xs, 0.5), quantile(xs, 0.9)
	}
	q.p50, q.p90, q.perSlice = median(a), median(b), least
	return q
}

// units groups the window's requests into exact-counter units: the
// counts that must repeat for the seed. Clients draw the stream in order
// and every drawn request completes, so outs is a prefix of the stream;
// only units whose every request is in it are reported.
func (run *servedRun) units(outs []*outcome) {
	type acc struct {
		n        int
		counters map[string]int64
	}
	var order []string
	by := map[string]*acc{}
	var schedStates, schedPlans float64
	for _, o := range outs {
		u := by[o.req.unit]
		if u == nil {
			u = &acc{counters: map[string]int64{"hit": 0, "miss": 0, "hot_miss": 0, "infeasible": 0, "probes": 0}}
			by[o.req.unit] = u
			order = append(order, o.req.unit)
		}
		u.n++
		c := u.counters
		c[o.rep.memo]++
		if o.req.hot && o.rep.memo == "miss" {
			// A re-request the memo no longer held: eviction or expiry.
			c["hot_miss"]++
		}
		if o.rep.status == 422 {
			c["infeasible"]++
		}
		if o.report != nil && o.rep.memo == "miss" {
			c["probes"] += int64(len(o.report.Probes))
			c["period_ps_sum"] += int64(math.Round(o.report.PredictedPeriod * 1e12))
			for _, p := range o.report.Probes {
				schedStates += float64(p.States)
				if run.spec.clients == 1 {
					// One client: the daemon's workers take the plans in
					// stream order, so each plan's DP work repeats for
					// the seed. Served reports carry no cut counts; the
					// traced replay's replay_cuts does.
					c["served_states"] += int64(p.States)
					c["served_blocks"] = max(c["served_blocks"], int64(p.Stats.TableBlocksResident))
				}
			}
			schedPlans++
		}
		if rp := o.replay; rp != nil && rp.p1 != nil && run.spec.clients == 1 {
			// One client, one replay cache: the replay's work counters
			// follow the request order exactly.
			for _, ev := range rp.p1.Evals {
				c["replay_states"] += int64(ev.Stats.StatesEvaluated)
				c["replay_cuts"] += int64(ev.Stats.CutsEvaluated)
			}
		}
	}
	for _, name := range order {
		u := by[name]
		if u.n == run.spec.unitLen {
			run.res.Exact = append(run.res.Exact, Unit{Name: name, Counters: u.counters})
		}
	}
	if run.spec.clients > 1 {
		// Which daemon worker's warm tables a miss lands on changes how
		// many states it evaluates.
		run.res.Scheduling = map[string]float64{"served_states_per_plan": ratio(schedStates, schedPlans)}
	}
}

// properties records what the generated inputs were like.
func (run *servedRun) properties(outs []*outcome) {
	p := run.res.Properties
	n := float64(len(outs))
	var hits, inline, large, infeasible, planned, blocked float64
	hist := map[string]int{}
	for _, o := range outs {
		if o.rep.memo == "hit" {
			hits++
		}
		if o.req.inline {
			inline++
		}
		if o.req.layers >= largeChainLayers {
			large++
		}
		if o.rep.status == 422 {
			infeasible++
		}
		hist[strconv.Itoa(o.req.layers)]++
		if o.rep.memo == "miss" && o.report != nil {
			planned++
			for _, pr := range o.report.Probes {
				if pr.Stats.TableBlocksResident > 0 {
					blocked++
					break
				}
			}
		}
	}
	p["requests"] = len(outs)
	p["hit_share"] = ratio(hits, n)
	p["inline_chain_share"] = ratio(inline, n)
	p["named_profile_share"] = ratio(n-inline, n)
	p["chain_length_histogram"] = hist
	p["large_chain_share"] = ratio(large, n)
	p["blocked_storage_share_of_plans"] = ratio(blocked, planned)
	p["infeasible_share"] = ratio(infeasible, n)
	p["hits_without_seen_miss"] = run.unknown
}

// layers computes the per-layer metrics of a traced window from the
// replay's spans and counters and the daemon's /v1/stats deltas.
func (run *servedRun) layers(outs []*outcome, before, after serve.ServerStats, warmL, coldL float64) {
	res := run.res
	delta := after.Obs.Delta(before.Obs)
	phase := func(name string, q float64) float64 {
		return float64(delta.Hists["serve_span_"+name].Quantile(q))
	}
	memoHits := float64(after.Memo.Hits - before.Memo.Hits)
	memoMisses := float64(after.Memo.Misses - before.Memo.Misses)
	res.layer("serve.memo_hit_ratio", "1", ratio(memoHits, memoHits+memoMisses))
	res.layer("serve.admit_p50_us", "us", us(phase("admit", 0.5)))
	res.layer("serve.queue_p90_ms", "ms", ms(phase("queue", 0.9)))
	res.layer("serve.plan_p50_ms", "ms", ms(phase("plan", 0.5)))
	res.layer("serve.marshal_p50_us", "us", us(phase("marshal", 0.5)))
	res.layer("serve.write_p50_us", "us", us(phase("write", 0.5)))
	res.layer("serve.memo_mb", "MB", float64(after.Memo.Bytes)/1e6)

	var (
		servedHit, replayHit, build, namedHitRTT, namedHitBuild []float64
		decodeInline, inlineHitRTT, inlineHitDecode             []float64
		coarsen, fp, search, probe, report, reportKB            []float64
		plans, probes, saved, states, cuts, reused, touched     float64
		probeNS, searchNS                                       float64
		resident, virtual, blocks                               float64
	)
	for _, o := range outs {
		rp := o.replay
		if rp == nil {
			continue
		}
		fp = append(fp, us(float64(rp.fingerprint)))
		if rp.named {
			build = append(build, us(float64(rp.resolve)))
		} else {
			decodeInline = append(decodeInline, us(float64(rp.decode)))
		}
		if o.rep.memo == "hit" {
			servedHit = append(servedHit, us(float64(o.rtt)))
			if rp.named {
				namedHitRTT = append(namedHitRTT, us(float64(o.rtt)))
				namedHitBuild = append(namedHitBuild, us(float64(rp.resolve)))
			} else {
				inlineHitRTT = append(inlineHitRTT, us(float64(o.rtt)))
				inlineHitDecode = append(inlineHitDecode, us(float64(rp.decode)))
			}
		}
		if rp.hit {
			replayHit = append(replayHit, us(float64(rp.total)))
			continue
		}
		coarsen = append(coarsen, us(float64(rp.coarsen)))
		if rp.p1 == nil {
			continue
		}
		plans++
		search = append(search, ms(float64(rp.plan)))
		searchNS += float64(rp.plan)
		report = append(report, us(float64(rp.report)))
		if o.rep.status == 200 {
			reportKB = append(reportKB, float64(len(o.rep.body))/1e3)
		}
		probes += float64(rp.p1.Hint.Probes)
		saved += float64(rp.p1.Hint.ProbesSaved)
		for _, ev := range rp.p1.Evals {
			st := ev.Stats
			if ev.DurNS > 0 {
				probe = append(probe, ms(float64(ev.DurNS)))
				probeNS += float64(ev.DurNS)
			}
			states += float64(st.StatesEvaluated)
			cuts += float64(st.CutsEvaluated)
			reused += float64(st.StatesValReused + st.StatesCertPruned)
			touched += float64(st.StatesEvaluated + st.StatesValReused + st.StatesCertPruned)
			resident = math.Max(resident, float64(st.TableResidentBytes))
			virtual = math.Max(virtual, float64(st.TableVirtualBytes))
			blocks = math.Max(blocks, float64(st.TableBlocksResident))
		}
	}
	res.layer("serve.http_hit_us", "us", median(servedHit)-median(replayHit))
	res.layer("nets.build_p50_us", "us", median(build))
	res.layer("nets.build_hit_share", "1", ratio(median(namedHitBuild), median(namedHitRTT)))
	res.layer("chain.decode_p50_us", "us", median(decodeInline))
	res.layer("chain.decode_hit_share", "1", ratio(median(inlineHitDecode), median(inlineHitRTT)))
	res.layer("chain.coarsen_p50_us", "us", median(coarsen))
	res.layer("fingerprint.key_p50_us", "us", median(fp))
	res.layer("core.search_p50_ms", "ms", median(search))
	res.layer("core.probes_per_plan", "count", ratio(probes, plans))
	res.layer("core.probes_saved_per_plan", "count", ratio(saved, plans))
	res.layer("core.probe_p50_ms", "ms", median(probe))
	res.layer("core.probe_overlap", "1", ratio(probeNS, searchNS))
	res.layer("core.states_per_plan", "count", ratio(states, plans))
	res.layer("core.cuts_per_plan", "count", ratio(cuts, plans))
	res.layer("core.ns_per_state", "ns", ratio(probeNS, states))
	res.layer("core.ns_per_cut", "ns", ratio(probeNS, cuts))
	res.layer("core.reuse_share", "1", ratio(reused, touched))
	res.layer("core.table_resident_mb", "MB", resident/1e6)
	res.layer("core.table_virtual_mb", "MB", virtual/1e6)
	res.layer("core.table_blocks", "count", blocks)
	res.layer("core.lease_warm_ratio", "1", ratio(warmL, warmL+coldL))
	res.layer("core.report_p50_us", "us", median(report))
	res.layer("core.report_kb", "KB", mean(reportKB))
	res.Samples["trace.replay_hits"] = len(replayHit)
	res.Samples["trace.replay_plans"] = int(plans)
	res.Samples["trace.probes_timed"] = len(probe)
	if run.spec.clients > 1 {
		// Each client's replay cache sees whichever requests that client
		// drew, so warm-table reuse depends on scheduling.
		res.Scheduling["replay_states_per_plan"] = ratio(states, plans)
		res.Scheduling["replay_lease_warm_ratio"] = ratio(warmL, warmL+coldL)
	}
	res.Properties["span_stats"] = spanStats(run.tr.Spans())
}
