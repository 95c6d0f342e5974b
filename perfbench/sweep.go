package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"time"

	"madpipe/internal/chain"
	"madpipe/internal/expt"
	"madpipe/internal/nets"
	"madpipe/internal/obs"
)

// sweepJob is one Runner.Sweep call: one profile × two processor counts
// × two bandwidths, every row over the Fig. 7 memory ladder.
type sweepJob struct {
	net     string
	workers []int
}

// sweepPlan lists each profile with the processor counts its jobs plan.
// resnet50 and inception plan about twice as fast as resnet101 and
// densenet121 at equal P, so they get the larger pair and every job costs
// about the same: cells/s and the cells' time to result then do not
// depend on which jobs a run reaches. P stops at 5 because a worker's
// warm dense table for a 24-layer chain grows with P, to 725 MB at
// P = 8: jobs of two profiles on P up to 8 peaked at 4 GB resident on a
// 7 GB host, and one profile on P up to 6 at 1.8 GB.
var sweepPlan = []sweepJob{
	{"resnet50", []int{3, 5}},
	{"inception", []int{3, 5}},
	{"resnet101", []int{2, 4}},
	{"densenet121", []int{2, 4}},
}

// sweepCycle returns one cycle of jobs, every profile once, in a seeded
// order. With both bandwidths in the grid, expt's round-robin row
// assignment gives each of the two sweep workers one bandwidth: the same
// rows, balanced, and within a worker the rows of one profile share one
// warm table (row affinity).
func sweepCycle(rng *rand.Rand) []sweepJob {
	jobs := append([]sweepJob(nil), sweepPlan...)
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// sweepBandwidths draws the run's two bandwidths: 12 and 24 GB/s, both
// scaled by one factor in [0.99, 1.01]. The plan periods then differ
// between seeds while the DP work stays the same; a jittered memory
// ladder moved the work itself, by up to 25% in cells/s.
func sweepBandwidths(rng *rand.Rand) []float64 {
	f := 0.99 + 0.02*rng.Float64()
	return []float64{12 * f, 24 * f}
}

// buildProfiles builds and coarsens the four CNN profiles: the sweep's
// set-up, what cmd/experiments does before its first cell.
func buildProfiles() (map[string]*chain.Chain, error) {
	out := map[string]*chain.Chain{}
	for _, name := range nets.Names() {
		c, err := nets.Build(nets.PaperSpec(name))
		if err != nil {
			return nil, err
		}
		if _, err := c.Coarsen(24); err != nil {
			return nil, err
		}
		out[name] = c
	}
	return out, nil
}

// sweepWorkers is the sweep's worker count: cmd/experiments' -j 0
// default on a 2-core host.
const sweepWorkers = 2

// sweepSetups is how many times set-up is timed; it takes about 2 ms.
const sweepSetups = 25

func runSweep(cfg config, res *Result) error {
	var setups []float64
	var chains map[string]*chain.Chain
	for i := 0; i < sweepSetups; i++ {
		t0 := time.Now()
		cs, err := buildProfiles()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		chains = cs
	}
	res.metric("setup_s", "s", median(setups))
	res.Samples["setup_s"] = len(setups)

	var tr *Tracer
	var reg *obs.Registry
	if cfg.trace {
		tr, reg = newTracer(), obs.NewRegistry()
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	ladder := expt.PaperGrid().MemoryGB
	bandwidths := sweepBandwidths(rng)
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	var (
		cells              int
		busy               time.Duration
		ttr                []float64 // per-cell time to result
		periods            = map[string]float64{}
		searchMS, probeMS  []float64
		probeNS            float64
		first              obs.Snapshot
		infeasible         int
		firstRows          []expt.Row
		regBefore          = reg.Snapshot()
		lengths            = map[string]int{}
		peaks              []float64 // per job
		jobSeconds         []float64
		jobRates           []float64 // cells per second of each job
		pdCellMS, mpCellMS []float64 // Outcome.Elapsed per cell (traced)
		imbalance          []float64 // per job (traced)
		self               = strconv.Itoa(os.Getpid())
	)
	var jobs []sweepJob
	for k := 0; k < len(jobs) || time.Now().Before(deadline); k++ {
		if k == len(jobs) {
			jobs = append(jobs, sweepCycle(rng)...)
		}
		job := jobs[k]
		cs := []*chain.Chain{chains[job.net]}
		grid := expt.Grid{Workers: job.workers, MemoryGB: ladder, BandwidthG: bandwidths}
		r := &expt.Runner{MaxChain: 24, Parallel: sweepWorkers, Obs: reg}
		if err := resetPeakRSS(self); err != nil {
			return err
		}
		id := tr.Reserve()
		t0 := time.Now()
		// cmd/experiments prints each row as Sweep hands it over; the
		// time from the call to that hand-over is what its user waits.
		rows, err := r.Sweep(cs, grid, func(expt.Row) { ttr = append(ttr, ms(float64(time.Since(t0)))) })
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("sweep job %d: %w", k, err)
		}
		tr.Finish(id, 0, int64(k), "sweep", t0, t0.Add(d))
		rss, err := peakRSSMB(self)
		if err != nil {
			return err
		}
		peaks = append(peaks, rss)
		busy += d
		cells += len(rows)
		jobSeconds = append(jobSeconds, d.Seconds())
		jobRates = append(jobRates, float64(len(rows))/d.Seconds())
		snap := reg.Snapshot()
		unit := Unit{Name: "job " + strconv.Itoa(k), Counters: map[string]int64{}}
		for i, row := range rows {
			res.Attempted++
			if err := checkRow(row); err != nil {
				res.fail("job %d cell %d: %v", k, i, err)
			}
			lengths[strconv.Itoa(chains[row.Net].Len())]++
			c := unit.Counters
			c["probes"] += int64(row.MadPipe.Probes + row.MadPipeContig.Probes)
			c["probes_saved"] += int64(row.MadPipe.ProbesSaved + row.MadPipeContig.ProbesSaved)
			if i%len(ladder) == 0 {
				c["frontier_breakpoints"] += int64(row.FrontierBreakpoints)
				c["frontier_replays"] += int64(row.FrontierReplays)
				c["frontier_probes"] += int64(row.FrontierProbes)
			}
			if row.MadPipe.Feasible() {
				c["feasible"]++
				c["period_ps_sum"] += int64(math.Round(row.MadPipe.Valid * 1e12))
				if k < len(sweepPlan) {
					// plan_period_geomean_s covers the first cycle, which
					// every run completes; later cycles repeat its cells.
					periods[fmt.Sprint(row.Net, row.Workers, row.MemGB, row.BandGB)] = row.MadPipe.Valid
				}
			} else {
				infeasible++
			}
			for _, o := range []expt.Outcome{row.MadPipe, row.MadPipeContig} {
				if o.Report == nil {
					continue
				}
				var s float64
				for _, p := range o.Report.Probes {
					if p.DurNS > 0 {
						probeMS = append(probeMS, ms(float64(p.DurNS)))
						s += float64(p.DurNS)
					}
				}
				probeNS += s
				if s > 0 {
					searchMS = append(searchMS, ms(s))
				}
			}
		}
		if reg != nil {
			// Sweep gives the rows (one memory ladder each) to its shards
			// round-robin; the slowest shard sets the job's time.
			shards := make([]float64, sweepWorkers)
			for i, row := range rows {
				pdCellMS = append(pdCellMS, ms(float64(row.PipeDream.Elapsed)))
				mpCellMS = append(mpCellMS, ms(float64(row.MadPipe.Elapsed)), ms(float64(row.MadPipeContig.Elapsed)))
				shards[(i/len(ladder))%sweepWorkers] += float64(row.PipeDream.Elapsed + row.MadPipe.Elapsed + row.MadPipeContig.Elapsed)
			}
			imbalance = append(imbalance, ratio(slices.Max(shards), mean(shards)))
			delta := snap.Delta(regBefore)
			for _, name := range []string{"sweep_cells_skipped", "dp_runs", "dp_states_evaluated", "dp_cuts_evaluated"} {
				unit.Counters[name] = int64(delta.Counters[name])
			}
			if k == 0 {
				first, firstRows = delta, rows
			}
			regBefore = snap
		}
		res.Exact = append(res.Exact, unit)
		// Each job stands for one cmd/experiments invocation: return its
		// tables to the OS before the next, as the process exit would.
		// Otherwise peak RSS measures when the collector happened to run.
		// The second call also drops tables parked in core's pool, which
		// survive one collection.
		debug.FreeOSMemory()
		debug.FreeOSMemory()
	}
	if cells == 0 {
		return fmt.Errorf("no sweep job finished")
	}
	// The median job rate keeps one disturbed job from moving the result.
	res.metric("req_per_s", "req/s", median(jobRates))
	res.metric("cells_per_s", "cells/s", median(jobRates))
	// A sweep has no response memo: every cell is planned, so both the
	// hit and the miss quantiles report the cells' time to result.
	p50, p90 := quantile(ttr, 0.5), quantile(ttr, 0.9)
	res.metric("hit_p50_ms", "ms", p50)
	res.metric("hit_p90_ms", "ms", p90)
	res.metric("miss_p50_ms", "ms", p50)
	res.metric("miss_p90_ms", "ms", p90)
	res.Samples["hit"], res.Samples["miss"] = len(ttr), len(ttr)
	ps := make([]float64, 0, len(periods))
	for _, p := range periods {
		ps = append(ps, p)
	}
	res.metric("plan_period_geomean_s", "s", geomean(ps))
	res.Samples["plan_period_geomean_s"] = len(ps)
	res.Properties["peak_rss_per_job_mb"] = append([]float64(nil), peaks...)
	res.metric("peak_rss_mb", "MB", median(peaks))
	res.Properties["jobs"] = len(res.Exact)
	res.Properties["job_seconds"] = jobSeconds
	res.Properties["cells"] = cells
	res.Properties["infeasible_share"] = ratio(float64(infeasible), float64(cells))
	res.Properties["chain_length_histogram"] = lengths
	// In process, no memo, dense tables only, at most 72 layers.
	res.Properties["hit_share"] = 0.0
	res.Properties["inline_chain_share"] = 0.0
	res.Properties["large_chain_share"] = 0.0
	res.Properties["blocked_storage_share_of_plans"] = 0.0
	if reg == nil {
		return nil
	}

	total := reg.Snapshot().Delta(obs.Snapshot{})
	cnt := func(s obs.Snapshot, name string) float64 { return float64(s.Counters[name]) }
	var fb, fr, probes, saved float64
	for i, row := range firstRows {
		probes += float64(row.MadPipe.Probes + row.MadPipeContig.Probes)
		saved += float64(row.MadPipe.ProbesSaved + row.MadPipeContig.ProbesSaved)
		if i%len(ladder) == 0 {
			fb += float64(row.FrontierBreakpoints)
			fr += float64(row.FrontierReplays)
		}
	}
	modes := float64(2 * len(firstRows))
	res.layer("expt.probes", "count", probes)
	res.layer("expt.probes_saved", "count", saved)
	res.layer("expt.cells_skipped", "count", cnt(first, "sweep_cells_skipped"))
	res.layer("expt.pipedream_cell_ms", "ms", median(pdCellMS))
	res.layer("expt.madpipe_cell_ms", "ms", median(mpCellMS))
	res.layer("expt.shard_imbalance", "1", median(imbalance))
	if slices.Max(pdCellMS) == 0 && slices.Max(mpCellMS) == 0 {
		// The deferred store of runPipeDream/runMadPipe lands after the
		// return value is copied, so these three metrics read 0 until
		// the program reports cell times.
		res.Notes = append(res.Notes, "expt.Outcome.Elapsed is 0 on every cell: expt.*_cell_ms and expt.shard_imbalance read 0")
	}
	res.layer("core.frontier_breakpoints", "count", fb)
	res.layer("core.frontier_replays", "count", fr)
	res.layer("core.frontier_dp_probes", "count", cnt(first, "dp_runs"))
	res.layer("core.search_p50_ms", "ms", median(searchMS))
	res.layer("core.probes_per_plan", "count", ratio(probes, modes))
	res.layer("core.probes_saved_per_plan", "count", ratio(saved, modes))
	res.layer("core.probe_p50_ms", "ms", median(probeMS))
	res.layer("core.probe_overlap", "1", ratio(probeNS, float64(busy)))
	res.layer("core.states_per_plan", "count", ratio(cnt(first, "dp_states_evaluated"), modes))
	res.layer("core.cuts_per_plan", "count", ratio(cnt(first, "dp_cuts_evaluated"), modes))
	res.layer("core.ns_per_state", "ns", ratio(float64(total.Phases["probe"].TotalNS), cnt(total, "dp_states_evaluated")))
	res.layer("core.ns_per_cut", "ns", ratio(float64(total.Phases["probe"].TotalNS), cnt(total, "dp_cuts_evaluated")))
	reused := cnt(total, "dp_states_val_reused") + cnt(total, "dp_states_cert_pruned")
	res.layer("core.reuse_share", "1", ratio(reused, reused+cnt(total, "dp_states_evaluated")))
	res.layer("core.table_resident_mb", "MB", float64(total.Gauges["dp_table_resident_bytes"])/1e6)
	res.layer("core.table_virtual_mb", "MB", float64(total.Gauges["dp_table_virtual_bytes"])/1e6)
	res.layer("core.table_blocks", "count", float64(total.Gauges["dp_blocked_blocks_alloc"]))
	w, c := cnt(total, "sweep_warm_leases"), cnt(total, "sweep_cold_leases")
	res.layer("core.lease_warm_ratio", "1", ratio(w, w+c))
	res.Properties["span_stats"] = spanStats(tr.Spans())
	return writeTraceFile(cfg, res, tr)
}

// checkRow verifies one grid cell: every feasible schedule passed the
// simulator with a finite positive period, and MadPipe's phase-1
// prediction is finite wherever it found a schedule.
func checkRow(row expt.Row) error {
	for name, o := range map[string]expt.Outcome{"pipedream": row.PipeDream, "madpipe": row.MadPipe, "madpipe-contig": row.MadPipeContig} {
		if !o.Feasible() {
			continue
		}
		if !o.SimOK {
			return fmt.Errorf("%s schedule (period %g) failed the simulator", name, o.Valid)
		}
		if math.IsInf(o.Predicted, 0) || !(o.Predicted > 0) {
			return fmt.Errorf("%s: feasible schedule with prediction %g", name, o.Predicted)
		}
	}
	return nil
}
