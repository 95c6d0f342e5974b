package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"madpipe/internal/chain"
	"madpipe/internal/obs"
)

// TestStatsCollectionPopulated sanity-checks that an observed run
// actually fills the decomposition: states are tabulated, cuts are
// visited, columns are opened and the registry's cumulative counters
// receive the flush.
func TestStatsCollectionPopulated(t *testing.T) {
	c := chain.Uniform(12, 1e-3, 2e-3, 1e6, 1e6)
	pl := plat(4, 1e12, 1e12)
	reg := obs.NewRegistry()
	res, err := runDPWith(new(dpTable), c, pl, c.TotalU()/4, dpConfig{
		disc: Discretization{TP: 3, MP: 3, V: 5}, obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.StatesEvaluated == 0 || st.StatesEvaluated != uint64(res.States) {
		t.Errorf("StatesEvaluated = %d, res.States = %d", st.StatesEvaluated, res.States)
	}
	if st.CutsEvaluated == 0 || st.ColumnsOpened == 0 || st.GmaxComputed == 0 {
		t.Errorf("decomposition has empty components: %+v", st)
	}
	snap := reg.Snapshot()
	if snap.Counters["dp_runs"] != 1 {
		t.Errorf("dp_runs = %d, want 1", snap.Counters["dp_runs"])
	}
	if snap.Counters["dp_states_evaluated"] != st.StatesEvaluated {
		t.Errorf("registry flush lost states: %d vs %d",
			snap.Counters["dp_states_evaluated"], st.StatesEvaluated)
	}
	if snap.Gauges["dp_states_max"] != st.StatesEvaluated {
		t.Errorf("dp_states_max gauge = %d", snap.Gauges["dp_states_max"])
	}
}

// TestObsOnOffIdenticalPlan pins the other half of the zero-overhead
// contract: attaching a registry must not change a single planner output
// bit — same probes, same raw values, same allocation — on both the
// sequential and the parallel paths.
func TestObsOnOffIdenticalPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		c := chain.Random(rng, 5+rng.Intn(8), chain.DefaultRandomOptions())
		pl := plat(4, 3e9+rng.Float64()*8e9, 12e9)
		for _, par := range []int{1, 8} {
			off, errOff := PlanAllocation(c, pl, Options{Parallel: par})
			on, errOn := PlanAllocation(c, pl, Options{Parallel: par, Obs: obs.NewRegistry()})
			if (errOff != nil) != (errOn != nil) {
				t.Fatalf("trial %d parallel %d: feasibility changed with obs: %v vs %v",
					trial, par, errOff, errOn)
			}
			if errOff != nil {
				continue
			}
			if on.PredictedPeriod != off.PredictedPeriod || on.TargetPeriod != off.TargetPeriod {
				t.Fatalf("trial %d parallel %d: (%g, %g) with obs vs (%g, %g) without",
					trial, par, on.PredictedPeriod, on.TargetPeriod, off.PredictedPeriod, off.TargetPeriod)
			}
			if len(on.Evals) != len(off.Evals) {
				t.Fatalf("trial %d parallel %d: probe count changed: %d vs %d",
					trial, par, len(on.Evals), len(off.Evals))
			}
			for i := range on.Evals {
				if on.Evals[i].That != off.Evals[i].That || on.Evals[i].Raw != off.Evals[i].Raw {
					t.Fatalf("trial %d parallel %d probe %d: (T̂=%g raw %g) vs (T̂=%g raw %g)",
						trial, par, i, on.Evals[i].That, on.Evals[i].Raw, off.Evals[i].That, off.Evals[i].Raw)
				}
			}
			for i := range on.Alloc.Spans {
				if on.Alloc.Spans[i] != off.Alloc.Spans[i] || on.Alloc.Procs[i] != off.Alloc.Procs[i] {
					t.Fatalf("trial %d parallel %d: allocation differs at stage %d", trial, par, i)
				}
			}
		}
	}
}

// TestEvalTimelinePopulated checks the probe timeline that feeds the
// Perfetto planner lanes: with obs attached every Eval carries a slot, a
// start offset, a duration and bracket bounds, and slots stay within the
// probe fan.
func TestEvalTimelinePopulated(t *testing.T) {
	c := chain.Uniform(10, 1e-3, 2e-3, 1e6, 1e6)
	pl := plat(4, 1e12, 1e12)
	res, err := PlanAllocation(c, pl, Options{Parallel: 8, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	fan := probeFan(8)
	for i, ev := range res.Evals {
		if ev.DurNS <= 0 {
			t.Errorf("probe %d: no duration recorded", i)
		}
		if ev.StartNS < 0 {
			t.Errorf("probe %d: negative start %d", i, ev.StartNS)
		}
		if ev.Slot < 0 || ev.Slot >= fan {
			t.Errorf("probe %d: slot %d outside fan %d", i, ev.Slot, fan)
		}
		if ev.LB <= 0 {
			t.Errorf("probe %d: lb %g not recorded", i, ev.LB)
		}
	}
}

// TestPlanReportRoundTrip exercises the full report path: build from a
// planner run (tight memory so infeasible probes appear and the +Inf
// JSON encoding hazard is on the table), attach the registry, write JSON
// and read it back.
func TestPlanReportRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var rep *PlanReport
	var reg *obs.Registry
	for trial := 0; trial < 20 && rep == nil; trial++ {
		c := chain.Random(rng, 8, chain.DefaultRandomOptions())
		pl := plat(4, 2e9+rng.Float64()*2e9, 12e9)
		reg = obs.NewRegistry()
		opts := Options{Parallel: 2, Obs: reg}
		p1, err := PlanAllocation(c, pl, opts)
		if err != nil {
			continue
		}
		rep = NewPlanReport(c, pl, opts, p1)
	}
	if rep == nil {
		t.Fatal("no feasible instance in 20 trials")
	}
	rep.AttachObs(reg)

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back PlanReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Version != PlannerVersion {
		t.Errorf("version = %q, want %q", back.Version, PlannerVersion)
	}
	if back.PredictedPeriod != rep.PredictedPeriod || back.TargetPeriod != rep.TargetPeriod {
		t.Errorf("periods drifted through JSON: %+v", back)
	}
	if len(back.Probes) != len(rep.Probes) || len(back.Probes) == 0 {
		t.Fatalf("probes = %d, want %d (nonzero)", len(back.Probes), len(rep.Probes))
	}
	for i, p := range back.Probes {
		if !p.Feasible && (p.Raw != 0 || p.Effective != 0) {
			t.Errorf("probe %d: infeasible but Raw/Effective nonzero (inf leak?): %+v", i, p)
		}
		if p.Feasible && p.Raw <= 0 {
			t.Errorf("probe %d: feasible with raw %g", i, p.Raw)
		}
	}
	if back.Obs == nil || back.Obs.Counters["dp_runs"] == 0 {
		t.Error("attached registry snapshot missing from the round-tripped report")
	}
	if !back.Options.Observed {
		t.Error("report does not record that observability was on")
	}

	total := rep.TotalStats()
	var sum uint64
	for _, p := range rep.Probes {
		sum += p.Stats.StatesEvaluated
	}
	if total.StatesEvaluated != sum {
		t.Errorf("TotalStats states = %d, probe sum = %d", total.StatesEvaluated, sum)
	}
}

// TestDPStatsAdd pins the fold semantics: add sums counters and maxes
// the table high-water marks.
func TestDPStatsAdd(t *testing.T) {
	a := DPStats{StatesEvaluated: 5, TableResidentBytes: 9, CutsEvaluated: 3, MemPins: 1}
	b := DPStats{StatesEvaluated: 7, TableResidentBytes: 4, CutsEvaluated: 2, MemPins: 6}
	a.add(&b)
	if a.StatesEvaluated != 12 || a.TableResidentBytes != 9 || a.CutsEvaluated != 5 || a.MemPins != 7 {
		t.Errorf("add: %+v", a)
	}
}
