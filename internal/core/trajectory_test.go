package core

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"madpipe/internal/chain"
	"madpipe/internal/obs"
	"madpipe/internal/platform"
)

// goldenTrajectoryFile holds Algorithm 1's probe trajectories on a fixed
// set of small random instances, one line per (instance, planning mode,
// probe fan): every probe's T̂ and raw DP period as exact float64 bits,
// then the final predicted and target periods. The file is a fixed
// reference: it pins the probe schedule of every fan, so a change that
// moves a single probe target by one ulp fails the test.
const goldenTrajectoryFile = "testdata/trajectories.golden"

// goldenTrajectoryCases is the number of seeded instances in the file.
const goldenTrajectoryCases = 40

// goldenInstance derives instance i: a 4-13 layer random chain on 2-5
// workers, with memory drawn from three bands so that some searches
// fold infeasible probes and some fail outright.
func goldenInstance(i int) (*chain.Chain, platform.Platform) {
	rng := rand.New(rand.NewSource(int64(1000 + i)))
	c := chain.Random(rng, 4+rng.Intn(10), chain.DefaultRandomOptions())
	var mem float64
	switch i % 3 {
	case 0:
		mem = 3e9 + rng.Float64()*4e9
	case 1:
		mem = 4e9 + rng.Float64()*6e9
	default:
		mem = 10e9 + rng.Float64()*30e9
	}
	pl := plat(2+rng.Intn(4), mem, 12e9)
	if i%2 == 1 {
		pl.Latency = rng.Float64() * 1e-4
	}
	return c, pl
}

// goldenTrajectoryLine plans one instance at a worker budget and renders
// the search as a golden line, labelled with the budget's probe fan.
func goldenTrajectoryLine(i int, disableSpecial bool, parallel int) string {
	c, pl := goldenInstance(i)
	opts := Options{Parallel: parallel, DisableSpecial: disableSpecial, Disc: Discretization{TP: 15, MP: 5, V: 15}}
	mode := "special"
	if disableSpecial {
		mode = "contig"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "case=%d mode=%s fan=%d", i, mode, min(parallel, 4))
	res, err := PlanAllocation(c, pl, opts)
	if err != nil {
		fmt.Fprintf(&b, " infeasible")
		return b.String()
	}
	fmt.Fprintf(&b, " pred=%016x tgt=%016x probes=", math.Float64bits(res.PredictedPeriod), math.Float64bits(res.TargetPeriod))
	for j, ev := range res.Evals {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%016x:%016x", math.Float64bits(ev.That), math.Float64bits(ev.Raw))
	}
	return b.String()
}

// TestPlanTrajectoriesGolden replays the golden file: at every probe fan
// 1-4 the search must reproduce each probe target, raw period and final
// result bit-for-bit, in both planning modes. Fan 1 is the paper's
// bisection (first probe at lb, then (lb+ub)/2 midpoints); fans 2-4 are
// the bracket-round schedule of bracketCandidates. Budgets 8 and 16 cap
// the fan at 4, so they must replay the fan-4 lines exactly.
func TestPlanTrajectoriesGolden(t *testing.T) {
	f, err := os.Open(goldenTrajectoryFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		want[strings.Join(fields[:3], " ")] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n := goldenTrajectoryCases * 2 * 4; len(want) != n {
		t.Fatalf("golden file holds %d lines, want %d", len(want), n)
	}
	infeasible, failedProbe := 0, 0
	for i := 0; i < goldenTrajectoryCases; i++ {
		for _, disable := range []bool{false, true} {
			for _, par := range []int{1, 2, 3, 4, 8, 16} {
				got := goldenTrajectoryLine(i, disable, par)
				key := strings.Join(strings.Fields(got)[:3], " ")
				w, ok := want[key]
				if !ok {
					t.Fatalf("no golden line for %q", key)
				}
				if got != w {
					t.Fatalf("parallel %d diverged from the golden trajectory:\n got: %s\nwant: %s", par, got, w)
				}
				if par == 1 {
					if strings.HasSuffix(got, " infeasible") {
						infeasible++
					} else if strings.Contains(got, ":7ff0000000000000") {
						failedProbe++
					}
				}
			}
		}
	}
	// The instance mix must keep exercising infeasible folds and whole
	// failed searches, or the file stops pinning those paths.
	if infeasible == 0 || failedProbe == 0 {
		t.Fatalf("instance mix lost coverage: %d failed searches, %d searches with infeasible probes", infeasible, failedProbe)
	}
}

// TestTrajectoryProbesMatchMapDP covers the branch and bound's reopen
// path (solve, childValue), which tiny random instances rarely reach:
// every goldenInstance is re-run at each probe target of its Algorithm 1
// trajectory, at probe fans 1-4 and in both planning modes, once on a
// fresh table per probe and once in trajectory order on one
// certificate-armed table. Each run must match the map reference, which
// mirrors the cutoffs, in period and allocation, and in States wherever
// the table plans the unclamped normal count and no death certificate
// settled a state. The summed StatesReopened must be positive, or the
// instances stopped exercising reopens.
func TestTrajectoryProbesMatchMapDP(t *testing.T) {
	disc := Discretization{TP: 15, MP: 5, V: 15}
	var reopened, bounded uint64
	for i := 0; i < goldenTrajectoryCases; i++ {
		c, pl := goldenInstance(i)
		for _, disable := range []bool{false, true} {
			normals := pl.Workers - 1
			if disable {
				normals = pl.Workers
			}
			cfg := dpConfig{disc: disc, disableSpecial: disable, obs: obs.NewRegistry()}
			for par := 1; par <= 4; par++ {
				res, err := PlanAllocation(c, pl, Options{Parallel: par, DisableSpecial: disable, Disc: disc})
				if err != nil && !errors.Is(err, platform.ErrInfeasible) {
					t.Fatalf("case %d: plan: %v", i, err)
				}
				var thats []float64
				if res != nil {
					for _, ev := range res.Evals {
						thats = append(thats, ev.That)
					}
				} else {
					// A failed search returns no trajectory; probe its
					// bracket's lower bound and a few multiples instead.
					lb := c.TotalU() / float64(pl.Workers)
					thats = []float64{4 * lb, 2 * lb, lb}
				}
				armed := new(dpTable)
				armed.certArm(pl.Memory)
				for j, that := range thats {
					want, err := runDPMap(c, pl, that, disc, disable, chain.WeightPolicy{})
					if err != nil {
						t.Fatalf("case %d probe %d: map DP: %v", i, j, err)
					}
					for _, armedRun := range []bool{false, true} {
						tab := armed
						if !armedRun {
							tab = new(dpTable)
						}
						label := fmt.Sprintf("case %d special=%v fan %d probe %d (T̂ %x) armed=%v",
							i, !disable, par, j, math.Float64bits(that), armedRun)
						got, err := runDPWith(tab, c, pl, that, cfg)
						if err != nil {
							t.Fatalf("%s: table DP: %v", label, err)
						}
						sameDP(t, label, got, want)
						if normals <= c.Len() && got.Stats.StatesCertPruned == 0 && got.States != want.States {
							t.Fatalf("%s: table DP %d states, map DP %d", label, got.States, want.States)
						}
						reopened += got.Stats.StatesReopened
						bounded += got.Stats.StatesBounded
					}
				}
			}
		}
	}
	if reopened == 0 {
		t.Fatalf("no probe reopened a bound entry (%d bound closes)", bounded)
	}
	t.Logf("%d bound closes, %d reopens", bounded, reopened)
}
