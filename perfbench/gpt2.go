package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"madpipe/internal/serve"
)

// gpt2Raw generates serve_gpt2_raw: a stream of raw GPT-2 plans, each a
// memo miss.
//
// Each plan names the gpt2 preset at granularity 8 on P = 16 with the
// 21×5×21 grid, which puts the DP table on blocked storage. The chain
// is past the column cache's 1024-layer limit and the daemon's
// 1025-layer large-chain threshold. options.parallel stays unset, so
// the daemon's -large-parallel budget applies. Memory limits lie in
// 600–3000 GB, where every plan is feasible and the search closes in one
// two-probe round. Each chain walks the band in a low-discrepancy
// sequence from a seeded offset, as serve_cnn_mix's cold cells do, so
// every run plans each chain across the whole band and the plan time,
// which depends on the limit, moves less from seed to seed.
//
// Plans alternate between two chains whose block counts the seed draws
// from 128–131 (1026–1050 layers). In that memory band the period sits
// at the lower bound TotalU/P, so a single fixed chain would give one
// period for every seed. Fixing the number of chains at two fixes how
// many warm tables the daemon's workers hold: with a fresh draw per plan
// the daemon's peak RSS varied 208–300 MB between seeds.
type gpt2Raw struct {
	blocks [2]int     // the two chains' block counts, alternating by plan
	mOff   [2]float64 // the chains' seeded memory-sequence offsets
	idx    int
}

// gpt2LargeParallel is the daemon's -large-parallel budget: both cores.
const gpt2LargeParallel = 2

// gpt2PeriodPlans is how many plans plan_period_geomean_s covers: two of
// each chain. Every run completes them.
const gpt2PeriodPlans = 4

func (g *gpt2Raw) next() *request {
	c := g.idx % 2
	blocks := g.blocks[c]
	_, frac := math.Modf(g.mOff[c] + float64(g.idx/2)*goldenFrac)
	w := wireRequest{
		Net:      &serve.NetSpec{Name: "gpt2", Batch: 8, Blocks: blocks, Granularity: 8},
		Platform: serve.PlatformSpec{Workers: 16, MemoryGB: 600 + 2400*frac, BandwidthGB: 300},
		Options:  serve.OptionsSpec{DiscTP: 21, DiscMP: 5, DiscV: 21},
	}
	b, err := json.Marshal(w)
	if err != nil {
		panic(err) // plain numbers only
	}
	// Eight op layers per block, plus the embedding and the LM head.
	r := &request{idx: g.idx, body: b, layers: 8*blocks + 2, unit: fmt.Sprintf("plan %d", g.idx)}
	g.idx++
	return r
}

func runGPT2Raw(cfg config, res *Result) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	perm := rng.Perm(4)
	g := &gpt2Raw{
		blocks: [2]int{128 + perm[0], 128 + perm[1]},
		mOff:   [2]float64{rng.Float64(), rng.Float64()},
	}
	return runServed(cfg, res, servedSpec{
		clients:    1,
		flags:      []string{"-workers", "2", "-timeout", "5m"},
		largePar:   gpt2LargeParallel,
		launches:   15,
		next:       g.next,
		unitLen:    1,
		periodReqs: gpt2PeriodPlans,
		planOnly:   true,
		collect:    true,
	})
}
