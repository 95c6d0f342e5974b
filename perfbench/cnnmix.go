package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"madpipe/internal/expt"
	"madpipe/internal/nets"
	"madpipe/internal/serve"
)

// wireRequest is serve.PlanRequest with the chain kept as pre-encoded
// JSON, so the generator does not re-marshal a profile per request on a
// host whose cores the daemon needs.
type wireRequest struct {
	Chain    json.RawMessage    `json:"chain,omitempty"`
	Net      *serve.NetSpec     `json:"net,omitempty"`
	Platform serve.PlatformSpec `json:"platform"`
	Options  serve.OptionsSpec  `json:"options,omitempty"`
}

// cnnCell is one (profile, encoding, platform) plan cell.
type cnnCell struct {
	net     string
	inline  bool
	workers int
	memGB   float64
	body    []byte
	layers  int
}

// cnnMix generates serve_cnn_mix: CNN profiles at batch 8 and image
// size 1000, planned with max_chain 24 at β = 12 GB/s. A hot set of 16
// cells on P = 2 (all four profiles in both encodings, two cells each,
// memory on the Fig. 7 ladder) is planned during set-up and re-requested
// uniformly at random; every 8–10 requests a cold resnet50 cell on
// P = 2–4 with a never-repeated memory limit in [3, 16] GB misses the
// memo and plans on the worker's warm table.
//
// Both sets are drawn evenly rather than independently: each profile's
// hot cells take one limit from each quarter of the ladder, and cold
// cells walk P and the memory range in low-discrepancy sequences with
// seeded offsets. Every seed then covers the same cell space, so
// plan_period_geomean_s, which is exact per seed, moves little between
// seeds and a small change in plan quality stands out.
//
// Each daemon worker keeps one warm dense DP table per (chain, β, grid),
// sized for the largest P it planned: 160–360 MB at P ≤ 4 on the default
// 101×11×51 grid, up to 725 MB at P = 8. Cold cells over all four
// profiles at P = 2–8 and both bandwidths held 6.4 GB resident on a
// 7 GB host, and at P ≤ 4 and one bandwidth still 2.3–3.3 GB. So cold
// cells plan one chain, and hot cells, which plan only during set-up and
// are memo hits in the window, plan on the coarse 21×5×21 grid, whose
// tables are 26 times smaller.
type cnnMix struct {
	rng     *rand.Rand
	chains  map[string]json.RawMessage
	layers  map[string]int
	hot     []*cnnCell
	idx     int
	nextCol int // index of the next cold request
	cold    int // cold cells issued so far
	// pOff and mOff are the seeded offsets of the cold cells' P and
	// memory sequences.
	pOff int
	mOff float64
}

const (
	cnnHotPerNet   = 4 // two per encoding
	cnnUnitLen     = 100
	cnnMaxP        = 4
	cnnBandwidthGB = 12
	// cnnPeriodReqs is the stream prefix plan_period_geomean_s covers:
	// the hot set and about 330 cold cells, reached in about 8 s.
	cnnPeriodReqs = 3000
	// goldenFrac is the fractional part of the golden ratio: stepping by
	// it fills [0, 1) more evenly than any other fixed step.
	goldenFrac = 0.6180339887498949
)

func newCNNMix(seed int64) (*cnnMix, error) {
	g := &cnnMix{rng: rand.New(rand.NewSource(seed)), chains: map[string]json.RawMessage{}, layers: map[string]int{}}
	for _, name := range nets.Names() {
		c, err := nets.Build(nets.PaperSpec(name))
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(c)
		if err != nil {
			return nil, err
		}
		g.chains[name], g.layers[name] = b, c.Len()
	}
	ladder := expt.PaperGrid().MemoryGB
	for _, name := range nets.Names() {
		// One limit from each quarter of the ladder, dealt to the
		// encodings in a seeded order.
		mems := make([]float64, cnnHotPerNet)
		for q := range mems {
			lo, hi := q*len(ladder)/cnnHotPerNet, (q+1)*len(ladder)/cnnHotPerNet
			mems[q] = ladder[lo+g.rng.Intn(hi-lo)]
		}
		g.rng.Shuffle(len(mems), func(i, j int) { mems[i], mems[j] = mems[j], mems[i] })
		for i, m := range mems {
			g.hot = append(g.hot, g.cell(name, i%2 == 0, true, 2, m))
		}
	}
	g.pOff, g.mOff = g.rng.Intn(cnnMaxP-1), g.rng.Float64()
	g.nextCol = 8 + g.rng.Intn(3)
	return g, nil
}

// cell builds a cell of the given profile, encoding, processor count
// and memory limit. Hot cells plan on the coarse 21×5×21 grid.
func (g *cnnMix) cell(name string, inline, hot bool, workers int, memGB float64) *cnnCell {
	c := &cnnCell{net: name, inline: inline, workers: workers, memGB: memGB, layers: g.layers[name]}
	w := wireRequest{
		Platform: serve.PlatformSpec{Workers: workers, MemoryGB: memGB, BandwidthGB: cnnBandwidthGB},
		Options:  serve.OptionsSpec{MaxChain: 24},
	}
	if hot {
		w.Options.DiscTP, w.Options.DiscMP, w.Options.DiscV = 21, 5, 21
	}
	if inline {
		w.Chain = g.chains[name]
	} else {
		w.Net = &serve.NetSpec{Name: name, Batch: 8, Size: 1000}
	}
	b, err := json.Marshal(w)
	if err != nil {
		panic(err) // only pre-validated chain JSON and numbers
	}
	c.body = b
	return c
}

func (g *cnnMix) request(c *cnnCell, hot bool) *request {
	r := &request{idx: g.idx, body: c.body, hot: hot, inline: c.inline, layers: c.layers, unit: fmt.Sprintf("block %d", g.idx/cnnUnitLen)}
	g.idx++
	return r
}

// warmup returns the set-up traffic: two cold resnet50 cells on the
// largest P, sent together so each daemon worker allocates its warm
// table at full size (later, smaller cells reuse it instead of regrowing
// it), then the hot set.
func (g *cnnMix) warmup() []*request {
	var out []*request
	for i := 0; i < 2; i++ {
		c := g.cell("resnet50", i == 0, false, cnnMaxP, 16+float64(i+1)/8)
		out = append(out, &request{body: c.body, inline: c.inline, layers: c.layers})
	}
	for _, c := range g.hot {
		out = append(out, &request{body: c.body, inline: c.inline, layers: c.layers})
	}
	for i, r := range out {
		r.idx, r.unit = -1-i, "warm-up"
	}
	return out
}

func (g *cnnMix) next() *request {
	if g.idx == g.nextCol {
		g.nextCol += 8 + g.rng.Intn(3)
		// Limits k·goldenFrac apart never repeat within a run.
		workers := 2 + (g.cold+g.pOff)%(cnnMaxP-1)
		_, frac := math.Modf(g.mOff + float64(g.cold)*goldenFrac)
		g.cold++
		c := g.cell("resnet50", g.rng.Intn(2) == 0, false, workers, 3+13*frac)
		return g.request(c, false)
	}
	return g.request(g.hot[g.rng.Intn(len(g.hot))], true)
}

func runCNNMix(cfg config, res *Result) error {
	g, err := newCNNMix(cfg.seed)
	if err != nil {
		return err
	}
	res.Properties["hot_cells"] = len(g.hot)
	return runServed(cfg, res, servedSpec{
		clients:    2,
		flags:      []string{"-workers", "2"},
		launches:   3,
		warmup:     g.warmup,
		next:       g.next,
		unitLen:    cnnUnitLen,
		periodReqs: cnnPeriodReqs,
	})
}
