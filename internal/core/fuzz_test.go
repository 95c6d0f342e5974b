package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"madpipe/internal/chain"
)

// Fuzz instances are tiny: at most fuzzMaxLayers layers, fuzzMaxP
// processors and 2–4 points on each grid axis, so the map DP answers
// every input in microseconds.
const (
	fuzzMaxLayers = 8
	fuzzMaxP      = 4
)

// encodeFuzzCase is decodeFuzzCase's inverse for instances inside the
// fuzz bounds. The layout is six header bytes — layers−1, P−1, the t_P,
// m_P and V grid sizes less 2, and a flags byte whose bit 0 selects the
// contiguous ablation — followed by little-endian float64s: the input
// activation, UF, UB, W and A of every layer, then the memory limit,
// bandwidth, latency and target period.
func encodeFuzzCase(tc oracleCase) []byte {
	var flags byte
	if tc.disableSpecial {
		flags = 1
	}
	b := []byte{byte(tc.c.Len() - 1), byte(tc.pl.Workers - 1), byte(tc.disc.TP - 2), byte(tc.disc.MP - 2), byte(tc.disc.V - 2), flags}
	put := func(v float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	put(tc.c.A(0))
	for _, l := range tc.c.Layers() {
		put(l.UF)
		put(l.UB)
		put(l.W)
		put(l.A)
	}
	put(tc.pl.Memory)
	put(tc.pl.Bandwidth)
	put(tc.pl.Latency)
	put(tc.that)
	return b
}

// decodeFuzzCase turns fuzz bytes into a DP instance, reporting false
// for inputs that are too short. A value outside the range a profiled
// chain or platform can have is folded into it rather than rejected, so
// mutations of a seed's sign and exponent bytes still yield instances;
// values inside their ranges (every seed's) decode unchanged.
func decodeFuzzCase(data []byte) (oracleCase, bool) {
	if len(data) < 6 {
		return oracleCase{}, false
	}
	n := 1 + int(data[0])%fuzzMaxLayers
	p := 1 + int(data[1])%fuzzMaxP
	disc := Discretization{TP: 2 + int(data[2])%3, MP: 2 + int(data[3])%3, V: 2 + int(data[4])%3}
	disableSpecial := data[5]&1 != 0
	data = data[6:]
	ok := true
	next := func(lo, hi float64) float64 {
		if len(data) < 8 {
			ok = false
			return 0
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		switch {
		case v >= lo && v <= hi:
			return v
		case math.IsNaN(v) || math.IsInf(v, 0):
			return lo
		}
		return lo + math.Mod(math.Abs(v), hi-lo)
	}
	input := next(1, 1e12)
	layers := make([]chain.Layer, n)
	for i := range layers {
		layers[i] = chain.Layer{UF: next(1e-6, 1e3), UB: next(1e-6, 1e3), W: next(1, 1e12), A: next(1, 1e12)}
	}
	pl := plat(p, next(1, 1e16), next(1e3, 1e13))
	pl.Latency = next(0, 1)
	that := next(1e-6, 1e6)
	if !ok {
		return oracleCase{}, false
	}
	c, err := chain.New("fuzz", input, layers)
	if err != nil {
		return oracleCase{}, false
	}
	return oracleCase{c: c, pl: pl, disc: disc, disableSpecial: disableSpecial, that: that}, true
}

// sameDP fails unless the table DP's result equals the map DP's
// bit-for-bit: period, feasibility, spans and processors.
func sameDP(t *testing.T, label string, got, want *DPResult) {
	t.Helper()
	if got.Period != want.Period || (got.Alloc == nil) != (want.Alloc == nil) {
		t.Fatalf("%s: table DP period %v (alloc %v), map DP %v (alloc %v)",
			label, got.Period, got.Alloc != nil, want.Period, want.Alloc != nil)
	}
	if got.Alloc == nil {
		return
	}
	if len(got.Alloc.Spans) != len(want.Alloc.Spans) {
		t.Fatalf("%s: table DP %d stages, map DP %d", label, len(got.Alloc.Spans), len(want.Alloc.Spans))
	}
	for i := range want.Alloc.Spans {
		if got.Alloc.Spans[i] != want.Alloc.Spans[i] || got.Alloc.Procs[i] != want.Alloc.Procs[i] {
			t.Fatalf("%s: stage %d: table DP %v@%d, map DP %v@%d", label, i,
				got.Alloc.Spans[i], got.Alloc.Procs[i], want.Alloc.Spans[i], want.Alloc.Procs[i])
		}
	}
}

// FuzzTableMatchesMapDP requires the production DP (runDPWith on the
// blocked table) and the map reference to agree bit-for-bit on tiny
// instances: once on a fresh table, and at three descending targets on
// one certificate-armed table, where death certificates recorded at a
// higher target settle states at the lower ones. Up to four processors
// on chains of one layer and up, so the table's clamp of normal
// processors to the chain length meets the unclamped reference too. The
// seeds are the first TestExhaustiveOracle instances that fit the fuzz
// bounds, so plain `go test` runs them.
func FuzzTableMatchesMapDP(f *testing.F) {
	rng := rand.New(rand.NewSource(19)) // TestExhaustiveOracle's stream
	for seeds := 0; seeds < 8; {
		tc := randomOracleCase(rng)
		if tc.c.Len() > fuzzMaxLayers || tc.pl.Workers > fuzzMaxP ||
			tc.disc.TP > 4 || tc.disc.MP > 4 || tc.disc.V > 4 {
			continue
		}
		b := encodeFuzzCase(tc)
		if dec, ok := decodeFuzzCase(b); !ok || !bytes.Equal(encodeFuzzCase(dec), b) {
			f.Fatalf("seed %d does not round-trip", seeds)
		}
		f.Add(b)
		seeds++
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tc, ok := decodeFuzzCase(data)
		if !ok {
			return
		}
		cfg := dpConfig{disc: tc.disc, disableSpecial: tc.disableSpecial}
		check := func(label string, tab *dpTable, that float64) {
			t.Helper()
			got, err := runDPWith(tab, tc.c, tc.pl, that, cfg)
			if err != nil {
				t.Fatalf("%s: table DP: %v", label, err)
			}
			want, err := runDPMap(tc.c, tc.pl, that, tc.disc, tc.disableSpecial, chain.WeightPolicy{})
			if err != nil {
				t.Fatalf("%s: map DP: %v", label, err)
			}
			sameDP(t, label, got, want)
		}
		check("fresh table", new(dpTable), tc.that)
		armed := new(dpTable)
		armed.certArm(tc.pl.Memory)
		for i, scale := range []float64{1.5, 1, 0.6} {
			check(fmt.Sprintf("armed probe %d", i), armed, tc.that*scale)
		}
	})
}
