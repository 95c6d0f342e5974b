// Package obs is the planner's observability core: a registry of named
// monotonic counters, high-water gauges and phase timers, all built on
// atomics so any number of goroutines — concurrent Algorithm 1 probes,
// sweep workers, serving workers — can record into one registry without
// locks on the hot path.
//
// # Zero overhead when disabled
//
// Everything in this package is nil-safe: methods on a nil *Registry,
// *Counter, *Gauge or *Phase are no-ops that cost one pointer check and
// perform no allocation. Instrumented code therefore holds a possibly-nil
// handle and calls through it unconditionally; when observability is off
// (core.Options.Obs == nil) the instrumented hot paths execute the exact
// same allocation-free machine code as before, plus a predicted-not-taken
// branch. The repository's zero-overhead guard test pins this down
// against the committed benchmark snapshots.
//
// # Exposition
//
// A Registry exposes its contents three ways: Snapshot (a plain struct
// for JSON reports), WritePrometheus (the dependency-free Prometheus
// text exposition served at /metrics), and Publish (an expvar.Func so
// /debug/vars carries the same numbers). NewMux bundles all of them with
// net/http/pprof for the -listen mode of cmd/madpipe and
// cmd/experiments.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; a nil Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil || n == 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a high-water mark: Observe keeps the maximum value seen.
// A nil Gauge is a no-op.
type Gauge struct {
	v atomic.Uint64
}

// Observe raises the gauge to n if n exceeds the current maximum.
// Safe on a nil receiver and under concurrent observers.
func (g *Gauge) Observe(n uint64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the high-water mark (0 on a nil receiver).
func (g *Gauge) Value() uint64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Phase accumulates wall-clock time and invocation counts for one named
// planner phase (the planner records every Algorithm 1 probe under
// "probe", the pprof label its probes run under). A nil Phase is a
// no-op.
type Phase struct {
	ns atomic.Int64
	n  atomic.Uint64
}

// Add records one completed invocation of duration d. Safe on a nil
// receiver.
func (p *Phase) Add(d time.Duration) {
	if p == nil {
		return
	}
	p.ns.Add(int64(d))
	p.n.Add(1)
}

// Time runs f and records its wall-clock duration. Safe on a nil
// receiver (f still runs).
func (p *Phase) Time(f func()) {
	if p == nil {
		f()
		return
	}
	start := time.Now()
	f()
	p.Add(time.Since(start))
}

// Total returns the accumulated duration (0 on a nil receiver).
func (p *Phase) Total() time.Duration {
	if p == nil {
		return 0
	}
	return time.Duration(p.ns.Load())
}

// Count returns the number of recorded invocations (0 on a nil
// receiver).
func (p *Phase) Count() uint64 {
	if p == nil {
		return 0
	}
	return p.n.Load()
}

// Registry is a named collection of counters, gauges and phases.
// Handle lookup (Counter/Gauge/Phase) takes a mutex and may allocate on
// first use of a name; recording through a handle is lock-free. Callers
// on hot paths should look handles up once and hold them.
//
// The zero value is NOT ready to use — call NewRegistry. A nil *Registry
// is fully usable and turns every method into a no-op, which is how the
// planner runs with observability disabled.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	phases   map[string]*Phase
	hists    map[string]*Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		phases:   make(map[string]*Phase),
		hists:    make(map[string]*Hist),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	r.mu.Unlock()
	return c
}

// Gauge returns the named high-water gauge, creating it on first use.
// Returns nil (a no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	r.mu.Unlock()
	return g
}

// Phase returns the named phase timer, creating it on first use.
// Returns nil (a no-op phase) on a nil registry.
func (r *Registry) Phase(name string) *Phase {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	p, ok := r.phases[name]
	if !ok {
		p = new(Phase)
		r.phases[name] = p
	}
	r.mu.Unlock()
	return p
}

// Hist returns the named histogram, creating it on first use. Returns
// nil (a no-op histogram) on a nil registry.
func (r *Registry) Hist(name string) *Hist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	h, ok := r.hists[name]
	if !ok {
		h = new(Hist)
		r.hists[name] = h
	}
	r.mu.Unlock()
	return h
}

// PhaseSnapshot is one phase's totals in a Snapshot.
type PhaseSnapshot struct {
	Count   uint64 `json:"count"`
	TotalNS int64  `json:"total_ns"`
}

// Snapshot is a point-in-time copy of a registry, shaped for JSON
// embedding (PlanReport, expvar). Maps are fresh copies; mutating a
// snapshot never touches the registry.
type Snapshot struct {
	Counters map[string]uint64        `json:"counters,omitempty"`
	Gauges   map[string]uint64        `json:"gauges,omitempty"`
	Phases   map[string]PhaseSnapshot `json:"phases,omitempty"`
	Hists    map[string]HistSnapshot  `json:"hists,omitempty"`
}

// Snapshot captures the registry's current values. Safe on a nil
// registry (returns the zero Snapshot). Values recorded concurrently
// with the snapshot may or may not be included; each individual value is
// read atomically.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]uint64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.phases) > 0 {
		s.Phases = make(map[string]PhaseSnapshot, len(r.phases))
		for name, p := range r.phases {
			s.Phases[name] = PhaseSnapshot{Count: p.Count(), TotalNS: int64(p.Total())}
		}
	}
	if len(r.hists) > 0 {
		s.Hists = make(map[string]HistSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Hists[name] = h.Snapshot()
		}
	}
	return s
}

// Delta returns the change from prev to s: counters, phase totals and
// histogram buckets are subtracted entry-wise (entries absent from prev
// count from zero, and anything that went backwards — a restarted
// process — clamps to zero rather than underflowing). Gauges are
// high-water marks with no meaningful difference, so a gauge that rose
// keeps s's value — "the new high-water mark set in this window" — and
// one that did not move is dropped like every other unchanged entry. A
// Delta is exactly "what happened between two scrapes" — the shape load
// generators need to report a memo hit rate or a per-phase latency
// attribution for one measurement window without parsing Prometheus
// text: scrape /v1/stats twice, decode both into Snapshot, diff.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	var d Snapshot
	for name, cur := range s.Counters {
		if base := prev.Counters[name]; cur > base {
			if d.Counters == nil {
				d.Counters = make(map[string]uint64)
			}
			d.Counters[name] = cur - base
		}
	}
	for name, cur := range s.Gauges {
		if cur > prev.Gauges[name] {
			if d.Gauges == nil {
				d.Gauges = make(map[string]uint64)
			}
			d.Gauges[name] = cur
		}
	}
	for name, cur := range s.Hists {
		diff := cur.Delta(prev.Hists[name])
		if diff.Count == 0 {
			continue
		}
		if d.Hists == nil {
			d.Hists = make(map[string]HistSnapshot)
		}
		d.Hists[name] = diff
	}
	for name, cur := range s.Phases {
		base := prev.Phases[name]
		if cur.Count <= base.Count && cur.TotalNS <= base.TotalNS {
			continue
		}
		if d.Phases == nil {
			d.Phases = make(map[string]PhaseSnapshot)
		}
		p := PhaseSnapshot{}
		if cur.Count > base.Count {
			p.Count = cur.Count - base.Count
		}
		if cur.TotalNS > base.TotalNS {
			p.TotalNS = cur.TotalNS - base.TotalNS
		}
		d.Phases[name] = p
	}
	return d
}

// sortedKeys returns the map's keys in lexical order, for deterministic
// exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
