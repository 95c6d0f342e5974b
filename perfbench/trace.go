package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// a public function of the program. Spans of one request share Req;
// Parent is the enclosing span's ID (0 for a root).
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, which is how untraced runs use the same code.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Reserve allocates a span ID before the span's end is known, so
// children recorded first can name it as their parent.
func (t *Tracer) Reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{})
	return len(t.spans)
}

// Finish records the span reserved as id.
func (t *Tracer) Finish(id, parent int, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = Span{ID: id, Parent: parent, Req: req, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()}
}

// Record stores a finished span that has no children yet.
func (t *Tracer) Record(parent int, req int64, name string, start, end time.Time) int {
	id := t.Reserve()
	t.Finish(id, parent, req, name, start, end)
	return id
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.ID != 0 { // a reserved span whose call failed
			out = append(out, s)
		}
	}
	return out
}

// writeTraceFile writes a traced run's spans as JSON beside its result.
func writeTraceFile(cfg config, res *Result, t *Tracer) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-spans-%s.json", res.Workload, res.Seed, res.Started.Format("20060102T150405.000")))
	return os.WriteFile(path, b, 0o644)
}

// SpanStat summarizes every span of one name: how many, their median
// duration, and total and self time, where self time is a span's
// duration minus the part of it its children cover.
type SpanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	P50MS   float64 `json:"p50_ms"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func spanStats(spans []Span) []SpanStat {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type acc struct {
		durs        []float64
		total, self float64
	}
	by := map[string]*acc{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		d := float64(s.EndNS - s.StartNS)
		a.durs = append(a.durs, d)
		a.total += d
		a.self += d - covered(s, children[s.ID])
	}
	out := make([]SpanStat, 0, len(by))
	for name, a := range by {
		out = append(out, SpanStat{Name: name, Count: len(a.durs), P50MS: ms(median(a.durs)), TotalMS: ms(a.total), SelfMS: ms(a.self)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to the parent's; concurrent children (parallel probes) are
// counted once.
func covered(p Span, kids []Span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, p.StartNS), min(k.EndNS, p.EndNS)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	total += curHi - curLo
	return float64(total)
}
