package madpipe

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"madpipe/internal/expt"
	"madpipe/internal/nets"
	"madpipe/internal/obs"
	"madpipe/internal/serve"
)

// The ServeLoad benchmarks measure the madpiped serving layer end to
// end — HTTP decode, fingerprint, memo, single-flight, worker pool,
// planner — under the deterministic expt.ServingMix request stream at
// 1, 8 and 64 concurrent clients. Each iteration serves the whole mix
// against a fresh server, so hits/op and misses/op are exact functions
// of the mix (gated by scripts/verify.sh at c=1, where no concurrent
// first contacts can split a miss across requests); plans/sec and the
// latency quantiles are the advisory throughput headline.
//
// BenchmarkServeMemoHit and BenchmarkServeMemoCold isolate the two
// serving paths — a memoized response vs a full plan — whose ns/op
// ratio in the committed snapshot documents the memo's speedup.

const serveMixLen = 96

func serveLoad(b *testing.B, clients int) {
	mix, err := expt.ServingMix("resnet50", serveMixLen, 8)
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, len(mix))
	for i, r := range mix {
		if bodies[i], err = json.Marshal(r); err != nil {
			b.Fatal(err)
		}
	}
	transport := &http.Transport{MaxIdleConnsPerHost: clients}
	client := &http.Client{Transport: transport, Timeout: 2 * time.Minute}
	defer transport.CloseIdleConnections()

	// serveMix serves the whole mix against a fresh server, calls record
	// for every answered request and returns the wall time the clients
	// took.
	serveMix := func(record func(d time.Duration, hit bool)) time.Duration {
		srv := serve.NewServer(serve.Config{Workers: 4, QueueDepth: 2 * serveMixLen})
		hs := httptest.NewServer(srv.Mux())
		var next atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		wg.Add(clients)
		for w := 0; w < clients; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(bodies) {
						return
					}
					t0 := time.Now()
					resp, err := client.Post(hs.URL+"/v1/plan", "application/json", bytes.NewReader(bodies[i]))
					if err != nil {
						b.Error(err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					d := time.Since(t0)
					if resp.StatusCode != http.StatusOK {
						b.Errorf("request %d: status %d", i, resp.StatusCode)
						return
					}
					record(d, resp.Header.Get(serve.HeaderMemo) == "hit")
				}
			}()
		}
		wg.Wait()
		took := time.Since(start)
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
		return took
	}

	// Untimed warm-up on a throw-away server, so allocs/op and B/op do
	// not record whether sync.Pool still held DP tables (see
	// BenchmarkMadPipeDP). Each timed iteration still starts from a fresh
	// memo, so hits/op and misses/op are unchanged.
	serveMix(func(time.Duration, bool) {})

	var hits, misses, served uint64
	var elapsed time.Duration
	var lats []time.Duration
	var missLats, hitLats []time.Duration
	var mu sync.Mutex
	record := func(d time.Duration, hit bool) {
		mu.Lock()
		defer mu.Unlock()
		served++
		lats = append(lats, d)
		if hit {
			hits++
			hitLats = append(hitLats, d)
		} else {
			misses++
			missLats = append(missLats, d)
		}
	}

	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		elapsed += serveMix(record)
	}
	b.StopTimer()
	if b.Failed() || served == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	b.ReportMetric(float64(served)/elapsed.Seconds(), "plans/s")
	b.ReportMetric(lats[len(lats)/2].Seconds()*1e3, "p50-ms")
	b.ReportMetric(lats[len(lats)*99/100].Seconds()*1e3, "p99-ms")
	b.ReportMetric(float64(hits)/float64(served), "hitrate")
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	b.ReportMetric(float64(misses)/float64(b.N), "misses/op")
	if len(hitLats) > 0 && len(missLats) > 0 {
		sort.Slice(hitLats, func(i, j int) bool { return hitLats[i] < hitLats[j] })
		sort.Slice(missLats, func(i, j int) bool { return missLats[i] < missLats[j] })
		b.ReportMetric(missLats[len(missLats)/2].Seconds()/hitLats[len(hitLats)/2].Seconds(), "hitspeedup-x")
	}
}

func BenchmarkServeLoad1(b *testing.B)  { serveLoad(b, 1) }
func BenchmarkServeLoad8(b *testing.B)  { serveLoad(b, 8) }
func BenchmarkServeLoad64(b *testing.B) { serveLoad(b, 64) }

// BenchmarkGPTRawServe serves the raw (uncoarsened) GPT-2 mix end to
// end: 2050-layer op-granularity requests whose probes run on blocked
// DP tables, with options.parallel unset so the daemon's LargeParallel
// default lifts them to the concurrent probe fan — the full
// blocked-table serving path. The mix is tiny (raw misses cost
// tens of seconds each, not milliseconds — the name deliberately avoids
// the BenchmarkServeLoad prefix so `make bench` does not sweep it in)
// and the split stays exact: 3 misses and 1 hit per op. The run also
// asserts the daemon surfaced the dp_blocked_* economics gauges, which
// only a blocked-table plan can set.
func BenchmarkGPTRawServe(b *testing.B) {
	mix, err := expt.ServingMixRaw("gpt2", 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, len(mix))
	for i, r := range mix {
		if bodies[i], err = json.Marshal(r); err != nil {
			b.Fatal(err)
		}
	}
	client := &http.Client{Timeout: 10 * time.Minute}
	var hits, misses uint64
	b.ResetTimer()
	for iter := 0; iter < b.N; iter++ {
		reg := obs.NewRegistry()
		srv := serve.NewServer(serve.Config{
			Workers:       2,
			LargeParallel: 4, // probe fan 4
			Timeout:       10 * time.Minute,
			Registry:      reg,
		})
		hs := httptest.NewServer(srv.Mux())
		for i, body := range bodies {
			resp, err := client.Post(hs.URL+"/v1/plan", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("request %d: status %d", i, resp.StatusCode)
			}
			if resp.Header.Get(serve.HeaderMemo) == "hit" {
				hits++
			} else {
				misses++
			}
		}
		snap := reg.Snapshot()
		if snap.Gauges["dp_blocked_blocks_alloc"] == 0 {
			b.Fatal("dp_blocked_blocks_alloc gauge not set: raw plans did not reach blocked tables")
		}
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
		cancel()
	}
	b.StopTimer()
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
	b.ReportMetric(float64(misses)/float64(b.N), "misses/op")
}

// serveMemoBench times one /v1/plan round trip per op. With repeat=true
// every op re-sends one pinned request against a pre-warmed server (a
// pure memo hit); with repeat=false every op sends a never-seen cell (a
// full cold plan). The committed ns/op pair is the memo's speedup
// evidence. With inline=true the request carries the resnet50 profile
// as an inline chain instead of naming it.
func serveMemoBench(b *testing.B, repeat, inline bool) {
	srv := serve.NewServer(serve.Config{Workers: 1})
	hs := httptest.NewServer(srv.Mux())
	defer func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	mix, err := expt.ServingMix("resnet50", 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	post := func(body []byte) string {
		resp, err := http.Post(hs.URL+"/v1/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		return resp.Header.Get(serve.HeaderMemo)
	}
	if inline {
		c, err := nets.Build(nets.Spec{Name: mix[0].Net.Name, Batch: mix[0].Net.Batch, Size: mix[0].Net.Size})
		if err != nil {
			b.Fatal(err)
		}
		mix[0].Chain, mix[0].Net = c, nil
	}
	render := func(memGB float64) []byte {
		r := mix[0]
		r.Platform.MemoryGB = memGB
		body, err := json.Marshal(r)
		if err != nil {
			b.Fatal(err)
		}
		return body
	}
	if repeat {
		warm := render(10)
		post(warm) // populate the memo
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if memo := post(warm); memo != "hit" {
				b.Fatalf("iteration %d: memo=%q, want hit", i, memo)
			}
		}
		return
	}
	// Unique memory limit per op: every request fingerprints fresh. The
	// bodies render outside the timed loop so both benchmarks time the
	// same client work. One untimed miss at a limit the loop never uses
	// leaves the worker's tables warm, so allocs/op measures the steady
	// state, not a fresh table's blocks (see BenchmarkMadPipeDP).
	bodies := make([][]byte, b.N)
	for i := range bodies {
		bodies[i] = render(9 + 1e-6*float64(i+1))
	}
	if memo := post(render(8.5)); memo != "miss" {
		b.Fatalf("warm-up: memo=%q, want miss", memo)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if memo := post(bodies[i]); memo != "miss" {
			b.Fatalf("iteration %d: memo=%q, want miss", i, memo)
		}
	}
}

func BenchmarkServeMemoHit(b *testing.B)  { serveMemoBench(b, true, false) }
func BenchmarkServeMemoCold(b *testing.B) { serveMemoBench(b, false, false) }

// BenchmarkServeMemoHitInline is BenchmarkServeMemoHit with the chain
// sent inline, the other hit kind: decoding a chain, not building a
// named profile, is what a hit would pay before its memo lookup.
// Advisory; no gate reads it.
func BenchmarkServeMemoHitInline(b *testing.B) { serveMemoBench(b, true, true) }

// BenchmarkServeObsOverhead measures exactly what the observability
// plane adds to a memo-hit request, in process (no HTTP), via
// serve.(*Server).ObsBenchmarkHit: span start, three phase stamps,
// metadata, and the finish fold into histograms, SLO counters and the
// flight recorder. The disabled variant (Config without a Registry —
// the same configuration every other serving benchmark uses) must stay
// zero-alloc: every obs hook behind it is a nil-receiver no-op, so the
// whole plane costs one pointer check. scripts/verify.sh greps its
// "0 allocs/op" and benchdiff gates the enabled variant's allocs
// against the committed snapshot.
func BenchmarkServeObsOverhead(b *testing.B) {
	run := func(b *testing.B, cfg serve.Config) {
		cfg.Workers = 1
		srv := serve.NewServer(cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.ObsBenchmarkHit("/v1/plan")
		}
		// Stop before Shutdown: at tiny -benchtime the drain's channel
		// close would otherwise smear allocations over the few ops.
		b.StopTimer()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
	b.Run("disabled", func(b *testing.B) { run(b, serve.Config{}) })
	b.Run("enabled", func(b *testing.B) { run(b, serve.Config{Registry: obs.NewRegistry()}) })
}
