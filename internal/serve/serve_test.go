package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"madpipe/internal/chain"
	"madpipe/internal/core"
	"madpipe/internal/fingerprint"
	"madpipe/internal/obs"
	"madpipe/internal/platform"
)

func testPlat() platform.Platform {
	return platform.Platform{Workers: 4, Memory: 1e10, Bandwidth: 1.2e10}
}

func testOpts() core.Options {
	return core.Options{Weights: chain.TwoBufferedWeights(), Parallel: 1}
}

// testChain builds a deterministic non-uniform chain: enough structure
// that allocations are non-trivial, small enough to plan in
// milliseconds.
func testChain(n int, seed float64) *chain.Chain {
	layers := make([]chain.Layer, n)
	for i := range layers {
		f := 1 + 0.3*float64((i*7+int(seed*13))%5)
		layers[i] = chain.Layer{UF: 0.01 * f, UB: 0.02 * f, W: 2e8 * f, A: 3e7 * f}
	}
	return chain.MustNew("serve-test", 1e6*seed, layers)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	hs := httptest.NewServer(s.Mux())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, hs
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, rb
}

// directPlanBytes renders the reference response body the daemon must
// match: a cold, uninstrumented core call through the same canonical
// report writer.
func directPlanBytes(t *testing.T, c *chain.Chain, plat platform.Platform, opts core.Options, schedule bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if schedule {
		plan, err := core.PlanAndSchedule(c, plat, opts, core.ScheduleOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rep := core.NewPlanReport(c, plat, opts, plan.PhaseOne)
		rep.AttachSchedule(plan)
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	p1, err := core.PlanAllocation(c, plat, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.NewPlanReport(c, plat, opts, p1).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServePlanBitIdentical: the daemon's plan body — on the memo miss
// AND the memo hit — is byte-for-byte what a direct cold
// core.PlanAllocation + PlanReport.WriteJSON produces.
func TestServePlanBitIdentical(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	for _, schedule := range []bool{false, true} {
		c := testChain(12, 3)
		want := directPlanBytes(t, c, testPlat(), testOpts(), schedule)

		req := PlanRequest{Chain: c, Platform: PlatformSpec{Workers: 4, Memory: 1e10, Bandwidth: 1.2e10},
			Options: OptionsSpec{Parallel: 1}, Schedule: schedule}
		resp, body := postJSON(t, hs.URL+"/v1/plan", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("schedule=%v: status %d: %s", schedule, resp.StatusCode, body)
		}
		if got := resp.Header.Get(HeaderMemo); got != "miss" {
			t.Fatalf("schedule=%v: first request memo=%q, want miss", schedule, got)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("schedule=%v: miss body differs from direct core call (%d vs %d bytes)", schedule, len(body), len(want))
		}

		resp2, body2 := postJSON(t, hs.URL+"/v1/plan", req)
		if got := resp2.Header.Get(HeaderMemo); got != "hit" {
			t.Fatalf("schedule=%v: second request memo=%q, want hit", schedule, got)
		}
		if !bytes.Equal(body2, want) {
			t.Fatalf("schedule=%v: hit body differs from direct core call", schedule)
		}
		if resp.Header.Get(HeaderFingerprint) != resp2.Header.Get(HeaderFingerprint) {
			t.Fatalf("schedule=%v: fingerprint changed between identical requests", schedule)
		}
	}
}

// TestServeFrontierBitIdentical: same contract for /v1/frontier against
// core.PlanFrontier + FrontierReport.WriteJSON.
func TestServeFrontierBitIdentical(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	c := testChain(12, 5)
	mems := []float64{6e9, 8e9, 1e10, 1.4e10}
	fr, err := core.PlanFrontier(c, testPlat(), mems, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := core.NewFrontierReport(c, testPlat(), testOpts(), fr).WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	req := FrontierRequest{Chain: c, Platform: PlatformSpec{Workers: 4, Bandwidth: 1.2e10},
		Options: OptionsSpec{Parallel: 1}, Mems: mems}
	resp, body := postJSON(t, hs.URL+"/v1/frontier", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("frontier miss body differs from direct core call (%d vs %d bytes)", len(body), want.Len())
	}
	resp2, body2 := postJSON(t, hs.URL+"/v1/frontier", req)
	if got := resp2.Header.Get(HeaderMemo); got != "hit" {
		t.Fatalf("second frontier memo=%q, want hit", got)
	}
	if !bytes.Equal(body2, want.Bytes()) {
		t.Fatal("frontier hit body differs from direct core call")
	}
}

// TestServeFrontierAfterPlanMemo: a /v1/plan at the ladder's top rung
// leaves a memo entry on the worker's cache. The following /v1/frontier
// on that worker must answer byte-identically to the same request on a
// fresh server — a frontier body is a function of its request — and
// each feasible segment must be certified above zero and hold cold at
// its cert_lo.
func TestServeFrontierAfterPlanMemo(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	c := testChain(12, 5)
	mems := []float64{1.4e10, 1e10, 8e9, 6e9}
	freq := FrontierRequest{Chain: c,
		Platform: PlatformSpec{Workers: 4, Bandwidth: 1.2e10}, Options: OptionsSpec{Parallel: 1}, Mems: mems}
	_, coldHS := newTestServer(t, Config{Workers: 1})
	resp, coldBody := postJSON(t, coldHS.URL+"/v1/frontier", freq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold frontier status %d: %s", resp.StatusCode, coldBody)
	}
	resp, body := postJSON(t, hs.URL+"/v1/plan", PlanRequest{Chain: c,
		Platform: PlatformSpec{Workers: 4, Memory: mems[0], Bandwidth: 1.2e10}, Options: OptionsSpec{Parallel: 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, hs.URL+"/v1/frontier", freq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frontier status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, coldBody) {
		t.Fatalf("frontier after /v1/plan differs from the cold body:\n%s\n%s", body, coldBody)
	}
	var got core.FrontierReport
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, err := core.PlanFrontier(c, testPlat(), mems, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Segments) != len(want.Segments) {
		t.Fatalf("%d segments after the plan memo, %d without", len(got.Segments), len(want.Segments))
	}
	for i, seg := range got.Segments {
		w := want.Segments[i]
		if seg.MemHi != w.MemHi || seg.MemLo != w.MemLo || seg.Feasible != w.Feasible ||
			seg.Predicted != w.Predicted || seg.Target != w.Target {
			t.Fatalf("segment %d: %+v after the plan memo, want range and periods of %+v", i, seg, w)
		}
		if !seg.Feasible {
			continue
		}
		if !(seg.CertLo > 0) {
			t.Fatalf("segment %d [%g, %g]: cert_lo %g", i, seg.MemLo, seg.MemHi, seg.CertLo)
		}
		pl := testPlat()
		pl.Memory = seg.CertLo
		cold, err := core.PlanAllocation(c, pl, testOpts())
		if err != nil {
			t.Fatalf("segment %d: cold plan at cert_lo %g: %v", i, seg.CertLo, err)
		}
		if cold.PredictedPeriod != seg.Predicted || cold.TargetPeriod != seg.Target {
			t.Fatalf("segment %d: cold plan at cert_lo %g reads (%g, %g), segment (%g, %g)",
				i, seg.CertLo, cold.PredictedPeriod, cold.TargetPeriod, seg.Predicted, seg.Target)
		}
	}
}

// TestServeInfeasibleMemoized: deterministic infeasibility (memory too
// small for any allocation) is 422 and served from the memo on repeat —
// it is as much a function of the request as a feasible plan.
func TestServeInfeasibleMemoized(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	req := PlanRequest{Chain: testChain(12, 7),
		Platform: PlatformSpec{Workers: 4, Memory: 1e3, Bandwidth: 1.2e10},
		Options:  OptionsSpec{Parallel: 1}}
	resp, body := postJSON(t, hs.URL+"/v1/plan", req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	resp2, body2 := postJSON(t, hs.URL+"/v1/plan", req)
	if resp2.StatusCode != http.StatusUnprocessableEntity || resp2.Header.Get(HeaderMemo) != "hit" {
		t.Fatalf("repeat infeasible: status %d memo %q, want 422 hit", resp2.StatusCode, resp2.Header.Get(HeaderMemo))
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("infeasible bodies differ between miss and hit")
	}
}

// TestServeShapeTooLarge: a DP shape past the planner's table bounds
// answers 422 at once, naming what is too large and the request fields
// that shrink it, and its repeat is a memo hit — like infeasibility, the
// shape is a property of the request. gpt2 at 256 blocks × granularity
// 8 is 2,050 layers; on 75 workers and the default 101×11×51 grid that
// is 8.7e9 virtual states, past 2^33. Before the table planned every
// shape, this request went to a map-memoized DP whose first probe had
// not finished after a minute, past the daemon's default deadline. An
// inline chain past core.MaxDPIndex layers used to answer 500.
func TestServeShapeTooLarge(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct {
		name, body string
		want       []string
	}{
		{"gpt2 on 75 workers",
			`{"net":{"name":"gpt2","blocks":256,"granularity":8},"platform":{"workers":75,"memory_gb":300,"bandwidth_gb":300}}`,
			[]string{"8715878325 virtual states", "2^33", "disc_tp", "max_chain", "workers"}},
		{"inline chain past the layer limit",
			mustJSON(PlanRequest{Chain: testChain(core.MaxDPIndex+1, 1),
				Platform: PlatformSpec{Workers: 2, MemoryGB: 1e4, BandwidthGB: 12},
				Options:  OptionsSpec{DiscTP: 2, DiscMP: 2, DiscV: 2}}),
			[]string{"65536 layers", "max_chain"}},
	} {
		start := time.Now()
		var first []byte
		for attempt, memo := range []string{"miss", "hit"} {
			resp, err := http.Post(hs.URL+"/v1/plan", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			rb, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnprocessableEntity || resp.Header.Get(HeaderMemo) != memo {
				t.Fatalf("%s #%d: status %d memo %q, want 422 %s: %s", tc.name, attempt, resp.StatusCode, resp.Header.Get(HeaderMemo), memo, rb)
			}
			var er ErrorResponse
			if err := json.Unmarshal(rb, &er); err != nil {
				t.Fatalf("%s #%d: body is not an ErrorResponse: %s", tc.name, attempt, rb)
			}
			for _, want := range tc.want {
				if !strings.Contains(er.Error, want) {
					t.Errorf("%s #%d: error %q does not name %q", tc.name, attempt, er.Error, want)
				}
			}
			if attempt == 0 {
				first = rb
			} else if !bytes.Equal(rb, first) {
				t.Fatalf("%s: 422 bodies differ between miss and hit", tc.name)
			}
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Fatalf("%s: oversized shape took %v to answer", tc.name, d)
		}
	}
}

// heavyTailChain is n layers of UF/UB = 1e-6/2e-6 s whose last layer is
// 1/2 s; on two processors the heavy layer plans alone.
func heavyTailChain(n int) *chain.Chain {
	layers := make([]chain.Layer, n)
	for i := range layers {
		layers[i] = chain.Layer{UF: 1e-6, UB: 2e-6, W: 1e6, A: 1e6}
	}
	layers[n-1].UF, layers[n-1].UB = 1, 2
	return chain.MustNew("heavy-tail", 1e6, layers)
}

// TestServeCutPastLayer32767: the daemon plans a 32,769-layer chain whose
// last cut lands past layer 32,767, with the heavy last layer alone as
// stage [32769, 32769]. It used to answer 500 within milliseconds (a
// 16-bit decision wrapped negative in reconstruction), while the
// 32,767-layer twin planned.
func TestServeCutPastLayer32767(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	for _, n := range []int{32767, 32769} {
		resp, body := postJSON(t, hs.URL+"/v1/plan", PlanRequest{Chain: heavyTailChain(n),
			Platform: PlatformSpec{Workers: 2, MemoryGB: 1e4, BandwidthGB: 1e3},
			Options:  OptionsSpec{Iterations: 1, DiscTP: 2, DiscMP: 2, DiscV: 2}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%d layers: status %d: %s", n, resp.StatusCode, body)
		}
		var rep core.PlanReport
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		if len(rep.Stages) == 0 {
			t.Fatalf("%d layers: no stages in %s", n, body)
		}
		if last := rep.Stages[len(rep.Stages)-1]; last.From != n || last.To != n {
			t.Fatalf("%d layers: last stage [%d, %d], want the heavy layer alone", n, last.From, last.To)
		}
	}
}

// TestServeChurnBitIdentical is the concurrency contract: 8 goroutines
// hammer a mixed working set and every single response body — hit or
// miss, whatever worker cache warmth — equals the cold direct-call
// reference for its request. Run under -race by scripts/verify.sh.
func TestServeChurnBitIdentical(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 4, QueueDepth: 64, Registry: obs.NewRegistry()})

	type cell struct {
		req  PlanRequest
		want []byte
	}
	var cells []cell
	for i := 0; i < 4; i++ {
		c := testChain(10+i, float64(i+1))
		plat := testPlat()
		plat.Memory = 8e9 + 1e9*float64(i)
		cells = append(cells, cell{
			req: PlanRequest{Chain: c,
				Platform: PlatformSpec{Workers: 4, Memory: plat.Memory, Bandwidth: 1.2e10},
				Options:  OptionsSpec{Parallel: 1}},
			want: directPlanBytes(t, c, plat, testOpts(), false),
		})
	}

	const goroutines, rounds = 8, 12
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				cl := cells[(g+r)%len(cells)]
				b, err := json.Marshal(cl.req)
				if err != nil {
					errc <- err
					return
				}
				resp, err := http.Post(hs.URL+"/v1/plan", "application/json", bytes.NewReader(b))
				if err != nil {
					errc <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("g%d r%d: status %d: %s", g, r, resp.StatusCode, body)
					return
				}
				if !bytes.Equal(body, cl.want) {
					errc <- fmt.Errorf("g%d r%d: body differs from cold direct call (memo=%s)", g, r, resp.Header.Get(HeaderMemo))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	waitFolds(srv, goroutines*rounds)
	st := srv.Stats()
	if st.Memo.Hits == 0 {
		t.Error("churn saw zero memo hits; mix should repeat cells")
	}
	if st.Memo.Misses == 0 {
		t.Error("churn saw zero memo misses")
	}
	// Each request counts one memo outcome; a single-flight waiter is a
	// hit, never a miss as well.
	if st.Memo.Hits+st.Memo.Misses != goroutines*rounds {
		t.Errorf("memo counted %d hits + %d misses over %d requests", st.Memo.Hits, st.Memo.Misses, goroutines*rounds)
	}
	// The registry enables the span plane; every one of the churn's
	// requests must have been recorded without perturbing a single body.
	if st.Flight == nil || st.Flight.Total != goroutines*rounds {
		t.Errorf("flight recorder saw %+v, want %d spans", st.Flight, goroutines*rounds)
	}
	if sum := st.Latency["/v1/plan"]; sum.Count != goroutines*rounds || sum.P50NS == 0 {
		t.Errorf("plan latency summary %+v, want count %d", sum, goroutines*rounds)
	}
}

// TestServeMemoBudgetCapsBytes: sustained unique-chain traffic against
// a small memo budget must evict rather than grow — resident bytes stay
// under the budget while every request still gets its exact plan.
func TestServeMemoBudgetCapsBytes(t *testing.T) {
	const budget = 48 << 10
	srv, hs := newTestServer(t, Config{Workers: 2, Memo: MemoConfig{MaxBytes: budget, Shards: 2}})
	for i := 0; i < 24; i++ {
		req := PlanRequest{Chain: testChain(9, float64(100+i)),
			Platform: PlatformSpec{Workers: 4, Memory: 1e10, Bandwidth: 1.2e10},
			Options:  OptionsSpec{Parallel: 1}}
		resp, body := postJSON(t, hs.URL+"/v1/plan", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if st := srv.memo.Stats(); st.Bytes > st.MaxBytes {
			t.Fatalf("request %d: memo %d bytes over budget %d", i, st.Bytes, st.MaxBytes)
		}
	}
	st := srv.memo.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under unique-chain traffic (resident %d / %d bytes, %d entries)", st.Bytes, st.MaxBytes, st.Entries)
	}
}

// TestMemoLRUAndTTL exercises the memo's eviction machinery directly
// with synthetic clocks and keys.
func TestMemoLRUAndTTL(t *testing.T) {
	key := func(i int) fingerprint.Key {
		var k fingerprint.Key
		k[0], k[1] = byte(i), byte(i>>8)
		return k
	}
	t0 := time.Unix(1000, 0)
	body := bytes.Repeat([]byte("x"), 1024)

	// LRU: single shard sized for ~3 entries; touching entry 0 must make
	// entry 1 the eviction victim.
	m := NewMemo(MemoConfig{Shards: 1, MaxBytes: 3 * (1024 + entryOverhead)}, nil)
	for i := 0; i < 3; i++ {
		m.Put(key(i), 200, body, t0)
	}
	if _, _, ok := m.Get(key(0), t0); !ok {
		t.Fatal("entry 0 missing before eviction")
	}
	m.Put(key(3), 200, body, t0)
	if _, _, ok := m.Get(key(1), t0); ok {
		t.Fatal("LRU kept the least-recently-used entry 1")
	}
	if _, _, ok := m.Get(key(0), t0); !ok {
		t.Fatal("LRU evicted the recently touched entry 0")
	}
	if st := m.Stats(); st.Evictions != 1 || st.Bytes > st.MaxBytes {
		t.Fatalf("stats after eviction: %+v", st)
	}

	// TTL: entries expire TTL after insertion, lazily on Get and eagerly
	// on Sweep.
	m = NewMemo(MemoConfig{Shards: 1, MaxBytes: 1 << 20, TTL: time.Minute}, nil)
	m.Put(key(1), 200, body, t0)
	m.Put(key(2), 200, body, t0.Add(30*time.Second))
	if _, _, ok := m.Get(key(1), t0.Add(59*time.Second)); !ok {
		t.Fatal("entry expired before TTL")
	}
	if _, _, ok := m.Get(key(1), t0.Add(61*time.Second)); ok {
		t.Fatal("entry survived past TTL")
	}
	if n := m.Sweep(t0.Add(91 * time.Second)); n != 1 {
		t.Fatalf("Sweep dropped %d entries, want 1 (key 2)", n)
	}
	if st := m.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("memo not empty after expiry: %+v", st)
	}

	// An entry larger than the whole shard budget is rejected outright.
	m = NewMemo(MemoConfig{Shards: 1, MaxBytes: 512}, nil)
	m.Put(key(9), 200, body, t0)
	if st := m.Stats(); st.Entries != 0 {
		t.Fatal("oversized entry was cached")
	}
}

// blockJob pins a worker until released — the deterministic seam for
// admission-control tests.
type blockJob struct {
	started chan struct{}
	release chan struct{}
}

func (b *blockJob) run(ctx context.Context, _ *Server, _ int) answer {
	close(b.started)
	select {
	case <-b.release:
	case <-ctx.Done():
	}
	return answer{status: http.StatusOK, body: []byte("{}")}
}

// TestServeQueueFullSheds: with one worker pinned and the queue full,
// the next dispatch sheds with 429 instead of queueing unboundedly.
func TestServeQueueFullSheds(t *testing.T) {
	s := NewServer(Config{Workers: 1, QueueDepth: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	pin := &blockJob{started: make(chan struct{}), release: make(chan struct{})}
	pinDone := make(chan answer, 1)
	go func() { pinDone <- s.dispatch(context.Background(), pin, nil) }()
	<-pin.started // the only worker is now busy

	filler := &blockJob{started: make(chan struct{}), release: pin.release}
	fillerDone := make(chan answer, 1)
	go func() { fillerDone <- s.dispatch(context.Background(), filler, nil) }()
	// The filler occupies the queue's one slot; poll until it is parked
	// there (dispatch enqueues synchronously before waiting).
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("filler never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	if ans := s.dispatch(context.Background(), &blockJob{started: make(chan struct{}), release: pin.release}, nil); ans.status != http.StatusTooManyRequests {
		t.Fatalf("dispatch with full queue: status %d, want 429", ans.status)
	}

	close(pin.release)
	if ans := <-pinDone; ans.status != http.StatusOK {
		t.Fatalf("pinned job: status %d", ans.status)
	}
	if ans := <-fillerDone; ans.status != http.StatusOK {
		t.Fatalf("queued job: status %d", ans.status)
	}
}

// TestServeDeadline: a request whose budget expires before planning
// finishes answers 504 and is never memoized.
func TestServeDeadline(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 1, Timeout: time.Nanosecond})
	req := PlanRequest{Chain: testChain(12, 2),
		Platform: PlatformSpec{Workers: 4, Memory: 1e10, Bandwidth: 1.2e10},
		Options:  OptionsSpec{Parallel: 1}}
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, hs.URL+"/v1/plan", req)
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("attempt %d: status %d, want 504: %s", i, resp.StatusCode, body)
		}
	}
	if st := srv.memo.Stats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("timeout outcome leaked into the memo: %+v", st)
	}
}

// TestServeDrain: after Shutdown begins, new requests are shed with 503
// + Retry-After, /healthz reports draining, and Shutdown returns
// cleanly.
func TestServeDrain(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	hs := httptest.NewServer(s.Mux())
	defer hs.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, body := postJSON(t, hs.URL+"/v1/plan", PlanRequest{})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	hr, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", hr.StatusCode)
	}
}

// mustJSON marshals a request body known to encode.
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// badPlanBodies are the /v1/plan bodies that must answer 400, by name.
// TestServeBadRequests posts them and FuzzKeyPlan seeds from them.
func badPlanBodies() map[string]string {
	return map[string]string{
		// 2^54+1 workers on a 4×4×4 grid wrapped the DP's packed state
		// count negative and panicked the worker goroutine, taking the
		// daemon down.
		"huge workers": mustJSON(PlanRequest{Chain: testChain(7, 1),
			Platform: PlatformSpec{Workers: 1<<54 + 1, Memory: 8e9, Bandwidth: 1.2e10},
			Options:  OptionsSpec{DiscTP: 4, DiscMP: 4, DiscV: 4}}),
		"huge blocks":       `{"net":{"name":"gpt2","blocks":1000000000000,"granularity":8},"platform":{"workers":16,"memory_gb":1800,"bandwidth_gb":300}}`,
		"not json":          "{",
		"unknown field":     `{"nets":{"name":"resnet50"}}`,
		"no chain":          `{"platform":{"workers":4,"memory_gb":10,"bandwidth_gb":12}}`,
		"both chains":       `{"net":{"name":"resnet50"},"chain":{"name":"x","input_activation":1,"layers":[]},"platform":{"workers":4,"memory_gb":10,"bandwidth_gb":12}}`,
		"bad weights":       `{"net":{"name":"resnet50"},"platform":{"workers":4,"memory_gb":10,"bandwidth_gb":12},"options":{"weights":"nope"}}`,
		"bad platform":      `{"net":{"name":"resnet50"},"platform":{"workers":0,"memory_gb":10,"bandwidth_gb":12}}`,
		"negative maxchain": `{"net":{"name":"resnet50"},"platform":{"workers":4,"memory_gb":10,"bandwidth_gb":12},"options":{"max_chain":-1}}`,
		"partial disc":      `{"net":{"name":"resnet50"},"platform":{"workers":4,"memory_gb":10,"bandwidth_gb":12},"options":{"disc_tp":21}}`,
		"disc out of range": `{"net":{"name":"resnet50"},"platform":{"workers":4,"memory_gb":10,"bandwidth_gb":12},"options":{"disc_tp":21,"disc_mp":5,"disc_v":1000}}`,
		"infinite memory":   `{"net":{"name":"resnet50"},"platform":{"workers":4,"memory_gb":1e300,"bandwidth_gb":12}}`,
		"negative iters":    `{"net":{"name":"resnet50"},"platform":{"workers":4,"memory_gb":10,"bandwidth_gb":12},"options":{"iterations":-3}}`,
		"too many iters":    `{"net":{"name":"resnet50"},"platform":{"workers":4,"memory_gb":10,"bandwidth_gb":12},"options":{"iterations":65}}`,
		"negative parallel": `{"net":{"name":"resnet50"},"platform":{"workers":4,"memory_gb":10,"bandwidth_gb":12},"options":{"parallel":-1}}`,
		"huge latency":      `{"net":{"name":"resnet50"},"platform":{"workers":4,"memory_gb":10,"bandwidth_gb":12,"latency":1e308},"options":{"disc_tp":4,"disc_mp":4,"disc_v":4}}`,
		"tiny bandwidth":    `{"net":{"name":"resnet50"},"platform":{"workers":4,"memory_gb":10,"bandwidth":1e-300},"options":{"disc_tp":4,"disc_mp":4,"disc_v":4}}`,
		// Finite fields whose costs sum to +Inf used to plan in full and
		// then answer 500 (the report's +Inf did not encode), or 422
		// blaming memory when the layer times themselves overflowed.
		"huge layer times": mustJSON(PlanRequest{
			Chain:    chain.MustNew("huge", 1e6, []chain.Layer{{UF: 1e308, UB: 1e308, W: 1e6, A: 1e6}, {UF: 1e308, UB: 1e308, W: 1e6, A: 1e6}}),
			Platform: PlatformSpec{Workers: 4, Memory: 8e9, Bandwidth: 1.2e10},
			Options:  OptionsSpec{DiscTP: 4, DiscMP: 4, DiscV: 4}}),
	}
}

// frontierBody is a /v1/frontier body for an 8-layer test chain on four
// workers with the given ladder.
func frontierBody(mems, memsGB []float64) string {
	return mustJSON(FrontierRequest{Chain: testChain(8, 1),
		Platform: PlatformSpec{Workers: 4, Bandwidth: 1.2e10}, Mems: mems, MemsGB: memsGB})
}

// badFrontierCases are the /v1/frontier bodies that must answer a 400
// naming field. Ladder rungs are checked at the boundary: a non-positive
// rung used to reach the planner and answer 500, a mems_gb rung that
// overflows to +Inf was caught only as the platform's Memory, and the
// ladder length had no bound.
func badFrontierCases() []struct{ name, body, field string } {
	longLadder := make([]float64, MaxFrontierMems+1)
	for i := range longLadder {
		longLadder[i] = 8e9 - float64(i)*1e6
	}
	return []struct{ name, body, field string }{
		{"frontier without ladder", frontierBody(nil, nil), "ladder"},
		{"negative rung", frontierBody(nil, []float64{10, -1}), "mems_gb"},
		{"overflowing rung", frontierBody(nil, []float64{1e300, 10}), "mems_gb"},
		{"zero rung", frontierBody([]float64{8e9, 0}, nil), "mems"},
		{"too long ladder", frontierBody(longLadder, nil), "mems"},
		{"frontier huge latency", `{"net":{"name":"resnet50"},"platform":{"workers":4,"bandwidth_gb":12,"latency":1e308},"mems_gb":[10,8]}`, "latency"},
	}
}

// TestServeBadRequests: malformed inputs answer 400 with a JSON error,
// on a repeat too, and leave no body alias behind.
func TestServeBadRequests(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 1})
	for name, body := range badPlanBodies() {
		for attempt := 0; attempt < 2; attempt++ {
			resp, err := http.Post(hs.URL+"/v1/plan", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			rb, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s #%d: status %d, want 400: %s", name, attempt, resp.StatusCode, rb)
			}
			var er ErrorResponse
			if err := json.Unmarshal(rb, &er); err != nil || er.Error == "" {
				t.Errorf("%s #%d: body is not an ErrorResponse: %s", name, attempt, rb)
			}
			for field, want := range map[string]string{
				"infinite memory":   "Memory",
				"negative iters":    "iterations",
				"too many iters":    "iterations",
				"negative parallel": "parallel",
				"huge workers":      "workers",
				"huge blocks":       "blocks",
				"huge latency":      "latency",
				"tiny bandwidth":    "bandwidth",
				"huge layer times":  "chain",
			} {
				if name == field && !strings.Contains(er.Error, want) {
					t.Errorf("%s #%d: error %q does not name %s", name, attempt, er.Error, want)
				}
			}
		}
	}
	for _, tc := range badFrontierCases() {
		for attempt := 0; attempt < 2; attempt++ {
			resp, err := http.Post(hs.URL+"/v1/frontier", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			rb, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var er ErrorResponse
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(rb, &er) != nil || !strings.Contains(er.Error, tc.field) {
				t.Errorf("%s #%d: status %d, want a 400 naming %s: %s", tc.name, attempt, resp.StatusCode, tc.field, rb)
			}
		}
	}
	if st := srv.Stats(); st.Alias.Entries != 0 || st.Alias.Hits != 0 || st.Memo.Hits+st.Memo.Misses != 0 {
		t.Errorf("bad requests reached the alias index or the memo: alias %+v, memo %+v", st.Alias, st.Memo)
	}
	// The iterations bound is inclusive.
	resp, body := postJSON(t, hs.URL+"/v1/plan", PlanRequest{Chain: testChain(8, 1),
		Platform: PlatformSpec{Workers: 4, Memory: 8e9, Bandwidth: 1.2e10},
		Options:  OptionsSpec{Iterations: core.MaxIterations, Parallel: 1}})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("iterations %d: status %d, want 200: %s", core.MaxIterations, resp.StatusCode, body)
	}
}

// TestServeStatsAndIntern: /v1/stats reports the memo and worker-cache
// census; repeated distinct-but-equal chains intern onto one canonical
// instance so warm planner tables survive across requests.
func TestServeStatsAndIntern(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 1, Registry: obs.NewRegistry()})
	c := testChain(10, 4)
	for i := 0; i < 3; i++ {
		// Fresh decode every round (postJSON marshals anew), and vary the
		// memory limit so each round misses the memo but shares the
		// interned chain and its warm tables.
		req := PlanRequest{Chain: c,
			Platform: PlatformSpec{Workers: 4, Memory: 8e9 + 1e9*float64(i), Bandwidth: 1.2e10},
			Options:  OptionsSpec{Parallel: 1}}
		resp, body := postJSON(t, hs.URL+"/v1/plan", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	hr, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st ServerStats
	if err := json.NewDecoder(hr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if st.Interned != 1 {
		t.Errorf("interned %d chains, want 1 (same content every round)", st.Interned)
	}
	if st.Memo.Misses != 3 {
		t.Errorf("memo misses = %d, want 3 (distinct memory limits)", st.Memo.Misses)
	}
	var warm uint64
	for _, w := range st.Workers {
		warm += w.WarmLeases
	}
	if warm == 0 {
		t.Error("no warm table leases across interned requests; interning is not feeding the planner cache")
	}
	_ = srv
}

// TestServeDebugRequests: the flight-recorder tail serves the session's
// requests in completion order — a memo miss carrying queue/intern/
// plan/marshal phases, then a hit carrying only memo/write — and the
// ?trace=1 form renders them as a Chrome trace. Without a registry the
// endpoint does not exist.
func TestServeDebugRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, Registry: obs.NewRegistry()})
	req := PlanRequest{Chain: testChain(10, 6),
		Platform: PlatformSpec{Workers: 4, Memory: 1e10, Bandwidth: 1.2e10},
		Options:  OptionsSpec{Parallel: 1}}
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, hs.URL+"/v1/plan", req); resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	hr, err := http.Get(hs.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var dbg DebugRequests
	if err := json.NewDecoder(hr.Body).Decode(&dbg); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if len(dbg.Requests) != 2 || dbg.Recorder.Total != 2 {
		t.Fatalf("tail has %d requests (recorder %+v), want the 2 smoke requests", len(dbg.Requests), dbg.Recorder)
	}
	miss, hit := dbg.Requests[0], dbg.Requests[1]
	if miss.Seq >= hit.Seq {
		t.Errorf("tail out of completion order: seq %d then %d", miss.Seq, hit.Seq)
	}
	if miss.Memo != "miss" || hit.Memo != "hit" {
		t.Errorf("memo verdicts %q, %q, want miss then hit", miss.Memo, hit.Memo)
	}
	if miss.Fingerprint == "" || miss.Fingerprint != hit.Fingerprint {
		t.Errorf("fingerprints %q vs %q, want equal and non-empty", miss.Fingerprint, hit.Fingerprint)
	}
	if miss.Phases[obs.SpanPlan] <= 0 || miss.Phases[obs.SpanQueue] <= 0 ||
		miss.Phases[obs.SpanIntern] <= 0 || miss.Phases[obs.SpanMarshal] <= 0 {
		t.Errorf("miss phases incomplete: %+v", miss.Phases)
	}
	if hit.Phases[obs.SpanPlan] != 0 || hit.Phases[obs.SpanQueue] != 0 {
		t.Errorf("memo hit reached the planner: %+v", hit.Phases)
	}
	if hit.Phases[obs.SpanMemo] <= 0 || hit.Phases[obs.SpanWrite] <= 0 {
		t.Errorf("hit phases incomplete: %+v", hit.Phases)
	}
	if miss.Bytes == 0 || miss.Bytes != hit.Bytes {
		t.Errorf("bytes %d vs %d, want equal non-zero bodies", miss.Bytes, hit.Bytes)
	}

	// ?trace=1 renders the same records as a trace document.
	hr, err = http.Get(hs.URL + "/debug/requests?trace=1")
	if err != nil {
		t.Fatal(err)
	}
	tb, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(tb, &tf); err != nil || len(tf.TraceEvents) == 0 {
		t.Fatalf("trace form invalid (err %v, %d events): %.200s", err, len(tf.TraceEvents), tb)
	}

	// ?n= bounds the tail; bad n is a 400.
	hr, err = http.Get(hs.URL + "/debug/requests?n=1")
	if err != nil {
		t.Fatal(err)
	}
	var one DebugRequests
	if err := json.NewDecoder(hr.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if len(one.Requests) != 1 || one.Requests[0].Seq != hit.Seq {
		t.Errorf("Tail(1) = %+v, want just the newest request", one.Requests)
	}
	if hr, err = http.Get(hs.URL + "/debug/requests?n=-1"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, hr.Body)
		hr.Body.Close()
		if hr.StatusCode != http.StatusBadRequest {
			t.Errorf("n=-1: status %d, want 400", hr.StatusCode)
		}
	}

	// A registry-less server has no flight recorder and no endpoint.
	_, plain := newTestServer(t, Config{Workers: 1})
	if hr, err = http.Get(plain.URL + "/debug/requests"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, hr.Body)
		hr.Body.Close()
		if hr.StatusCode != http.StatusNotFound {
			t.Errorf("disabled /debug/requests: status %d, want 404", hr.StatusCode)
		}
	}
}

// waitFolds waits, for at most five seconds, until srv's flight
// recorder holds n request spans. Handlers fold a request's span in a
// deferred call that runs after the response body is written, so a
// client can read Stats before the fold of its own request lands. The
// flight record is the fold's last step, so every counter the fold
// touches is visible once it counts. On timeout the caller's own
// assertions report what is missing.
func waitFolds(srv *Server, n uint64) {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if fs := srv.Stats().Flight; fs != nil && fs.Total >= n {
			return
		}
	}
}

// TestServeSLOCounters: a served request lands in ok or violations by
// duration against the target; shed requests count as errors.
func TestServeSLOCounters(t *testing.T) {
	// Target of 1ns: any real request violates.
	srv, hs := newTestServer(t, Config{Workers: 1, Registry: obs.NewRegistry(), SLOTarget: time.Nanosecond})
	req := PlanRequest{Chain: testChain(10, 8),
		Platform: PlatformSpec{Workers: 4, Memory: 1e10, Bandwidth: 1.2e10},
		Options:  OptionsSpec{Parallel: 1}}
	if resp, body := postJSON(t, hs.URL+"/v1/plan", req); resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	waitFolds(srv, 1)
	if slo := srv.Stats().SLO; slo == nil || slo.Violations != 1 || slo.OK != 0 || slo.Errors != 0 {
		t.Fatalf("SLO after slow request: %+v, want 1 violation", slo)
	}

	// A generous target counts the same request as ok. Managed by hand:
	// the test drains this server itself, and Shutdown is once-only.
	srv2 := NewServer(Config{Workers: 1, Registry: obs.NewRegistry(), SLOTarget: time.Hour})
	hs2raw := httptest.NewServer(srv2.Mux())
	defer hs2raw.Close()
	hs2 := hs2raw
	if resp, body := postJSON(t, hs2.URL+"/v1/plan", req); resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	waitFolds(srv2, 1)
	if slo := srv2.Stats().SLO; slo.OK != 1 || slo.Violations != 0 {
		t.Fatalf("SLO after fast request: %+v, want 1 ok", slo)
	}

	// Shed while draining is an SLO error, and its record is notable.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postJSON(t, hs2.URL+"/v1/plan", req); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503", resp.StatusCode)
	}
	waitFolds(srv2, 2)
	st := srv2.Stats()
	if st.SLO.Errors != 1 {
		t.Errorf("SLO after shed: %+v, want 1 error", st.SLO)
	}
	if st.Flight.Shed != 1 {
		t.Errorf("flight recorder shed count: %+v", st.Flight)
	}
}

// TestRetryAfterDerivation pins the shed back-off hint: 1s with an
// empty queue or no observations, queue-drain time at the observed
// median otherwise, clamped to [1, 60].
func TestRetryAfterDerivation(t *testing.T) {
	for _, tc := range []struct {
		queued, workers int
		p50             time.Duration
		want            int
	}{
		{0, 2, time.Second, 1},            // empty queue
		{4, 2, 0, 1},                      // no observations yet
		{4, 2, 10 * time.Second, 20},      // 4 jobs / 2 workers * 10s
		{3, 2, time.Second, 2},            // ceil(1.5)
		{8, 1, 100 * time.Millisecond, 1}, // sub-second drains floor at 1
		{100, 1, time.Minute, 60},         // clamp
		{1, 0, time.Second, 1},            // degenerate pool
	} {
		if got := retryAfterSecs(tc.queued, tc.workers, tc.p50); got != tc.want {
			t.Errorf("retryAfterSecs(%d, %d, %v) = %d, want %d", tc.queued, tc.workers, tc.p50, got, tc.want)
		}
	}

	// Server-level: before any observation the header is the legacy "1";
	// an observability-disabled server derives the same constant.
	s := NewServer(Config{Workers: 2, Registry: obs.NewRegistry()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	if got := s.retryAfter(); got != "1" {
		t.Errorf("retryAfter before observations = %q, want \"1\"", got)
	}
	plain := NewServer(Config{Workers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = plain.Shutdown(ctx)
	}()
	if got := plain.retryAfter(); got != "1" {
		t.Errorf("disabled retryAfter = %q, want \"1\"", got)
	}
}

// TestServeStatsLatencyQuantiles: /v1/stats exposes per-endpoint and
// per-phase quantile digests derived from the same histograms /metrics
// exports.
func TestServeStatsLatencyQuantiles(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, Registry: obs.NewRegistry()})
	req := PlanRequest{Chain: testChain(10, 9),
		Platform: PlatformSpec{Workers: 4, Memory: 1e10, Bandwidth: 1.2e10},
		Options:  OptionsSpec{Parallel: 1}}
	for i := 0; i < 3; i++ {
		if resp, body := postJSON(t, hs.URL+"/v1/plan", req); resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	hr, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st ServerStats
	if err := json.NewDecoder(hr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	sum, ok := st.Latency["/v1/plan"]
	if !ok || sum.Count != 3 {
		t.Fatalf("latency[/v1/plan] = %+v (present %v), want 3 samples", sum, ok)
	}
	if sum.P50NS == 0 || sum.P50NS > sum.P90NS || sum.P90NS > sum.P99NS || sum.P99NS > sum.P999NS {
		t.Errorf("quantiles not monotone: %+v", sum)
	}
	if ph, ok := st.Latency["phase/plan"]; !ok || ph.Count != 1 {
		t.Errorf("latency[phase/plan] = %+v (present %v), want the single miss", ph, ok)
	}
	if ph, ok := st.Latency["phase/memo"]; !ok || ph.Count != 3 {
		t.Errorf("latency[phase/memo] = %+v (present %v), want every request", ph, ok)
	}

	// The same histogram family reaches Prometheus exposition.
	hr, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	for _, want := range []string{
		"# TYPE madpipe_serve_req_plan histogram",
		"madpipe_serve_req_plan_count 3",
		`madpipe_serve_req_plan_bucket{le="+Inf"} 3`,
		"madpipe_serve_span_memo_count 3",
		"madpipe_serve_slo_", // counter family present
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServeLargeParallelDefault: requests that leave options.parallel
// unset get Config.LargeParallel as their worker budget exactly when
// the resolved chain reaches Config.LargeChainLayers; shorter chains
// keep Config.Parallel, an explicit parallel always wins, and the two
// resolutions of the same chain produce distinct fingerprints (the
// effective budget is part of the memo key).
func TestServeLargeParallelDefault(t *testing.T) {
	_, hs := newTestServer(t, Config{LargeParallel: 2, LargeChainLayers: 8})
	plat := PlatformSpec{Workers: 4, Memory: 1e10, Bandwidth: 1.2e10}
	post := func(n int, par int) (parallel, workers int, fp string) {
		t.Helper()
		resp, body := postJSON(t, hs.URL+"/v1/plan", PlanRequest{
			Chain:    testChain(n, 3),
			Platform: plat,
			Options:  OptionsSpec{Parallel: par},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan(n=%d, parallel=%d): status %d: %s", n, par, resp.StatusCode, body)
		}
		var rep struct {
			Options struct {
				Parallel int `json:"parallel"`
				Workers  int `json:"workers"`
			} `json:"options"`
		}
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		return rep.Options.Parallel, rep.Options.Workers, resp.Header.Get(HeaderFingerprint)
	}

	gotPar, gotW, fpLifted := post(8, 0) // at threshold, unset -> lifted
	if gotPar != 2 || gotW != 2 {
		t.Errorf("large chain, parallel unset: got parallel=%d workers=%d, want 2/2", gotPar, gotW)
	}
	if gotPar, gotW, _ = post(7, 0); gotPar != 1 || gotW != 1 { // below threshold
		t.Errorf("short chain, parallel unset: got parallel=%d workers=%d, want 1/1", gotPar, gotW)
	}
	var fpExplicit string
	if gotPar, gotW, fpExplicit = post(8, 1); gotPar != 1 || gotW != 1 { // explicit wins
		t.Errorf("large chain, explicit parallel=1: got parallel=%d workers=%d, want 1/1", gotPar, gotW)
	}
	if fpLifted == fpExplicit {
		t.Errorf("lifted and explicit resolutions of the same chain share fingerprint %s; the effective budget must be keyed", fpLifted)
	}
}
