// Command madpipeload drives a running madpiped with a serving mix and
// reports plans/sec, p50/p99/p999 latency and the memo hit rate at each
// requested concurrency level, e.g.:
//
//	madpipeload -addr 127.0.0.1:7333 -c 1,8,64 -n 200
//
// The mix mirrors the paper's Fig 6/7 shape: a hot set of repeated
// (chain, platform) cells that should hit the plan memo after first
// contact, interleaved with cold cells (unique memory limits) that must
// plan — cold cells still reuse warm DP tables, since the planner's
// table keys do not include the memory limit.
//
// Latencies are recorded into the same log-spaced mergeable histogram
// the daemon itself uses (internal/obs.Hist), so the client's quantiles
// and the daemon's /v1/stats summaries are directly comparable. After
// the levels run, the daemon's /v1/stats is scraped twice and diffed
// (obs.Snapshot.Delta) into a per-phase attribution table: where the
// run's server-side time went (queue, memo, plan, marshal, ...).
// -tail N additionally prints the daemon's last N requests from
// /debug/requests.
//
// With -smoke it instead runs the deterministic daemon smoke used by
// scripts/verify.sh: health check, a Fig 6 plan posted three times (the
// byte-identical repeat and an indented re-encoding must both be memo
// hits with the miss's fingerprint and a byte-identical body, all three
// visible in order in /debug/requests, and /v1/stats must count exactly
// one body-alias hit), a frontier request, and a /metrics scrape
// asserting the counter and histogram families — all through Go's HTTP
// client, no curl needed. -out writes the Fig 6 plan body for
// field-level comparison against the committed
// results/planreport_fig6.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"madpipe/internal/nets"
	"madpipe/internal/obs"
)

func main() {
	var (
		addr   = flag.String("addr", "127.0.0.1:7333", "madpiped address (host:port)")
		smoke  = flag.Bool("smoke", false, "run the verify.sh smoke sequence instead of the load mix")
		out    = flag.String("out", "", "with -smoke: write the Fig 6 plan response body to this file")
		netNm  = flag.String("net", "resnet50", "network the mix plans: a CNN profile (resnet50, ...) or a transformer preset (gpt2, gpt2-xl, llama7b — planned via exact run coarsening)")
		raw    = flag.Bool("raw", false, "with a transformer preset: plan the raw op-granularity chain (no coarsening), leaving options.parallel unset so the daemon's -large-parallel budget applies; raw probes cost far more than coarsened ones — pair with a small -n")
		levels = flag.String("c", "1,8,64", "comma-separated concurrency levels")
		n      = flag.Int("n", 200, "requests per concurrency level")
		hot    = flag.Int("hot", 4, "hot-set size (distinct repeated cells)")
		coldEv = flag.Int("cold-every", 8, "issue a cold (never-seen) cell every this many requests (0 disables)")
		tail   = flag.Int("tail", 0, "after the load run, print the daemon's last N requests from /debug/requests")
	)
	flag.Parse()
	base := "http://" + *addr
	if *smoke {
		if err := runSmoke(base, *out); err != nil {
			fmt.Fprintln(os.Stderr, "madpipeload: smoke:", err)
			os.Exit(1)
		}
		fmt.Println("smoke: OK")
		return
	}
	cs, err := parseLevels(*levels)
	if err != nil {
		fmt.Fprintln(os.Stderr, "madpipeload:", err)
		os.Exit(1)
	}
	before := scrapeObs(base) // best-effort: nil if the daemon has no obs
	fmt.Printf("%-4s %10s %10s %10s %10s %9s %7s\n", "c", "plans/sec", "p50-ms", "p99-ms", "p999-ms", "hit-rate", "errors")
	// One cold-cell sequence across all levels, so a later level's cold
	// requests are genuinely never-seen rather than replays of an
	// earlier level's.
	var coldSeq atomic.Int64
	for _, c := range cs {
		r := runLevel(base, *netNm, *raw, c, *n, *hot, *coldEv, &coldSeq)
		fmt.Printf("%-4d %10.1f %10.2f %10.2f %10.2f %8.1f%% %7d\n",
			c, r.rate, r.p50.Seconds()*1e3, r.p99.Seconds()*1e3, r.p999.Seconds()*1e3, 100*r.hitRate, r.errors)
	}
	if after := scrapeObs(base); before != nil && after != nil {
		printAttribution(after.Delta(*before))
	}
	if *tail > 0 {
		if err := printTail(base, *tail); err != nil {
			fmt.Fprintln(os.Stderr, "madpipeload: tail:", err)
		}
	}
}

func parseLevels(s string) ([]int, error) {
	var cs []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad concurrency level %q", f)
		}
		cs = append(cs, v)
	}
	return cs, nil
}

// planBody renders a /v1/plan request for one serving cell. memGB keys
// the cell: hot cells reuse a small ladder, cold cells get fresh
// values. Parallel is pinned to 1 so responses are machine-independent.
// CNN profiles plan through the greedy max_chain=24 pass; transformer
// presets plan through exact run coarsening (coarsen_group=8), matching
// expt.ServingMix. With raw set, transformer presets instead plan the
// uncoarsened op-granularity chain on the 8-worker platform (the
// blocked-table regime), leaving parallel unset so the daemon's
// -large-parallel default applies. Raw requests pin the special-mode
// 21x5x21 discretization — the default grid would cost minutes per
// probe — and a two-probe iteration budget bounds each cold request
// to one concurrent round of raw DP solves, the shape
// expt.ServingMixRaw replays in the serving benchmarks.
func planBody(net string, memGB float64, raw bool) []byte {
	netSpec := fmt.Sprintf(`{"name":%q,"batch":8,"size":1000}`, net)
	platform := fmt.Sprintf(`{"workers":4,"memory_gb":%g,"bandwidth_gb":12}`, memGB)
	opts := `"max_chain":24,"parallel":1`
	if _, ok := nets.TransformerPreset(net); ok {
		opts = `"coarsen_group":8,"parallel":1`
		if raw {
			netSpec = fmt.Sprintf(`{"name":%q,"batch":8,"size":1000,"blocks":256,"granularity":8}`, net)
			platform = fmt.Sprintf(`{"workers":8,"memory_gb":%g,"bandwidth_gb":300}`, memGB)
			opts = `"iterations":2,"disc_tp":21,"disc_mp":5,"disc_v":21`
		}
	}
	return []byte(fmt.Sprintf(`{"net":%s,"platform":%s,"options":{%s}}`, netSpec, platform, opts))
}

type levelResult struct {
	rate    float64
	p50     time.Duration
	p99     time.Duration
	p999    time.Duration
	hitRate float64
	errors  int
}

func runLevel(base, net string, raw bool, c, n, hot, coldEvery int, coldSeq *atomic.Int64) levelResult {
	var (
		next   atomic.Int64
		hits   atomic.Int64
		errors atomic.Int64
		lats   obs.Hist // lock-free; workers observe concurrently
		wg     sync.WaitGroup
	)
	// Hot memory ladder. Transformer presets carry far more weight and
	// activation state than the CNNs, so their ladder starts higher and
	// steps wider; both ladders key distinct memo cells all the same.
	ladderBase, ladderStep := 8.0, 1.0 // hot ladder: 8,9,... GB
	if _, ok := nets.TransformerPreset(net); ok {
		ladderBase, ladderStep = 24, 8 // 24,32,... GB
		if raw {
			// Raw op-granularity chains hold per-op activation state:
			// the feasible band sits in the TB range (ServingMixRaw).
			ladderBase, ladderStep = 2000, 400
		}
	}
	clientTimeout := 2 * time.Minute
	if raw {
		// A raw miss is a multi-ten-second DP solve and concurrent
		// clients queue behind each other's misses, so the coarsened
		// mix's 2-minute cap would convert queue wait into spurious
		// client-side errors.
		clientTimeout = 15 * time.Minute
	}
	client := &http.Client{Timeout: clientTimeout}
	start := time.Now()
	wg.Add(c)
	for w := 0; w < c; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				memGB := ladderBase + ladderStep*float64(i%hot)
				if coldEvery > 0 && i%coldEvery == coldEvery-1 {
					// A memory limit no other request uses: misses the
					// memo, but shares warm DP tables with the hot set.
					memGB = ladderBase + 1e-4*float64(coldSeq.Add(1))
				}
				t0 := time.Now()
				resp, err := client.Post(base+"/v1/plan", "application/json", bytes.NewReader(planBody(net, memGB, raw)))
				if err != nil {
					errors.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				d := time.Since(t0)
				if resp.StatusCode != http.StatusOK {
					errors.Add(1)
					continue
				}
				if resp.Header.Get("X-Madpipe-Memo") == "hit" {
					hits.Add(1)
				}
				lats.ObserveDuration(d)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	s := lats.Snapshot()
	res := levelResult{errors: int(errors.Load())}
	if s.Count > 0 {
		res.rate = float64(s.Count) / elapsed.Seconds()
		res.p50 = time.Duration(s.Quantile(0.50))
		res.p99 = time.Duration(s.Quantile(0.99))
		res.p999 = time.Duration(s.Quantile(0.999))
		res.hitRate = float64(hits.Load()) / float64(s.Count)
	}
	return res
}

// --- server-side attribution ---

// statsBody is the slice of GET /v1/stats madpipeload consumes: the
// registry snapshot with its histogram families, and the body-alias
// census.
type statsBody struct {
	Obs   obs.Snapshot `json:"obs"`
	Alias struct {
		Hits uint64 `json:"hits"`
	} `json:"alias"`
}

// scrapeStats fetches the daemon's /v1/stats, or nil when it cannot be
// read.
func scrapeStats(base string) *statsBody {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var st statsBody
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil {
		return nil
	}
	return &st
}

// scrapeObs fetches the daemon's registry snapshot, or nil when the
// daemon runs without observability (older daemon, no registry).
func scrapeObs(base string) *obs.Snapshot {
	st := scrapeStats(base)
	if st == nil || (st.Obs.Counters == nil && st.Obs.Hists == nil) {
		return nil
	}
	return &st.Obs
}

// printAttribution renders where the run's server-side time went: one
// row per span phase from the scrape-twice histogram delta, with each
// phase's share of the total request time.
func printAttribution(d obs.Snapshot) {
	var totalNS float64
	for name, h := range d.Hists {
		if strings.HasPrefix(name, "serve_req_") {
			totalNS += float64(h.Sum)
		}
	}
	if totalNS == 0 {
		return
	}
	fmt.Printf("\nserver-side attribution (this run, via /v1/stats delta):\n")
	fmt.Printf("%-8s %8s %10s %8s %10s %10s\n", "phase", "count", "total-ms", "share", "p50-ms", "p99-ms")
	for _, p := range obs.SpanPhases() {
		h, ok := d.Hists["serve_span_"+p.String()]
		if !ok || h.Count == 0 {
			continue
		}
		fmt.Printf("%-8s %8d %10.2f %7.1f%% %10.3f %10.3f\n",
			p.String(), h.Count, float64(h.Sum)/1e6, 100*float64(h.Sum)/totalNS,
			float64(h.Quantile(0.50))/1e6, float64(h.Quantile(0.99))/1e6)
	}
}

// debugRequests mirrors serve.DebugRequests for decoding.
type debugRequests struct {
	Recorder obs.FlightStats  `json:"recorder"`
	Requests []obs.SpanRecord `json:"requests"`
	Notable  []obs.SpanRecord `json:"notable"`
}

// fetchTail pulls the daemon's flight-recorder tail.
func fetchTail(base string, n int) (*debugRequests, error) {
	url := base + "/debug/requests"
	if n > 0 {
		url += "?n=" + strconv.Itoa(n)
	}
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d (daemon without observability?)", resp.StatusCode)
	}
	var dbg debugRequests
	if err := json.NewDecoder(resp.Body).Decode(&dbg); err != nil {
		return nil, err
	}
	return &dbg, nil
}

// printTail renders the daemon's last n requests.
func printTail(base string, n int) error {
	dbg, err := fetchTail(base, n)
	if err != nil {
		return err
	}
	fmt.Printf("\nlast %d requests (/debug/requests, daemon total %d, %d slow, %d shed):\n",
		len(dbg.Requests), dbg.Recorder.Total, dbg.Recorder.Slow, dbg.Recorder.Shed)
	fmt.Printf("%-6s %-13s %4s %-5s %10s %10s %10s\n", "seq", "endpoint", "st", "memo", "dur-ms", "plan-ms", "queue-ms")
	for _, r := range dbg.Requests {
		fmt.Printf("%-6d %-13s %4d %-5s %10.2f %10.3f %10.3f\n",
			r.Seq, r.Endpoint, r.Status, r.Memo, float64(r.DurNS)/1e6,
			float64(r.Phases[obs.SpanPlan])/1e6, float64(r.Phases[obs.SpanQueue])/1e6)
	}
	return nil
}

// --- smoke mode ---

// fig6Plan is the pinned Fig 6 cell: ResNet-50 (batch 8, size 1000)
// coarsened to 24 nodes on P=4, M=10 GB, beta=12 GB/s, planned with the
// committed report's parallel=8 budget so predicted_period matches
// results/planreport_fig6.json bit-for-bit.
const fig6Plan = `{"net":{"name":"resnet50","batch":8,"size":1000},"platform":{"workers":4,"memory_gb":10,"bandwidth_gb":12},"options":{"max_chain":24,"parallel":8}}`

const fig6Frontier = `{"net":{"name":"resnet50","batch":8,"size":1000},"platform":{"workers":4,"bandwidth_gb":12},"options":{"max_chain":24,"parallel":8},"mems_gb":[4,6,8,10]}`

func runSmoke(base, out string) error {
	client := &http.Client{Timeout: 2 * time.Minute}

	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}

	// The byte-identical repeat is served through the body alias, the
	// indented re-encoding through the fingerprint; both must be hits
	// carrying the miss's fingerprint and bytes.
	var reencoded bytes.Buffer
	if err := json.Indent(&reencoded, []byte(fig6Plan), "", "  "); err != nil {
		return err
	}
	var body1 []byte
	var fp1 string
	for i, req := range []string{fig6Plan, fig6Plan, reencoded.String()} {
		status, memo, fp, body, err := post(client, base+"/v1/plan", req)
		if err != nil {
			return fmt.Errorf("plan #%d: %w", i+1, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("plan #%d: status %d: %s", i+1, status, trim(body))
		}
		if i == 0 {
			if memo != "miss" {
				return fmt.Errorf("plan #1: expected memo miss, got %q", memo)
			}
			body1, fp1 = body, fp
			continue
		}
		if memo != "hit" {
			return fmt.Errorf("plan #%d: expected memo hit, got %q", i+1, memo)
		}
		if fp == "" || fp != fp1 {
			return fmt.Errorf("plan #%d: fingerprint %q, want the miss's %q", i+1, fp, fp1)
		}
		if !bytes.Equal(body1, body) {
			return fmt.Errorf("plan #%d: memo hit body differs from miss body (%d vs %d bytes)", i+1, len(body1), len(body))
		}
	}
	fmt.Printf("smoke: plan served (%d bytes), byte-identical and re-encoded memo hits bit-identical\n", len(body1))
	if out != "" {
		if err := os.WriteFile(out, body1, 0o644); err != nil {
			return err
		}
	}

	// The flight recorder must list the three plan requests in
	// completion order: the miss (with planner time attributed) then the
	// two hits.
	dbg, err := fetchTail(base, 0)
	if err != nil {
		return fmt.Errorf("debug/requests: %w", err)
	}
	if len(dbg.Requests) < 3 {
		return fmt.Errorf("debug/requests: %d records, want the 3 smoke plans", len(dbg.Requests))
	}
	recs := dbg.Requests[len(dbg.Requests)-3:]
	miss := recs[0]
	if miss.Memo != "miss" {
		return fmt.Errorf("debug/requests: first smoke plan memo %q, want miss", miss.Memo)
	}
	if miss.Phases[obs.SpanPlan] <= 0 {
		return fmt.Errorf("debug/requests: miss carries no planner time: %+v", miss.Phases)
	}
	for i, hit := range recs[1:] {
		if hit.Memo != "hit" {
			return fmt.Errorf("debug/requests: smoke plan #%d memo %q, want hit", i+2, hit.Memo)
		}
		if recs[i].Seq >= hit.Seq {
			return fmt.Errorf("debug/requests: out of completion order (seq %d then %d)", recs[i].Seq, hit.Seq)
		}
		if miss.Fingerprint == "" || miss.Fingerprint != hit.Fingerprint {
			return fmt.Errorf("debug/requests: fingerprints %q vs %q, want equal", miss.Fingerprint, hit.Fingerprint)
		}
		if hit.Phases[obs.SpanPlan] != 0 {
			return fmt.Errorf("debug/requests: memo hit reached the planner: %+v", hit.Phases)
		}
	}
	fmt.Println("smoke: /debug/requests lists miss, hit, hit in order with plan-phase attribution")

	status, _, _, fbody, err := post(client, base+"/v1/frontier", fig6Frontier)
	if err != nil {
		return fmt.Errorf("frontier: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("frontier: status %d: %s", status, trim(fbody))
	}
	fmt.Printf("smoke: frontier served (%d bytes)\n", len(fbody))

	resp, err = client.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	mbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	for _, series := range []string{
		"plan_memo_hits", "plan_memo_misses", "serve_requests",
		`madpipe_serve_req_plan_bucket{le="`, "madpipe_serve_req_plan_count",
		`madpipe_serve_span_plan_bucket{le="`, "madpipe_serve_slo_",
	} {
		if !bytes.Contains(mbody, []byte(series)) {
			return fmt.Errorf("metrics: missing series %q", series)
		}
	}
	fmt.Println("smoke: /metrics exposes plan_memo_*, serve_* and the serve_req/serve_span histogram families")

	// The daemon's own quantile summaries come from the same histograms.
	st := scrapeStats(base)
	if st == nil || (st.Obs.Counters == nil && st.Obs.Hists == nil) {
		return fmt.Errorf("stats: no obs snapshot in /v1/stats")
	}
	h, ok := st.Obs.Hists["serve_req_plan"]
	if !ok || h.Count < 3 {
		return fmt.Errorf("stats: serve_req_plan histogram has %d samples, want the 3 smoke plans", h.Count)
	}
	if q := h.Quantile(0.999); q == 0 {
		return fmt.Errorf("stats: serve_req_plan p999 is zero with %d samples", h.Count)
	}
	if st.Alias.Hits != 1 {
		return fmt.Errorf("stats: %d body-alias hits, want 1 (the byte-identical repeat)", st.Alias.Hits)
	}
	fmt.Println("smoke: /v1/stats carries the serve_req_plan histogram with live quantiles and one body-alias hit")
	return nil
}

func post(client *http.Client, url, body string) (status int, memo, fp string, respBody []byte, err error) {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Madpipe-Memo"), resp.Header.Get("X-Madpipe-Fingerprint"), b, nil
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func trim(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}
