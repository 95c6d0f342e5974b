package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"madpipe/internal/chain"
	"madpipe/internal/core"
	"madpipe/internal/fingerprint"
	"madpipe/internal/obs"
	"madpipe/internal/platform"
	"madpipe/internal/trace"
)

// Config sizes the serving layer.
type Config struct {
	// Workers is the planning worker pool size (default 2). Each worker
	// owns a private core.PlannerCache — sharding by worker, not by
	// request, keeps warm-table lease sequences deterministic per worker
	// while letting distinct requests plan concurrently.
	Workers int
	// QueueDepth bounds the admission queue (default 4×Workers). A full
	// queue sheds with 429 + Retry-After instead of growing latency
	// without bound.
	QueueDepth int
	// Timeout is the per-request planning deadline (default 30s). It
	// covers queue wait plus planning; expiry cancels the planner
	// between probes and answers 504.
	Timeout time.Duration
	// Quantum is the fingerprint bucketing grid for memo keys (default
	// 0: byte-exact requests only). Chain interning always uses 0
	// regardless — interning must never change planner outputs.
	Quantum float64
	// Memo sizes the response memo.
	Memo MemoConfig
	// InternCap bounds the canonical-chain store (default 512 chains).
	// When full, new chains plan un-interned: correctness is unchanged,
	// only cross-request warm-table reuse for those chains is lost.
	InternCap int
	// TableKeyCap bounds each worker cache's distinct warm-table keys
	// (default 128). The pointer-keyed planner cache never forgets a
	// chain on its own, so a worker whose census outgrows the cap
	// releases the cache back to the shared pool and restarts cold.
	TableKeyCap int
	// Parallel is the planner worker budget applied when a request
	// leaves options.parallel unset (default 1, the sequential reference
	// search, whose probe schedule is machine-independent).
	Parallel int
	// LargeParallel, when > 0, overrides Parallel as the default worker
	// budget for requests whose resolved chain has at least
	// LargeChainLayers layers — the raw transformer regime where a
	// blocked-table probe costs double-digit seconds and a concurrent
	// bracket round closes the search in fewer rounds than the
	// sequential bisection. It is an explicit
	// count, never "all cores": the parallel search's probe schedule is
	// part of the response, so the default must be a deterministic
	// function of daemon configuration, not of the host. Requests that
	// set options.parallel themselves are never overridden. Default 0
	// (off: every request defaults to Parallel).
	LargeParallel int
	// LargeChainLayers is the resolved-chain length at which
	// LargeParallel kicks in (default 1025, the first chain length the
	// DP's column cache does not cover, whose probes compute their cut
	// scalars inline).
	LargeChainLayers int
	// Registry receives the serving metrics (plan_memo_*, serve_*). May
	// be nil. It is never handed to the planner: planner observability
	// attaches wall-clock timings to probe evaluations, and daemon
	// responses must depend only on request content.
	//
	// A non-nil Registry also enables the request-level observability
	// plane: span recording, latency histograms, SLO counters, the
	// flight recorder and /debug/requests. With a nil Registry that
	// plane costs one pointer check per request and nothing else.
	Registry *obs.Registry
	// FlightN sizes the flight recorder's rings (default 64 completed
	// requests, plus the same number of notable slow/shed requests).
	FlightN int
	// SlowThreshold marks requests at least this slow as notable in the
	// flight recorder (default: SLOTarget).
	SlowThreshold time.Duration
	// SLOTarget classifies completed requests for the serve_slo_*
	// counters: ok (within target), violations (served but slower), or
	// errors (shed / 5xx). Default 1s.
	SLOTarget time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.InternCap <= 0 {
		c.InternCap = 512
	}
	if c.TableKeyCap <= 0 {
		c.TableKeyCap = 128
	}
	if c.Parallel == 0 {
		c.Parallel = 1
	}
	if c.LargeChainLayers <= 0 {
		c.LargeChainLayers = 1025
	}
	if c.FlightN <= 0 {
		c.FlightN = 64
	}
	if c.SLOTarget <= 0 {
		c.SLOTarget = time.Second
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = c.SLOTarget
	}
	return c
}

// maxBodyBytes bounds a request body (measured chains are a few KB;
// even a 10k-layer chain is well under this). The body is read whole
// before decoding, since its digest keys the alias index, so a longer
// body is rejected with 400 even when its first JSON value is complete
// within the bound.
const maxBodyBytes = 32 << 20

// answer is one finished planning outcome: the status and exact body a
// handler writes. Memoizable answers are stored as-is, which is what
// makes a later hit bit-identical.
type answer struct {
	status int
	body   []byte
}

// memoizable reports whether the outcome is a pure function of the
// request (plan reports and deterministic infeasibility are; timeouts
// and shutdown are circumstances of this attempt).
func (a answer) memoizable() bool {
	return a.status == http.StatusOK || a.status == http.StatusUnprocessableEntity
}

// task is one admitted request travelling to a worker. sp/enq carry the
// request span and its enqueue stamp so the worker can attribute queue
// wait; both stay zero when observability is disabled.
type task struct {
	ctx  context.Context
	job  job
	done chan answer
	sp   *obs.Span
	enq  time.Time
}

// flight is a single-flight slot: the first miss for a key plans it,
// concurrent requests for the same key wait for that answer instead of
// planning it again (thundering-herd protection for expensive plans).
type flight struct {
	done chan struct{}
	ans  answer
	ok   bool // ans is memoizable and was published
}

// Server is the planning service: admission control in front of a
// worker pool, a fingerprint-keyed response memo, and a canonical-chain
// intern store that makes the planner's pointer-keyed warm caches
// effective across requests.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	robs    *requestObs // nil when Registry is nil: observability disabled
	memo    *Memo
	aliases *aliasIndex
	queue   chan *task

	workers  sync.WaitGroup
	inflight sync.WaitGroup
	draining atomic.Bool

	internMu sync.Mutex
	intern   map[fingerprint.Key]*chain.Chain

	flightMu sync.Mutex
	flights  map[fingerprint.Key]*flight

	cacheMu     sync.Mutex
	caches      []*core.PlannerCache
	cacheResets uint64

	cRequests, cPlanned, cQueueFull *obs.Counter
	cDraining, cDeadline            *obs.Counter
	cInternHits, cInternFull        *obs.Counter
	gQueueDepth                     *obs.Gauge
}

// NewServer builds the server and starts its worker pool.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	s := &Server{
		cfg:         cfg,
		reg:         reg,
		memo:        NewMemo(cfg.Memo, reg),
		aliases:     newAliasIndex(reg),
		queue:       make(chan *task, cfg.QueueDepth),
		intern:      make(map[fingerprint.Key]*chain.Chain),
		flights:     make(map[fingerprint.Key]*flight),
		caches:      make([]*core.PlannerCache, cfg.Workers),
		cRequests:   reg.Counter("serve_requests"),
		cPlanned:    reg.Counter("serve_planned"),
		cQueueFull:  reg.Counter("serve_shed_queue_full"),
		cDraining:   reg.Counter("serve_shed_draining"),
		cDeadline:   reg.Counter("serve_deadline_exceeded"),
		cInternHits: reg.Counter("serve_intern_hits"),
		cInternFull: reg.Counter("serve_intern_full"),
		gQueueDepth: reg.Gauge("serve_queue_depth_peak"),
	}
	if reg != nil {
		s.robs = newRequestObs(cfg, reg)
	}
	for i := range s.caches {
		s.caches[i] = core.NewPlannerCache()
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(i)
	}
	return s
}

// Mux returns the daemon's full endpoint set: the planning API layered
// over the registry's observability mux (/metrics, /debug/vars,
// /debug/pprof) when a registry is attached.
func (s *Server) Mux() *http.ServeMux {
	var mux *http.ServeMux
	if s.reg != nil {
		mux = s.reg.NewMux()
	} else {
		mux = http.NewServeMux()
	}
	mux.HandleFunc("/v1/plan", s.handlePlan)
	mux.HandleFunc("/v1/frontier", s.handleFrontier)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if s.robs != nil {
		// The flight-recorder tail only exists with observability on;
		// disabled servers 404 here like any unregistered path.
		mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	}
	return mux
}

// Shutdown drains the server: new requests are shed with 503, requests
// already admitted run to completion (or ctx expiry), then the worker
// pool stops and the planner caches return their tables to the shared
// pool. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	finished := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
	close(s.queue)
	s.workers.Wait()
	s.cacheMu.Lock()
	caches := s.caches
	s.caches = nil
	s.cacheMu.Unlock()
	for _, pc := range caches {
		pc.Release(s.reg)
	}
	return nil
}

// canonicalChain returns the interned instance for c's exact content,
// interning it on first sight. The planner's warm caches key by chain
// pointer, so without this every decoded request body would be a new
// chain and warm tables would never be reused across requests.
// Interning is byte-exact (quantum 0): it must never change outputs.
func (s *Server) canonicalChain(c *chain.Chain) *chain.Chain {
	k := fingerprint.ChainKey(c, 0)
	s.internMu.Lock()
	defer s.internMu.Unlock()
	if cc, ok := s.intern[k]; ok {
		s.cInternHits.Inc()
		return cc
	}
	if len(s.intern) >= s.cfg.InternCap {
		s.cInternFull.Inc()
		return c
	}
	s.intern[k] = c
	return c
}

// ServerStats is the body of GET /v1/stats. Latency, SLO and Flight
// appear only when the observability plane is enabled; Latency keys are
// endpoint paths plus "phase/<name>" per-phase digests, all derived
// from the same histograms /metrics exposes.
type ServerStats struct {
	Memo        MemoStats                 `json:"memo"`
	Alias       AliasStats                `json:"alias"`
	Workers     []core.CacheStats         `json:"workers"`
	CacheResets uint64                    `json:"cache_resets"`
	Interned    int                       `json:"interned_chains"`
	Draining    bool                      `json:"draining"`
	Latency     map[string]LatencySummary `json:"latency,omitempty"`
	SLO         *SLOStats                 `json:"slo,omitempty"`
	Flight      *obs.FlightStats          `json:"flight,omitempty"`
	Obs         obs.Snapshot              `json:"obs,omitempty"`
}

// Stats returns the server's current census.
func (s *Server) Stats() ServerStats {
	st := ServerStats{Memo: s.memo.Stats(), Alias: s.aliases.stats(), Draining: s.draining.Load()}
	if s.robs != nil {
		st.Latency = s.robs.latency()
		st.SLO = s.robs.slo()
		fs := s.robs.flight.Stats()
		st.Flight = &fs
	}
	s.cacheMu.Lock()
	st.CacheResets = s.cacheResets
	for _, pc := range s.caches {
		st.Workers = append(st.Workers, pc.Stats())
	}
	s.cacheMu.Unlock()
	s.internMu.Lock()
	st.Interned = len(s.intern)
	s.internMu.Unlock()
	if s.reg != nil {
		st.Obs = s.reg.Snapshot()
	}
	return st
}

// --- handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// DebugRequests is the body of GET /debug/requests: the flight
// recorder's census plus the most recent completed requests (in
// completion order) and the pinned notable (slow/shed) ones.
type DebugRequests struct {
	Recorder obs.FlightStats  `json:"recorder"`
	Requests []obs.SpanRecord `json:"requests"`
	Notable  []obs.SpanRecord `json:"notable,omitempty"`
}

// handleDebugRequests serves the flight-recorder tail. ?n= bounds both
// lists (default: everything retained); ?trace=1 renders the recent
// requests as a Perfetto/Chrome trace instead of the JSON tail.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("n must be a non-negative integer, got %q", v), nil)
			return
		}
		n = p
	}
	recent := s.robs.flight.Tail(n)
	if r.URL.Query().Get("trace") == "1" {
		f := trace.FromSpanRecords(recent)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="madpipe-requests.trace.json"`)
		_ = json.NewEncoder(w).Encode(f)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(DebugRequests{
		Recorder: s.robs.flight.Stats(),
		Requests: recent,
		Notable:  s.robs.flight.Notable(n),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Stats())
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	s.handle(w, r, "/v1/plan", s.keyPlan)
}

func (s *Server) handleFrontier(w http.ResponseWriter, r *http.Request) {
	s.handle(w, r, "/v1/frontier", s.keyFrontier)
}

// handle is the request path both planning endpoints share. After
// admission, a body this server has already keyed goes straight to the
// memo through its alias; every other request (and an alias whose memo
// entry is gone) is decoded, resolved and fingerprinted by keyJob, whose
// error is the request's 400, and then served by serveJob.
func (s *Server) handle(w http.ResponseWriter, r *http.Request, endpoint string, keyJob func(body []byte) (fingerprint.Key, job, error)) {
	sp := s.robs.start(endpoint)
	defer s.robs.finish(sp)
	t0 := sp.Clock()
	body, digest, ok := s.admit(w, r, endpoint, sp, t0)
	if !ok {
		return
	}
	defer s.inflight.Done()
	if key, ok := s.aliases.get(digest); ok {
		sp.Since(obs.SpanAdmit, t0)
		if s.serveMemo(w, key, sp) {
			s.aliases.hit()
			return
		}
		// Evicted or expired: the full path re-derives the same key and
		// counts this request's one memo miss.
		t0 = sp.Clock()
	}
	key, j, err := keyJob(body)
	sp.Since(obs.SpanAdmit, t0)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err, sp)
		return
	}
	s.aliases.put(digest, key)
	s.serveJob(w, r, key, j, sp)
}

// keyPlan decodes, resolves and fingerprints a /v1/plan body.
func (s *Server) keyPlan(body []byte) (fingerprint.Key, job, error) {
	var req PlanRequest
	if err := decodeRequest(body, &req); err != nil {
		return fingerprint.Key{}, nil, err
	}
	c, plat, opts, err := s.resolve(req.Chain, req.Net, req.Platform, req.Options)
	if err != nil {
		return fingerprint.Key{}, nil, err
	}
	key := fingerprint.PlanKey(c, plat, withMaxChain(opts, req.Options.MaxChain), req.Schedule, s.cfg.Quantum)
	return key, &planJob{c: c, plat: plat, opts: opts, maxChain: req.Options.MaxChain, schedule: req.Schedule}, nil
}

// keyFrontier decodes, resolves and fingerprints a /v1/frontier body.
func (s *Server) keyFrontier(body []byte) (fingerprint.Key, job, error) {
	var req FrontierRequest
	if err := decodeRequest(body, &req); err != nil {
		return fingerprint.Key{}, nil, err
	}
	mems, err := req.mems()
	if err != nil {
		return fingerprint.Key{}, nil, err
	}
	// The ladder replaces the platform's own memory limit (PlanFrontier
	// ignores it; FrontierKey excludes it), so requests may omit it —
	// substitute the ladder's top so platform validation still covers
	// the fields that do matter.
	if req.Platform.Memory == 0 && req.Platform.MemoryGB == 0 {
		req.Platform.Memory = maxOf(mems)
	}
	c, plat, opts, err := s.resolve(req.Chain, req.Net, req.Platform, req.Options)
	if err != nil {
		return fingerprint.Key{}, nil, err
	}
	key := fingerprint.FrontierKey(c, plat, mems, withMaxChain(opts, req.Options.MaxChain), s.cfg.Quantum)
	return key, &frontierJob{c: c, plat: plat, opts: opts, maxChain: req.Options.MaxChain, mems: mems}, nil
}

// decodeRequest decodes the first JSON value of body into req, refusing
// unknown fields.
func decodeRequest(body []byte, req any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

func maxOf(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// withMaxChain folds the request's coarsening bound into the options
// hashed for the fingerprint. The executed options keep it zero — the
// worker coarsens through the intern store instead — but two requests
// differing only in max_chain are different plans and must not collide.
func withMaxChain(opts core.Options, maxChain int) core.Options {
	opts.MaxChainLength = maxChain
	return opts
}

// admit runs the shared request gate: method, drain state, body read
// and digest, inflight accounting. On a false return the response is
// written; on true the caller owns one inflight slot and must Done it.
// t0 is the caller's admit-phase origin (sp.Clock() at handler entry)
// so rejected requests still attribute their gate time; the caller
// stamps the admitted path itself.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, endpoint string, sp *obs.Span, t0 time.Time) ([]byte, bodyDigest, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		sp.Since(obs.SpanAdmit, t0)
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"), sp)
		return nil, bodyDigest{}, false
	}
	s.cRequests.Inc()
	if s.draining.Load() {
		sp.Since(obs.SpanAdmit, t0)
		s.shed(w, http.StatusServiceUnavailable, "draining", sp)
		return nil, bodyDigest{}, false
	}
	// The body lands behind endpoint and a zero byte, so one SHA-256
	// over the buffer is the alias digest without copying the body. The
	// declared length presizes the buffer only up to 1 MB, so a client
	// cannot make the daemon reserve more than that before sending it.
	var buf bytes.Buffer
	buf.Grow(len(endpoint) + 1 + bytes.MinRead + int(min(max(r.ContentLength, 0), 1<<20)))
	buf.WriteString(endpoint)
	buf.WriteByte(0)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		sp.Since(obs.SpanAdmit, t0)
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("read request: %w", err), sp)
		return nil, bodyDigest{}, false
	}
	digest := bodyDigest(sha256.Sum256(buf.Bytes()))
	s.inflight.Add(1)
	// Drain may have flipped between the check and Add; re-check so
	// Shutdown's inflight.Wait cannot miss us racing in.
	if s.draining.Load() {
		s.inflight.Done()
		sp.Since(obs.SpanAdmit, t0)
		s.shed(w, http.StatusServiceUnavailable, "draining", sp)
		return nil, bodyDigest{}, false
	}
	return buf.Bytes()[len(endpoint)+1:], digest, true
}

// resolve materializes and validates the request's chain (canonical
// instance), platform and options.
func (s *Server) resolve(c *chain.Chain, net *NetSpec, ps PlatformSpec, os OptionsSpec) (*chain.Chain, platform.Platform, core.Options, error) {
	rc, err := resolveChain(c, net)
	if err != nil {
		return nil, platform.Platform{}, core.Options{}, err
	}
	plat := ps.Platform()
	if err := plat.Validate(); err != nil {
		return nil, platform.Platform{}, core.Options{}, err
	}
	if plat.Workers > core.MaxDPIndex {
		return nil, platform.Platform{}, core.Options{}, fmt.Errorf("workers must be at most %d (the planner's processor limit), got %d", core.MaxDPIndex, plat.Workers)
	}
	if err := finiteCosts(rc, plat); err != nil {
		return nil, platform.Platform{}, core.Options{}, err
	}
	if os.MaxChain < 0 {
		return nil, platform.Platform{}, core.Options{}, fmt.Errorf("max_chain must be >= 0, got %d", os.MaxChain)
	}
	// Large-chain requests that leave parallel unset get the daemon's
	// LargeParallel budget: the threshold tests the resolved (raw) chain
	// length, so the decision depends only on request content and daemon
	// configuration, and the effective budget lands in the fingerprint
	// the handlers compute from the returned options.
	defPar := s.cfg.Parallel
	if s.cfg.LargeParallel > 0 && os.Parallel == 0 && rc.Len() >= s.cfg.LargeChainLayers {
		defPar = s.cfg.LargeParallel
	}
	opts, err := os.coreOptions(defPar)
	if err != nil {
		return nil, platform.Platform{}, core.Options{}, err
	}
	return rc, plat, opts, nil
}

// finiteCosts rejects a chain and platform whose total compute or
// communication time overflows: finite fields can still sum to +Inf
// (layer times near 1e308, a latency of 1e308, a bandwidth of 1e-300),
// and the planner would then search an infinite period range and fail
// to encode its report. The error names the field at fault: chain when
// the layer times overflow, latency when the per-link latencies alone
// do, bandwidth otherwise.
func finiteCosts(c *chain.Chain, plat platform.Platform) error {
	u := c.TotalU()
	if math.IsInf(u, 1) {
		return fmt.Errorf("chain: total layer compute time overflows (%g)", u)
	}
	if !math.IsInf(u+c.TotalCommTimeAlphaBeta(plat.Latency, plat.Bandwidth), 1) {
		return nil
	}
	if math.IsInf(c.TotalCommTimeAlphaBeta(plat.Latency, math.Inf(1)), 1) {
		return fmt.Errorf("latency %g makes the chain's total communication time overflow", plat.Latency)
	}
	return fmt.Errorf("bandwidth %g makes the chain's total communication time overflow", plat.Bandwidth)
}

// serveMemo writes key's memoized answer as a hit and counts it, or
// reports false having written nothing but the fingerprint header.
func (s *Server) serveMemo(w http.ResponseWriter, key fingerprint.Key, sp *obs.Span) bool {
	fp := key.String()
	sp.SetFingerprint(fp)
	w.Header().Set(HeaderFingerprint, fp)
	tm := sp.Clock()
	status, body, hit := s.memo.lookup(key, time.Now())
	sp.Since(obs.SpanMemo, tm)
	if !hit {
		return false
	}
	s.memo.count(true)
	s.writeAnswer(w, answer{status, body}, "hit", sp)
	return true
}

// serveJob is the memo + single-flight + worker-pool path shared by the
// plan and frontier handlers. It counts the request's memo outcome once,
// where the outcome is decided: a waiter on a concurrent plan of its key
// is a hit when the leader publishes, never a miss as well.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, key fingerprint.Key, job job, sp *obs.Span) {
	if s.serveMemo(w, key, sp) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	// The span rides the context into the worker and from there into the
	// planner's *Ctx entry points (queue, intern, plan, marshal phases).
	ctx = obs.WithSpan(ctx, sp)
	for {
		fl, leader := s.joinFlight(key)
		if leader {
			s.memo.count(false)
			ans := s.dispatch(ctx, job, sp)
			if ans.memoizable() {
				s.memo.Put(key, ans.status, ans.body, time.Now())
			}
			s.leaveFlight(key, fl, ans)
			s.writeAnswer(w, ans, "miss", sp)
			return
		}
		tf := sp.Clock()
		select {
		case <-fl.done:
			sp.Since(obs.SpanFlight, tf)
			if fl.ok {
				// The leader's answer is exactly what we would have
				// computed; count it as the memo hit it effectively is.
				s.memo.count(true)
				s.writeAnswer(w, fl.ans, "hit", sp)
				return
			}
			// Leader hit a circumstance (timeout, shutdown), not a
			// property of the request: plan it ourselves.
		case <-ctx.Done():
			sp.Since(obs.SpanFlight, tf)
			s.memo.count(false)
			s.cDeadline.Inc()
			s.writeError(w, http.StatusGatewayTimeout, fmt.Errorf("deadline exceeded waiting for concurrent plan of this request"), sp)
			return
		}
	}
}

// joinFlight registers interest in key: the first caller becomes leader
// (and must leaveFlight), later callers get the leader's flight.
func (s *Server) joinFlight(key fingerprint.Key) (*flight, bool) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if fl, ok := s.flights[key]; ok {
		return fl, false
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[key] = fl
	return fl, true
}

func (s *Server) leaveFlight(key fingerprint.Key, fl *flight, ans answer) {
	s.flightMu.Lock()
	delete(s.flights, key)
	s.flightMu.Unlock()
	fl.ans = ans
	fl.ok = ans.memoizable()
	close(fl.done)
}

// dispatch queues the job on the worker pool and waits for its answer,
// shedding when the queue is full and giving up at the deadline.
func (s *Server) dispatch(ctx context.Context, job job, sp *obs.Span) answer {
	t := &task{ctx: ctx, job: job, done: make(chan answer, 1)}
	if sp != nil {
		// Stamp before the send: once the task is on the channel a worker
		// may read enq concurrently.
		t.sp, t.enq = sp, time.Now()
	}
	select {
	case s.queue <- t:
		s.gQueueDepth.Observe(uint64(len(s.queue)))
	default:
		s.cQueueFull.Inc()
		return s.shedAnswer(http.StatusTooManyRequests, "planning queue full")
	}
	select {
	case ans := <-t.done:
		return ans
	case <-ctx.Done():
		s.cDeadline.Inc()
		return errorAnswer(http.StatusGatewayTimeout, fmt.Errorf("planning deadline exceeded"))
	}
}

// --- worker pool ---

func (s *Server) worker(i int) {
	defer s.workers.Done()
	for t := range s.queue {
		if !t.enq.IsZero() {
			t.sp.Since(obs.SpanQueue, t.enq)
		}
		if err := t.ctx.Err(); err != nil {
			// The requester already gave up; don't burn planner time.
			t.done <- errorAnswer(http.StatusGatewayTimeout, fmt.Errorf("request expired in queue: %w", err))
			continue
		}
		s.cPlanned.Inc()
		t.done <- t.job.run(t.ctx, s, i)
		s.trimCache(i)
	}
}

// cache returns worker i's planner cache (nil after shutdown).
func (s *Server) cache(i int) *core.PlannerCache {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	if s.caches == nil {
		return nil
	}
	return s.caches[i]
}

// trimCache releases worker i's cache when its warm-table census
// outgrows the bound. The planner cache is pointer-keyed and never
// forgets a chain; under sustained unique-chain traffic this is what
// caps its footprint (eviction granularity is the whole cache — always
// sound, recomputation only).
func (s *Server) trimCache(i int) {
	pc := s.cache(i)
	if pc == nil || pc.Stats().TableKeys <= s.cfg.TableKeyCap {
		return
	}
	pc.Release(s.reg)
	s.cacheMu.Lock()
	s.cacheResets++
	s.cacheMu.Unlock()
}

// prepare coarsens (request-level max_chain) and interns the chain, so
// the planner sees one canonical pointer per content bucket and its
// warm caches hit across requests.
func (s *Server) prepare(c *chain.Chain, maxChain int) (*chain.Chain, error) {
	if maxChain > 0 {
		cc, err := c.Coarsen(maxChain)
		if err != nil {
			return nil, err
		}
		c = cc
	}
	return s.canonicalChain(c), nil
}

// run plans one request on worker i's cache and renders the response.
// The planner sees Obs == nil always: observability attaches wall-clock
// timings to probe evaluations, and response bodies must be a pure
// function of the request.
func (j *planJob) run(ctx context.Context, s *Server, i int) answer {
	sp := obs.SpanFrom(ctx)
	ti := sp.Clock()
	c, err := s.prepare(j.c, j.maxChain)
	sp.Since(obs.SpanIntern, ti)
	if err != nil {
		return errorAnswer(http.StatusBadRequest, err)
	}
	opts := j.opts
	opts.Cache = s.cache(i)
	var p1 *core.PhaseOneResult
	var plan *core.Plan
	if j.schedule {
		plan, err = core.PlanAndScheduleCtx(ctx, c, j.plat, opts, core.ScheduleOptions{})
		if plan != nil {
			p1 = plan.PhaseOne
		}
	} else {
		p1, err = core.PlanAllocationCtx(ctx, c, j.plat, opts)
	}
	if err != nil {
		return planErrorAnswer(ctx, err)
	}
	s.observeTableEconomics(p1)
	report := core.NewPlanReport(c, j.plat, opts, p1)
	if plan != nil {
		report.AttachSchedule(plan)
	}
	tm := sp.Clock()
	ans := renderReport(report.WriteJSON)
	sp.Since(obs.SpanMarshal, tm)
	return ans
}

func (j *frontierJob) run(ctx context.Context, s *Server, i int) answer {
	sp := obs.SpanFrom(ctx)
	ti := sp.Clock()
	c, err := s.prepare(j.c, j.maxChain)
	sp.Since(obs.SpanIntern, ti)
	if err != nil {
		return errorAnswer(http.StatusBadRequest, err)
	}
	opts := j.opts
	opts.Cache = s.cache(i)
	fr, err := core.PlanFrontierCtx(ctx, c, j.plat, j.mems, opts)
	if err != nil {
		return planErrorAnswer(ctx, err)
	}
	for i := range fr.Segments {
		s.observeTableEconomics(fr.Segments[i].Result)
	}
	tm := sp.Clock()
	ans := renderReport(core.NewFrontierReport(c, j.plat, opts, fr).WriteJSON)
	sp.Since(obs.SpanMarshal, tm)
	return ans
}

// observeTableEconomics surfaces the planner's table residency in the
// daemon's own registry after a plan completes: the
// dp_blocked_blocks_alloc / dp_blocked_resident_bytes high-water gauges
// in /v1/stats, from the blocks the plan's largest probe wrote. The
// planner itself never sees the registry (responses stay a pure
// function of the request); the probe stats the report already
// serializes carry the numbers, so the daemon reads them off the
// finished result. Every probe that ran the DP records the blocks it
// wrote; probes a hint answered record none.
func (s *Server) observeTableEconomics(p1 *core.PhaseOneResult) {
	if s.reg == nil || p1 == nil {
		return
	}
	var blocks, resident uint64
	for i := range p1.Evals {
		st := &p1.Evals[i].Stats
		if st.TableBlocksResident > blocks {
			blocks = st.TableBlocksResident
			resident = st.TableResidentBytes
		}
	}
	if blocks > 0 {
		s.reg.Gauge("dp_blocked_blocks_alloc").Observe(blocks)
		s.reg.Gauge("dp_blocked_resident_bytes").Observe(resident)
	}
}

// planErrorAnswer classifies a planner error: infeasibility and a DP
// shape past the planner's table bounds are deterministic properties of
// the request (422, memoizable); cancellation is a circumstance of this
// attempt (504, never memoized).
func planErrorAnswer(ctx context.Context, err error) answer {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled), ctx.Err() != nil:
		return errorAnswer(http.StatusGatewayTimeout, err)
	case errors.Is(err, platform.ErrInfeasible):
		return errorAnswer(http.StatusUnprocessableEntity, err)
	case errors.Is(err, core.ErrShapeTooLarge):
		return errorAnswer(http.StatusUnprocessableEntity, fmt.Errorf(
			"%w; a coarser grid (options.disc_tp/disc_mp/disc_v), a shorter chain (options.max_chain) or fewer platform.workers shrinks the state count", err))
	default:
		return errorAnswer(http.StatusInternalServerError, err)
	}
}

// renderReport marshals a report through its canonical WriteJSON (the
// same bytes cmd/madpipe -stats writes), so daemon bodies and CLI
// reports are directly diffable.
func renderReport(write func(io.Writer) error) answer {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return errorAnswer(http.StatusInternalServerError, fmt.Errorf("encode report: %w", err))
	}
	return answer{status: http.StatusOK, body: buf.Bytes()}
}

// --- response writing ---

func errorAnswer(status int, err error) answer {
	body, _ := json.Marshal(ErrorResponse{Error: err.Error()})
	return answer{status: status, body: append(body, '\n')}
}

// writeAnswer sends a finished answer, stamps the span's write phase
// and folds the response metadata into it. Shed statuses carry a
// Retry-After derived from queue depth and the observed service-time
// p50 (1s before any observations).
func (s *Server) writeAnswer(w http.ResponseWriter, ans answer, memo string, sp *obs.Span) {
	tw := sp.Clock()
	shed := ans.status == http.StatusTooManyRequests || ans.status == http.StatusServiceUnavailable
	w.Header().Set(HeaderMemo, memo)
	if shed {
		w.Header().Set("Retry-After", s.retryAfter())
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(ans.body)))
	w.WriteHeader(ans.status)
	_, _ = w.Write(ans.body)
	sp.Since(obs.SpanWrite, tw)
	sp.SetMeta(memo, ans.status, len(ans.body), shed)
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error, sp *obs.Span) {
	tw := sp.Clock()
	ans := errorAnswer(status, err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ans.status)
	_, _ = w.Write(ans.body)
	sp.Since(obs.SpanWrite, tw)
	shed := status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
	sp.SetMeta("", status, len(ans.body), shed)
}

// shed answers an overload rejection with Retry-After so well-behaved
// clients back off instead of hammering a saturated daemon.
func (s *Server) shed(w http.ResponseWriter, status int, why string, sp *obs.Span) {
	if status == http.StatusServiceUnavailable {
		s.cDraining.Inc()
	}
	w.Header().Set("Retry-After", s.retryAfter())
	s.writeError(w, status, fmt.Errorf("overloaded: %s", why), sp)
}

// shedAnswer is shed for the in-flight path (queue full on a miss).
func (s *Server) shedAnswer(status int, why string) answer {
	return answer{status: status, body: errorAnswer(status, fmt.Errorf("overloaded: %s", why)).body}
}

// ObsBenchmarkHit performs exactly the observability work a memo hit
// adds to a request — span start, admit/memo/write stamps, metadata,
// finish into histograms, SLO counters and the flight recorder —
// without the HTTP layer. Benchmarks use it to pin the disabled path
// (no Registry) at zero allocations and to bound the enabled path.
func (s *Server) ObsBenchmarkHit(endpoint string) {
	sp := s.robs.start(endpoint)
	t0 := sp.Clock()
	sp.Since(obs.SpanAdmit, t0)
	tm := sp.Clock()
	sp.Since(obs.SpanMemo, tm)
	sp.SetFingerprint("bench")
	tw := sp.Clock()
	sp.Since(obs.SpanWrite, tw)
	sp.SetMeta("hit", http.StatusOK, 0, false)
	s.robs.finish(sp)
}
