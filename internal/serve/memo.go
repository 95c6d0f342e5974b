package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"madpipe/internal/fingerprint"
	"madpipe/internal/obs"
)

// MemoConfig sizes the plan memo.
type MemoConfig struct {
	// Shards is the number of independently locked shards (default 8).
	// Requests pick a shard by fingerprint, so shard contention is the
	// only cross-request synchronization on the hit path.
	Shards int
	// MaxBytes is the total byte budget across all shards (default
	// 64 MB). Each shard enforces MaxBytes/Shards: inserting past it
	// evicts that shard's least-recently-used entries first. The
	// accounted size of an entry is its response body plus a fixed
	// per-entry overhead estimate, so sustained unique-chain traffic
	// holds resident memo bytes at the budget instead of growing.
	MaxBytes int64
	// TTL expires entries this long after insertion (not last touch —
	// a popular stale plan must still refresh). 0 disables expiry.
	TTL time.Duration
}

func (c MemoConfig) withDefaults() MemoConfig {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = 64 << 20
	}
	return c
}

// entryOverhead is the accounted per-entry cost beyond the body: key,
// map bucket, list element, header metadata. An estimate — the budget
// is a capacity-planning bound, not an allocator measurement.
const entryOverhead = 256

// memoEntry is one cached response: the HTTP status and the exact body
// bytes written for it. Storing marshaled bytes (not the report struct)
// is what makes hit responses bit-identical to the miss that produced
// them, and makes byte accounting exact.
type memoEntry struct {
	key    fingerprint.Key
	status int
	body   []byte
	added  time.Time
}

func (e *memoEntry) size() int64 { return int64(len(e.body)) + entryOverhead }

type memoShard struct {
	mu      sync.Mutex
	entries map[fingerprint.Key]*list.Element
	lru     *list.List // front = most recently used
	bytes   int64
	max     int64
}

// Memo is the fingerprint-keyed response cache: sharded, LRU + TTL
// evicted, byte-budgeted. Safe for concurrent use.
type Memo struct {
	shards []*memoShard
	ttl    time.Duration

	hits, misses, evictions, expirations atomic.Uint64

	// obs mirrors (nil-safe when no registry is attached).
	cHits, cMisses, cEvictions    *obs.Counter
	cBytesIn, cBytesOut, cExpired *obs.Counter
	gBytesPeak                    *obs.Gauge
}

// NewMemo builds a memo; reg (may be nil) receives the
// plan_memo_{hits,misses,evictions,bytes_*} series.
func NewMemo(cfg MemoConfig, reg *obs.Registry) *Memo {
	cfg = cfg.withDefaults()
	perShard := cfg.MaxBytes / int64(cfg.Shards)
	if perShard < 1 {
		perShard = 1
	}
	m := &Memo{
		shards:     make([]*memoShard, cfg.Shards),
		ttl:        cfg.TTL,
		cHits:      reg.Counter("plan_memo_hits"),
		cMisses:    reg.Counter("plan_memo_misses"),
		cEvictions: reg.Counter("plan_memo_evictions"),
		cBytesIn:   reg.Counter("plan_memo_bytes_inserted"),
		cBytesOut:  reg.Counter("plan_memo_bytes_evicted"),
		cExpired:   reg.Counter("plan_memo_expired"),
		gBytesPeak: reg.Gauge("plan_memo_bytes_peak"),
	}
	for i := range m.shards {
		m.shards[i] = &memoShard{
			entries: make(map[fingerprint.Key]*list.Element),
			lru:     list.New(),
			max:     perShard,
		}
	}
	return m
}

func (m *Memo) shard(k fingerprint.Key) *memoShard { return m.shards[k.Shard(len(m.shards))] }

// Get returns the cached response for k, refreshing its recency, and
// counts the lookup as a hit or a miss. A TTL-expired entry is removed
// and reported as a miss.
func (m *Memo) Get(k fingerprint.Key, now time.Time) (status int, body []byte, ok bool) {
	status, body, ok = m.lookup(k, now)
	m.count(ok)
	return status, body, ok
}

// count records one request's memo outcome. The server calls it once
// per request at the point the outcome is decided, so a request that
// looks a key up twice (a body alias whose entry was evicted) or waits
// on a concurrent plan of its key still counts exactly once.
func (m *Memo) count(hit bool) {
	if hit {
		m.hits.Add(1)
		m.cHits.Inc()
		return
	}
	m.misses.Add(1)
	m.cMisses.Inc()
}

// lookup is Get without the hit/miss count.
func (m *Memo) lookup(k fingerprint.Key, now time.Time) (status int, body []byte, ok bool) {
	s := m.shard(k)
	s.mu.Lock()
	el, found := s.entries[k]
	if found {
		e := el.Value.(*memoEntry)
		if m.ttl > 0 && now.Sub(e.added) >= m.ttl {
			s.remove(el)
			m.expirations.Add(1)
			m.cExpired.Inc()
			m.cBytesOut.Add(uint64(e.size()))
			found = false
		} else {
			s.lru.MoveToFront(el)
			status, body = e.status, e.body
		}
	}
	s.mu.Unlock()
	return status, body, found
}

// Put caches a response under k, evicting least-recently-used entries
// until the shard fits its byte budget. An entry larger than the whole
// shard budget is not cached (it would immediately evict itself along
// with everything else).
func (m *Memo) Put(k fingerprint.Key, status int, body []byte, now time.Time) {
	e := &memoEntry{key: k, status: status, body: body, added: now}
	if e.size() > m.shard(k).max {
		return
	}
	var evicted int64
	var nEvicted uint64
	s := m.shard(k)
	s.mu.Lock()
	if el, dup := s.entries[k]; dup {
		// Concurrent planners of one key (transient single-flight miss):
		// keep the incumbent — both bodies are bit-identical anyway —
		// and only refresh recency.
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.entries[k] = s.lru.PushFront(e)
	s.bytes += e.size()
	for s.bytes > s.max {
		back := s.lru.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*memoEntry)
		s.remove(back)
		evicted += ev.size()
		nEvicted++
	}
	resident := s.bytes
	s.mu.Unlock()

	m.cBytesIn.Add(uint64(e.size()))
	if nEvicted > 0 {
		m.evictions.Add(nEvicted)
		m.cEvictions.Add(nEvicted)
		m.cBytesOut.Add(uint64(evicted))
	}
	m.gBytesPeak.Observe(uint64(resident))
}

// remove unlinks el from the shard; the caller holds the shard lock and
// accounts the counters.
func (s *memoShard) remove(el *list.Element) {
	e := el.Value.(*memoEntry)
	s.lru.Remove(el)
	delete(s.entries, e.key)
	s.bytes -= e.size()
}

// Sweep removes every TTL-expired entry, for a background janitor
// (lazy expiry on Get already keeps correctness; sweeping returns the
// bytes early). Reports how many entries were dropped. No-op without a
// TTL.
func (m *Memo) Sweep(now time.Time) int {
	if m.ttl <= 0 {
		return 0
	}
	dropped := 0
	var bytes int64
	for _, s := range m.shards {
		s.mu.Lock()
		for el := s.lru.Back(); el != nil; {
			prev := el.Prev()
			e := el.Value.(*memoEntry)
			if now.Sub(e.added) >= m.ttl {
				s.remove(el)
				dropped++
				bytes += e.size()
			}
			el = prev
		}
		s.mu.Unlock()
	}
	if dropped > 0 {
		m.expirations.Add(uint64(dropped))
		m.cExpired.Add(uint64(dropped))
		m.cBytesOut.Add(uint64(bytes))
	}
	return dropped
}

// MemoStats is a point-in-time census of the memo.
type MemoStats struct {
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	MaxBytes    int64  `json:"max_bytes"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Evictions   uint64 `json:"evictions"`
	Expirations uint64 `json:"expirations"`
}

// Stats returns the memo's current census. Resident bytes are exact
// (the same accounting the budget enforces).
func (m *Memo) Stats() MemoStats {
	st := MemoStats{
		Hits:        m.hits.Load(),
		Misses:      m.misses.Load(),
		Evictions:   m.evictions.Load(),
		Expirations: m.expirations.Load(),
	}
	for _, s := range m.shards {
		s.mu.Lock()
		st.Entries += len(s.entries)
		st.Bytes += s.bytes
		st.MaxBytes += s.max
		s.mu.Unlock()
	}
	return st
}
