package serve

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"madpipe/internal/fingerprint"
	"madpipe/internal/obs"
)

// aliasCap bounds the body-alias index. An insert that finds it full
// drops the whole index first, like the planner cache's plan memo: a
// dropped alias only sends its body's next repeat down the full decode
// path once more.
const aliasCap = 4096

// bodyDigest is SHA-256 over an endpoint path, a zero byte and a raw
// request body. The path is part of it because the same bytes decode
// differently at /v1/plan and /v1/frontier.
type bodyDigest [sha256.Size]byte

// aliasIndex maps the digest of a request's exact bytes to the
// fingerprint.Key the full decode path computed for them, so a
// byte-identical repeat finds its memo entry without decoding the body,
// building a named profile or hashing the chain.
//
// Invariant: the digest → key mapping is a pure function of the body
// and the server's immutable Config (Quantum, Parallel, LargeParallel,
// LargeChainLayers). Decoding, resolveChain, validation and
// fingerprint.PlanKey / FrontierKey read nothing else. A change that
// lets any of them depend on mutable state must invalidate this index
// with that state, or a repeat would be served under a stale key.
//
// Only requests that reached a key install an alias, so every 400 is
// derived from its body again on each request.
type aliasIndex struct {
	mu   sync.Mutex
	keys map[bodyDigest]fingerprint.Key

	hits  atomic.Uint64
	cHits *obs.Counter
}

func newAliasIndex(reg *obs.Registry) *aliasIndex {
	return &aliasIndex{
		keys:  make(map[bodyDigest]fingerprint.Key),
		cHits: reg.Counter("serve_alias_hits"),
	}
}

func (a *aliasIndex) get(d bodyDigest) (fingerprint.Key, bool) {
	a.mu.Lock()
	k, ok := a.keys[d]
	a.mu.Unlock()
	return k, ok
}

func (a *aliasIndex) put(d bodyDigest, k fingerprint.Key) {
	a.mu.Lock()
	if _, ok := a.keys[d]; !ok && len(a.keys) >= aliasCap {
		clear(a.keys)
	}
	a.keys[d] = k
	a.mu.Unlock()
}

// hit counts one request answered from the memo through its alias.
func (a *aliasIndex) hit() {
	a.hits.Add(1)
	a.cHits.Inc()
}

// AliasStats is the body-alias index's census in /v1/stats: resident
// aliases and the memo hits answered through one without decoding.
type AliasStats struct {
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
}

func (a *aliasIndex) stats() AliasStats {
	a.mu.Lock()
	n := len(a.keys)
	a.mu.Unlock()
	return AliasStats{Entries: n, Hits: a.hits.Load()}
}
