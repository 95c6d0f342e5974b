package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"madpipe/internal/fingerprint"
	"madpipe/internal/obs"
)

// postRaw posts body as is and returns the response with its body read.
func postRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

// indented re-encodes a compact JSON body with indentation: the same
// request in different bytes.
func indented(t *testing.T, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, body, "", "  "); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeBodyAlias: a byte-identical repeat is answered through the
// body alias, a re-encoded repeat through the fingerprint, and both
// carry the first response's status, body and fingerprint exactly. For
// named and inline chains, on both planning endpoints.
func TestServeBodyAlias(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 2, Registry: obs.NewRegistry()})
	named := func(memGB float64) PlatformSpec {
		return PlatformSpec{Workers: 4, MemoryGB: memGB, BandwidthGB: 12}
	}
	resnet := &NetSpec{Name: "resnet50", Batch: 8, Size: 1000}
	opts := OptionsSpec{MaxChain: 12, Parallel: 1}
	inlinePlat := PlatformSpec{Workers: 4, Memory: 1e10, Bandwidth: 1.2e10}
	for _, tc := range []struct {
		name, path string
		req        any
	}{
		{"plan/named", "/v1/plan", PlanRequest{Net: resnet, Platform: named(10), Options: opts}},
		{"plan/inline", "/v1/plan", PlanRequest{Chain: testChain(12, 3), Platform: inlinePlat, Options: OptionsSpec{Parallel: 1}}},
		{"frontier/named", "/v1/frontier", FrontierRequest{Net: resnet, Platform: named(0), Options: opts, MemsGB: []float64{6, 8, 10}}},
		{"frontier/inline", "/v1/frontier", FrontierRequest{Chain: testChain(12, 5), Platform: inlinePlat, Options: OptionsSpec{Parallel: 1}, Mems: []float64{6e9, 8e9, 1e10}}},
	} {
		compact, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		before := srv.Stats()
		type result struct {
			status int
			memo   string
			fp     string
			body   []byte
		}
		var got []result
		for _, body := range [][]byte{compact, compact, indented(t, compact)} {
			resp, rb := postRaw(t, hs.URL+tc.path, body)
			got = append(got, result{resp.StatusCode, resp.Header.Get(HeaderMemo), resp.Header.Get(HeaderFingerprint), rb})
		}
		if got[0].status != http.StatusOK || got[0].fp == "" {
			t.Fatalf("%s: first request status %d fingerprint %q: %s", tc.name, got[0].status, got[0].fp, got[0].body)
		}
		for i, want := range []string{"miss", "hit", "hit"} {
			if got[i].memo != want {
				t.Errorf("%s: request %d memo %q, want %s", tc.name, i, got[i].memo, want)
			}
			if got[i].status != got[0].status || got[i].fp != got[0].fp || !bytes.Equal(got[i].body, got[0].body) {
				t.Errorf("%s: request %d answered status %d fingerprint %s (%d bytes), want the first response's %d %s (%d bytes)",
					tc.name, i, got[i].status, got[i].fp, len(got[i].body), got[0].status, got[0].fp, len(got[0].body))
			}
		}
		after := srv.Stats()
		if d := after.Alias.Hits - before.Alias.Hits; d != 1 {
			t.Errorf("%s: %d alias hits, want 1 for the one byte-identical repeat", tc.name, d)
		}
		if d := after.Alias.Entries - before.Alias.Entries; d != 2 {
			t.Errorf("%s: %d new aliases, want 2 (compact and indented bytes)", tc.name, d)
		}
		if dh, dm := after.Memo.Hits-before.Memo.Hits, after.Memo.Misses-before.Memo.Misses; dh != 2 || dm != 1 {
			t.Errorf("%s: memo counted %d hits and %d misses, want 2 and 1", tc.name, dh, dm)
		}
	}
	if got := srv.reg.Counter("serve_alias_hits").Value(); got != 4 {
		t.Errorf("serve_alias_hits = %d, want 4", got)
	}
}

// TestServeAliasEvictionFallback: an alias whose memo entry expired
// falls back to the full path, which re-plans the same key into a
// bit-identical body and counts exactly one memo miss.
func TestServeAliasEvictionFallback(t *testing.T) {
	// Every entry is expired by the time a later request looks it up.
	srv, hs := newTestServer(t, Config{Workers: 1, Memo: MemoConfig{TTL: time.Nanosecond}})
	body, err := json.Marshal(PlanRequest{Chain: testChain(10, 2),
		Platform: PlatformSpec{Workers: 4, Memory: 1e10, Bandwidth: 1.2e10},
		Options:  OptionsSpec{Parallel: 1}})
	if err != nil {
		t.Fatal(err)
	}
	resp1, body1 := postRaw(t, hs.URL+"/v1/plan", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d: %s", resp1.StatusCode, body1)
	}
	if st := srv.Stats(); st.Alias.Entries != 1 || st.Memo.Misses != 1 {
		t.Fatalf("after the first request: alias %+v, memo %+v", st.Alias, st.Memo)
	}
	resp2, body2 := postRaw(t, hs.URL+"/v1/plan", body)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get(HeaderMemo) != "miss" {
		t.Fatalf("repeat after expiry: status %d memo %q, want 200 miss", resp2.StatusCode, resp2.Header.Get(HeaderMemo))
	}
	if !bytes.Equal(body1, body2) || resp1.Header.Get(HeaderFingerprint) != resp2.Header.Get(HeaderFingerprint) {
		t.Fatal("re-planned body or fingerprint differs from the first response")
	}
	st := srv.Stats()
	if st.Memo.Misses != 2 || st.Memo.Hits != 0 || st.Memo.Expirations != 1 {
		t.Errorf("memo %+v, want 2 misses (one per request), 0 hits, 1 expiration", st.Memo)
	}
	if st.Alias.Hits != 0 || st.Alias.Entries != 1 {
		t.Errorf("alias %+v, want 0 hits and the one entry", st.Alias)
	}
}

// TestServeAliasDrainSheds: admission runs before the alias lookup, so a
// draining daemon sheds a byte-identical repeat with 503 like any
// request.
func TestServeAliasDrainSheds(t *testing.T) {
	// Managed by hand: the test drains the server itself, and Shutdown
	// is once-only.
	srv := NewServer(Config{Workers: 1})
	hs := httptest.NewServer(srv.Mux())
	defer hs.Close()
	body, err := json.Marshal(PlanRequest{Chain: testChain(10, 4),
		Platform: PlatformSpec{Workers: 4, Memory: 1e10, Bandwidth: 1.2e10},
		Options:  OptionsSpec{Parallel: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if resp, rb := postRaw(t, hs.URL+"/v1/plan", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d: %s", resp.StatusCode, rb)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, rb := postRaw(t, hs.URL+"/v1/plan", body)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("repeat while draining: status %d Retry-After %q, want 503 with a hint: %s", resp.StatusCode, resp.Header.Get("Retry-After"), rb)
	}
	if st := srv.Stats(); st.Alias.Hits != 0 || st.Memo.Hits != 0 {
		t.Errorf("a shed request was counted as a hit: alias %+v, memo %+v", st.Alias, st.Memo)
	}
}

// TestServeAliasConcurrent: goroutines install, look up and lose
// aliases at once — a memo budget of about two bodies evicts aliased
// entries under them — and every response still equals its cold
// reference while each request counts one memo outcome. Then the index
// itself overflows its bound from several goroutines. Run under -race
// by scripts/race_smoke.sh.
func TestServeAliasConcurrent(t *testing.T) {
	type cell struct {
		bodies [][]byte // compact and indented encodings
		want   []byte
	}
	var cells []cell
	maxBody := 0
	for i := 0; i < 4; i++ {
		c := testChain(9+i, float64(i+1))
		plat := testPlat()
		plat.Memory = 8e9 + 1e9*float64(i)
		compact, err := json.Marshal(PlanRequest{Chain: c,
			Platform: PlatformSpec{Workers: 4, Memory: plat.Memory, Bandwidth: 1.2e10},
			Options:  OptionsSpec{Parallel: 1}})
		if err != nil {
			t.Fatal(err)
		}
		want := directPlanBytes(t, c, plat, testOpts(), false)
		maxBody = max(maxBody, len(want))
		cells = append(cells, cell{bodies: [][]byte{compact, indented(t, compact)}, want: want})
	}
	budget := int64(2 * (maxBody + entryOverhead))
	srv, hs := newTestServer(t, Config{Workers: 2, QueueDepth: 64, Memo: MemoConfig{Shards: 1, MaxBytes: budget}})

	const goroutines, rounds = 6, 10
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				cl := cells[(g+r)%len(cells)]
				resp, err := http.Post(hs.URL+"/v1/plan", "application/json", bytes.NewReader(cl.bodies[g%2]))
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
				if resp.StatusCode != http.StatusOK || !bytes.Equal(body, cl.want) {
					errc <- fmt.Errorf("g%d r%d: status %d memo %s: body differs from cold direct call", g, r, resp.StatusCode, resp.Header.Get(HeaderMemo))
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
	st := srv.Stats()
	if st.Memo.Hits+st.Memo.Misses != goroutines*rounds {
		t.Errorf("memo counted %d hits + %d misses over %d requests", st.Memo.Hits, st.Memo.Misses, goroutines*rounds)
	}
	if st.Memo.Evictions == 0 {
		t.Errorf("no evictions under a two-body budget: %+v", st.Memo)
	}
	if st.Alias.Entries != 2*len(cells) {
		t.Errorf("alias entries %d, want %d (two encodings per cell)", st.Alias.Entries, 2*len(cells))
	}

	// Overflow: concurrent installs past aliasCap clear the index rather
	// than grow it, and lookups never see a key installed for another
	// digest.
	idx := newAliasIndex(nil)
	const writers = 4
	wg.Add(writers)
	for g := 0; g < writers; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < aliasCap; i++ {
				var d bodyDigest
				var k fingerprint.Key
				d[0], d[1], d[2] = byte(g), byte(i), byte(i>>8)
				k[0], k[1], k[2] = byte(g), byte(i), byte(i>>8)
				idx.put(d, k)
				if got, ok := idx.get(d); ok && got != k {
					t.Errorf("digest %x: key %x, want %x", d[:3], got[:3], k[:3])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := idx.stats().Entries; n == 0 || n > aliasCap {
		t.Errorf("alias index holds %d entries, want 1..%d", n, aliasCap)
	}
}
