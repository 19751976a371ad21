package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// cacheTestServer builds a one-dataset server with the given cache options,
// returning the base URL and the underlying *Server for counter access.
func cacheTestServer(t testing.TB, opt Options) (*httptest.Server, *Server) {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Register("alpha", testSession(t, 11, 40)); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, opt)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

// TestAnswerCacheGolden pins the cache's correctness contract: a response
// served from the cache is byte-identical to one computed fresh, across
// alternating cached/uncached rounds and with/without the probe trace.
func TestAnswerCacheGolden(t *testing.T) {
	cached, _ := cacheTestServer(t, Options{AnswerCacheSize: 64})
	fresh, _ := cacheTestServer(t, Options{}) // cache disabled
	sess := testSession(t, 11, 40)
	for _, body := range []string{
		answerBody(t, sess, 3),
		answerBody(t, sess, 5),
		`{"query":[{"entity":"e0","attribute":"a"},{"entity":"e1","attribute":"a"}],"include_steps":true}`,
		`{"query":[{"entity":"e2","attribute":"a"}],"policy":"accuracy-coverage","max_sources":3}`,
	} {
		var first []byte
		for round := 0; round < 3; round++ {
			respC, gotC := post(t, cached.URL+"/v1/alpha/answer", body)
			respF, gotF := post(t, fresh.URL+"/v1/alpha/answer", body)
			if respC.StatusCode != http.StatusOK || respF.StatusCode != http.StatusOK {
				t.Fatalf("round %d: status cached=%d fresh=%d", round, respC.StatusCode, respF.StatusCode)
			}
			if string(gotC) != string(gotF) {
				t.Fatalf("round %d: cached response differs from uncached server\ncached: %s\nfresh:  %s",
					round, gotC, gotF)
			}
			if round == 0 {
				first = gotC
			} else if string(gotC) != string(first) {
				t.Fatalf("round %d: cached response drifted from round 0", round)
			}
		}
	}
}

// TestAnswerCacheNormalizedKey pins the raw-body key: the cache is looked up
// on the request bytes before anything decodes them. A byte-identical repeat
// hits; a whitespace or field-order variant misses once (it is planned and
// cached under its own key) yet answers the base's exact bytes; bodies that
// differ in meaning never share an entry; and a body that fails validation
// is never cached, so its repeat is decoded again and is still a 400.
func TestAnswerCacheNormalizedKey(t *testing.T) {
	ts, srv := cacheTestServer(t, Options{AnswerCacheSize: 64})
	url := ts.URL + "/v1/alpha/answer"
	// ask posts body and checks its status and the counters it moved.
	ask := func(what, body string, status int, hit bool) []byte {
		t.Helper()
		hits, misses := srv.cache.hits.Load(), srv.cache.misses.Load()
		resp, got := post(t, url, body)
		if resp.StatusCode != status {
			t.Fatalf("%s: status %d, want %d: %s", what, resp.StatusCode, status, got)
		}
		wantHits, wantMisses := int64(0), int64(1)
		if hit {
			wantHits, wantMisses = 1, 0
		}
		if dh, dm := srv.cache.hits.Load()-hits, srv.cache.misses.Load()-misses; dh != wantHits || dm != wantMisses {
			t.Fatalf("%s: %d hits and %d misses, want %d and %d", what, dh, dm, wantHits, wantMisses)
		}
		return got
	}

	base := `{"query":[{"entity":"e0","attribute":"a"},{"entity":"e1","attribute":"a"}]}`
	want := ask("base", base, http.StatusOK, false)
	if got := ask("byte-identical repeat", base, http.StatusOK, true); !bytes.Equal(got, want) {
		t.Fatalf("repeat hit replayed different bytes:\n%s\nwant:\n%s", got, want)
	}

	// Presentation variants miss the base's entry but answer its bytes, and
	// each hits its own entry from then on.
	for _, v := range []string{
		`{ "query" : [ {"entity":"e0","attribute":"a"}, {"entity":"e1","attribute":"a"} ] }`,
		`{"query":[{"attribute":"a","entity":"e0"},{"attribute":"a","entity":"e1"}]}`,
	} {
		if got := ask("variant "+v, v, http.StatusOK, false); !bytes.Equal(got, want) {
			t.Fatalf("variant %s: bytes differ from the base's:\n%s\nwant:\n%s", v, got, want)
		}
		ask("variant repeat "+v, v, http.StatusOK, true)
	}

	// Different order, steps flag or cap: each misses and adds its own entry.
	entries := srv.cache.len()
	for _, v := range []string{
		`{"query":[{"entity":"e1","attribute":"a"},{"entity":"e0","attribute":"a"}]}`,
		`{"query":[{"entity":"e0","attribute":"a"},{"entity":"e1","attribute":"a"}],"include_steps":true}`,
		`{"query":[{"entity":"e0","attribute":"a"},{"entity":"e1","attribute":"a"}],"max_sources":2}`,
	} {
		ask("distinct "+v, v, http.StatusOK, false)
		if entries++; srv.cache.len() != entries {
			t.Fatalf("distinct %s: %d entries, want %d", v, srv.cache.len(), entries)
		}
	}

	// Bodies that fail validation — a bad knob, an unknown field, trailing
	// data, an empty query — are refused every time and never stored.
	for _, v := range []string{
		`{"query":[{"entity":"e0","attribute":"a"}],"policy":"no-such-policy"}`,
		`{"query":[{"entity":"e0","attribute":"a"}],"workers":4}`,
		base + `{}`,
		`{"query":[]}`,
	} {
		ask("invalid "+v, v, http.StatusBadRequest, false)
		ask("invalid repeat "+v, v, http.StatusBadRequest, false)
	}
	if n := srv.cache.len(); n != entries {
		t.Fatalf("invalid bodies changed the entry count %d -> %d", entries, n)
	}
}

// TestAnswerCacheHitFasterAndCounted exercises the metrics plumbing: the
// hit/miss counters and the entry gauge appear on /metrics and move as
// requests repeat.
func TestAnswerCacheMetrics(t *testing.T) {
	ts, _ := cacheTestServer(t, Options{AnswerCacheSize: 64})
	sess := testSession(t, 11, 40)
	body := answerBody(t, sess, 3)
	for i := 0; i < 4; i++ {
		post(t, ts.URL+"/v1/alpha/answer", body)
	}
	_, metricsBody := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"currents_answer_cache_hits_total 3",
		"currents_answer_cache_misses_total 1",
		"currents_answer_cache_evictions_total 0",
		"currents_answer_cache_entries 1",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestAnswerCacheDisabledMetrics pins that the cache series stay present
// (as zeros) when caching is off, so scrapers never special-case.
func TestAnswerCacheDisabledMetrics(t *testing.T) {
	ts, _ := cacheTestServer(t, Options{})
	sess := testSession(t, 11, 40)
	post(t, ts.URL+"/v1/alpha/answer", answerBody(t, sess, 3))
	_, metricsBody := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"currents_answer_cache_hits_total 0",
		"currents_answer_cache_misses_total 0",
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestAnswerCacheLRUEviction fills a capacity-1 cache with alternating keys
// and checks evictions are counted and correctness is preserved.
func TestAnswerCacheLRUEviction(t *testing.T) {
	ts, srv := cacheTestServer(t, Options{AnswerCacheSize: 1})
	sess := testSession(t, 11, 40)
	a, b := answerBody(t, sess, 2), answerBody(t, sess, 4)
	var wantA, wantB []byte
	for i := 0; i < 3; i++ {
		_, gotA := post(t, ts.URL+"/v1/alpha/answer", a)
		_, gotB := post(t, ts.URL+"/v1/alpha/answer", b)
		if i == 0 {
			wantA, wantB = gotA, gotB
		} else if string(gotA) != string(wantA) || string(gotB) != string(wantB) {
			t.Fatalf("round %d: eviction churn changed response bytes", i)
		}
	}
	if ev := srv.cache.evictions.Load(); ev < 4 {
		t.Fatalf("alternating keys on a size-1 cache: want >=4 evictions, got %d", ev)
	}
	if n := srv.cache.len(); n != 1 {
		t.Fatalf("cache size: want 1, got %d", n)
	}
}

// TestAnswerCacheTTL pins the lifetime that replaces expiry: every key
// carries its epoch and an epoch's answer never changes, so an entry stays a
// byte-identical hit for as long as its epoch is addressable and leaves with
// the swap that pushes the epoch below the retention floor. With a retention
// of 2, a cached ?as_of=0 answer is still a hit after appends 1 and 2, and is
// gone after append 3.
func TestAnswerCacheTTL(t *testing.T) {
	reg := NewRegistry()
	s0 := retainedSession(t, 11, 40, 2)
	if err := reg.Register("alpha", s0); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, Options{AnswerCacheSize: 16})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	asOf0 := ts.URL + "/v1/alpha/answer?as_of=0"
	body := answerBody(t, s0, 3)
	_, want := post(t, asOf0, body)
	epoch0 := func() (n int) {
		srv.cache.mu.Lock()
		defer srv.cache.mu.Unlock()
		for key := range srv.cache.entries {
			if strings.HasPrefix(key, "alpha\x000\x00") {
				n++
			}
		}
		return n
	}
	appendOne := func(i int) {
		t.Helper()
		cur, _, err := reg.Current("alpha")
		if err != nil {
			t.Fatal(err)
		}
		if resp, got := post(t, ts.URL+"/v1/alpha/append", appendBody(t, cur, fmt.Sprintf("ttl%d", i), "V", 4)); resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d: status %d: %s", i, resp.StatusCode, got)
		}
	}
	for i := 1; i <= 2; i++ {
		appendOne(i)
		hits, misses := srv.cache.hits.Load(), srv.cache.misses.Load()
		resp, got := post(t, asOf0, body)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("after append %d: as_of=0 status %d, bytes equal %v", i, resp.StatusCode, bytes.Equal(got, want))
		}
		if srv.cache.hits.Load() != hits+1 || srv.cache.misses.Load() != misses {
			t.Fatalf("after append %d: as_of=0 was not a cache hit", i)
		}
	}
	appendOne(3)
	if n := epoch0(); n != 0 {
		t.Fatalf("%d entries of epoch 0 cached after it fell below the floor", n)
	}
	if resp, got := post(t, asOf0, body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("as_of=0 below the floor: status %d: %s", resp.StatusCode, got)
	}
}

// TestAnswerCacheErrorNotCached pins that non-200 responses never enter the
// cache.
func TestAnswerCacheErrorNotCached(t *testing.T) {
	ts, srv := cacheTestServer(t, Options{AnswerCacheSize: 16})
	bad := `{"query":[{"entity":"e0","attribute":"a"}],"policy":"no-such-policy"}`
	for i := 0; i < 2; i++ {
		resp, _ := post(t, ts.URL+"/v1/alpha/answer", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("want 400, got %d", resp.StatusCode)
		}
	}
	if n := srv.cache.len(); n != 0 {
		t.Fatalf("error response was cached (%d entries)", n)
	}
	if h := srv.cache.hits.Load(); h != 0 {
		t.Fatalf("error response produced cache hits (%d)", h)
	}
}

// TestAnswerCacheHitSpeedup pins what makes a hit fast rather than how fast
// it is: the second identical request is served from the cache and runs no
// plan. On /metrics the hit counter moves by one and the miss counter (one
// per plan) does not, and the replayed bytes equal the planned ones. The
// world is sized so a plan is real planner work (200 sources); a wall-clock
// ratio between the two would measure the box and the planner's speed, not
// the cache.
func TestAnswerCacheHitSpeedup(t *testing.T) {
	url, body := benchServerCached(t, 200, 40, Options{AnswerCacheSize: 16})
	counters := func(hits, misses int) {
		t.Helper()
		_, page := get(t, url+"/metrics")
		for _, want := range []string{
			fmt.Sprintf("currents_answer_cache_hits_total %d\n", hits),
			fmt.Sprintf("currents_answer_cache_misses_total %d\n", misses),
		} {
			if !strings.Contains(string(page), want) {
				t.Fatalf("/metrics missing %q", want)
			}
		}
	}
	_, cold := post(t, url+"/v1/bench/answer", body)
	counters(0, 1)
	_, hit := post(t, url+"/v1/bench/answer", body)
	counters(1, 1)
	if !bytes.Equal(hit, cold) {
		t.Fatalf("cache hit replayed different bytes:\n%s\nplanned:\n%s", hit, cold)
	}
}
