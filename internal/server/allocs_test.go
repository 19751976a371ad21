package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sourcecurrents/internal/raceflag"
)

// cachedAnswerAllocs is the allocation count of one cache-hit /answer served
// through Server.ServeHTTP (request and recorder construction included),
// measured on go1.24 once the cache was keyed on the raw body (64 while a hit
// decoded the request and rendered a key from its fields). The hit path reads
// the body, concatenates its key and returns the cached bytes; the count is
// deterministic per build and must not creep: raise it only with a reason.
const cachedAnswerAllocs = 27

func TestCachedAnswerHandlerAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops buffers under -race; counts are not deterministic")
	}
	sess := testSession(t, 11, 40)
	reg := NewRegistry()
	if err := reg.Register("alpha", sess); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Options{AnswerCacheSize: 64})
	body := answerBody(t, sess, 5)
	serve := func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/alpha/answer", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serve() // the miss that fills the cache
	n := testing.AllocsPerRun(100, serve)
	t.Logf("cached /answer: %v allocs", n)
	if s.cache.hits.Load() < 100 {
		t.Fatalf("only %d cache hits: the measured path was not the hit path", s.cache.hits.Load())
	}
	if n > cachedAnswerAllocs {
		t.Fatalf("cached /answer handler allocates %v times, want <= %d", n, cachedAnswerAllocs)
	}
}
