package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMetricsExpositionGolden pins the server's /metrics page byte for
// byte: a fixed observation script (fixed durations, two operations, one
// registered dataset that swapped once, the answer cache disabled and
// enabled) is driven into the instrument set and the rendered page is
// compared with a checked-in golden. The goldens were generated by the
// hand-rolled writers this layer replaced; regenerate only on a deliberate
// format change, with REGEN_METRICS_GOLDEN=1.
func TestMetricsExpositionGolden(t *testing.T) {
	for _, tc := range []struct {
		golden    string
		cacheSize int
	}{
		{"metrics_nocache.golden", 0},
		{"metrics_cache.golden", 2},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			reg := NewRegistry()
			sess := testSession(t, 11, 12)
			if err := reg.Register("demo", sess); err != nil {
				t.Fatal(err)
			}
			next, err := sess.Append(sess.Dataset().Claims()[:1])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := reg.swap("demo", next); err != nil {
				t.Fatal(err)
			}
			s := New(reg, Options{AnswerCacheSize: tc.cacheSize})

			// Two operations across every bucket edge: below the first
			// bound, exactly on a bound (le is inclusive), mid-range, and
			// past the last finite bound (only +Inf counts it).
			s.met.observe("answer", 300*time.Microsecond, http.StatusOK)
			s.met.observe("answer", time.Millisecond, http.StatusOK)
			s.met.observe("answer", 40*time.Millisecond, http.StatusBadRequest)
			s.met.observe("append", 700*time.Millisecond, http.StatusOK)
			s.met.observe("append", 3*time.Second, http.StatusInternalServerError)
			s.met.observe("no-such-op", time.Second, http.StatusOK) // ignored
			s.met.coalesced.Add(2)
			s.met.historical.Add(1)

			// Cache script (a no-op on the disabled cache): one miss, one
			// hit, one capacity eviction, one flush that leaves one entry.
			s.cache.get("a1")
			s.cache.put("a1", []byte("x"))
			s.cache.get("a1")
			s.cache.put("a2", []byte("y"))
			s.cache.put("b1", []byte("z"))
			s.cache.flushPrefix("a")

			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d", rec.Code)
			}
			compareGolden(t, "REGEN_METRICS_GOLDEN", filepath.Join("testdata", tc.golden), rec.Body.Bytes())
		})
	}
}

// compareGolden compares got with the checked-in file at path, or rewrites
// the file when the environment variable regenEnv is set.
func compareGolden(t *testing.T, regenEnv, path string, got []byte) {
	t.Helper()
	if os.Getenv(regenEnv) != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("%s differs from what was rendered:\n--- got ---\n%s", path, got)
	}
}
