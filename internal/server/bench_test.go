package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"sourcecurrents/internal/session"
	"sourcecurrents/internal/synth"
)

// benchServer builds an httptest server over one synthetic dataset of the
// given scale, returning the base URL and a small answer-request body.
func benchServer(b *testing.B, nSources, nObjects int) (string, string) {
	return benchServerCached(b, nSources, nObjects, Options{})
}

// benchServerCached is benchServer with explicit server options (answer
// cache configuration).
func benchServerCached(b testing.TB, nSources, nObjects int, opt Options) (string, string) {
	b.Helper()
	accs := make([]float64, nSources)
	for i := range accs {
		accs[i] = 0.55 + 0.4*float64(i%9)/8
	}
	var copiers []synth.CopierSpec
	for i := 0; i < nSources/10; i++ {
		copiers = append(copiers, synth.CopierSpec{MasterIndex: i, CopyRate: 0.8, OwnAcc: 0.6})
	}
	sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
		Seed:           int64(nSources)*31 + int64(nObjects),
		NObjects:       nObjects,
		IndependentAcc: accs,
		Copiers:        copiers,
		FalsePool:      5,
	})
	if err != nil {
		b.Fatal(err)
	}
	s, err := session.New(sw.Dataset, session.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Register("bench", s); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, opt))
	b.Cleanup(ts.Close)

	objs := sw.Dataset.Objects()
	n := 5
	if n > len(objs) {
		n = len(objs)
	}
	var sb bytes.Buffer
	sb.WriteString(`{"query":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"entity":%q,"attribute":%q}`, objs[i].Entity, objs[i].Attribute)
	}
	sb.WriteString(`]}`)
	return ts.URL, sb.String()
}

var serverBenchSizes = []struct {
	sources, objects int
	short            bool
}{
	{50, 60, true},
	{200, 40, false},
	{500, 30, false},
}

// BenchmarkServerAnswer measures one serial client: full HTTP round trip,
// JSON decode/execute/encode, against the precompiled planner (5-object
// query).
func BenchmarkServerAnswer(b *testing.B) {
	for _, sz := range serverBenchSizes {
		b.Run(fmt.Sprintf("sources=%d", sz.sources), func(b *testing.B) {
			b.ReportAllocs()
			if testing.Short() && !sz.short {
				b.Skip("large scale skipped in short mode")
			}
			url, body := benchServer(b, sz.sources, sz.objects)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := http.Post(url+"/v1/bench/answer", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
		})
	}
}

// BenchmarkServerAnswerCached measures the cache-hit round trip: the same
// answer request repeated against a cache-enabled server, so every
// measured iteration after the first is HTTP + LRU lookup. Compare with
// BenchmarkServerAnswer at the same size for the hit-vs-cold ratio.
func BenchmarkServerAnswerCached(b *testing.B) {
	for _, sz := range serverBenchSizes {
		b.Run(fmt.Sprintf("sources=%d", sz.sources), func(b *testing.B) {
			b.ReportAllocs()
			if testing.Short() && !sz.short {
				b.Skip("large scale skipped in short mode")
			}
			url, body := benchServerCached(b, sz.sources, sz.objects, Options{AnswerCacheSize: 64})
			// Warm the single entry so every timed iteration hits.
			warm, err := http.Post(url+"/v1/bench/answer", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, warm.Body)
			warm.Body.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := http.Post(url+"/v1/bench/answer", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
		})
	}
}

// BenchmarkServerAnswerParallel measures the concurrent-serving shape:
// GOMAXPROCS client goroutines hammering one server instance with the same
// hot query (exercising the singleflight path under overlap).
func BenchmarkServerAnswerParallel(b *testing.B) {
	for _, sz := range serverBenchSizes {
		b.Run(fmt.Sprintf("sources=%d", sz.sources), func(b *testing.B) {
			b.ReportAllocs()
			if testing.Short() && !sz.short {
				b.Skip("large scale skipped in short mode")
			}
			url, body := benchServer(b, sz.sources, sz.objects)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					resp, err := http.Post(url+"/v1/bench/answer", "application/json", bytes.NewReader([]byte(body)))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := io.Copy(io.Discard, resp.Body); err != nil {
						b.Fatal(err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Fatalf("status %d", resp.StatusCode)
					}
				}
			})
		})
	}
}

// BenchmarkServerColdStart measures time-to-first-answer through the lazy
// registry: each iteration registers a snapshot directory (manifest scan
// only) and serves one answer request, so the timed path is exactly what a
// fresh server pays on the first query — mmap, section validation, planner
// run — with no precompute and no decode loop.
func BenchmarkServerColdStart(b *testing.B) {
	dir, reqs, _ := snapDir(b, 1)
	body := []byte(reqs["world0"])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg, err := LoadDir(dir, session.DefaultConfig(), nil)
		if err != nil {
			b.Fatal(err)
		}
		h := New(reg, Options{})
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/world0/answer", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}
