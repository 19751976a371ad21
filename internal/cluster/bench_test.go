package cluster

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sourcecurrents/internal/server"
	"sourcecurrents/internal/session"
)

// benchFleet boots 3 shards over one in-memory world plus a router, both
// wrapped in real HTTP servers so the routed and direct paths pay identical
// transport costs and the delta is purely the router hop. Each shard keeps
// an answer cache of `currents server`'s default size, so after the warm-up
// every answer is a cache hit and no iteration plans.
func benchFleet(b *testing.B) (routerURL, shardURL, body string) {
	b.Helper()
	d := fleetWorld(b, 11, 40)
	addrs := make([]string, 3)
	for i := range addrs {
		s, err := session.New(d, session.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		reg := server.NewRegistry()
		if err := reg.Register("bench", s); err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(server.New(reg, server.Options{AnswerCacheSize: 1024}))
		b.Cleanup(ts.Close)
		addrs[i] = strings.TrimPrefix(ts.URL, "http://")
		if i == 0 {
			shardURL = ts.URL
		}
	}
	rt, err := NewRouter(addrs, Options{RF: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	rts := httptest.NewServer(rt)
	b.Cleanup(rts.Close)

	objs := d.Objects()
	var sb strings.Builder
	sb.WriteString(`{"query":[`)
	for i := 0; i < 5; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"entity":%q,"attribute":%q}`, objs[i].Entity, objs[i].Attribute)
	}
	sb.WriteString(`]}`)
	return rts.URL, shardURL, sb.String()
}

func benchPost(b *testing.B, url, body string) {
	b.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status = %d", resp.StatusCode)
	}
}

// BenchmarkRouterAnswer pins the router hop's overhead: the routed/direct
// ns/op delta is what one proxy traversal (body buffering, placement,
// shard round trip, relay) adds on top of a shard's cache hit.
func BenchmarkRouterAnswer(b *testing.B) {
	routerURL, shardURL, body := benchFleet(b)
	// One warm round trip each so connection setup and the shard's answer
	// cache are out of the measurement.
	benchPost(b, shardURL+"/v1/bench/answer", body)
	benchPost(b, routerURL+"/v1/bench/answer", body)

	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchPost(b, shardURL+"/v1/bench/answer", body)
		}
	})
	b.Run("routed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchPost(b, routerURL+"/v1/bench/answer", body)
		}
	})
}
