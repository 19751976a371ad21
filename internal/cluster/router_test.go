package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/server"
	"sourcecurrents/internal/session"
	"sourcecurrents/internal/synth"
)

// fleetWorld generates a deterministic test dataset.
func fleetWorld(t testing.TB, seed int64, nObjects int) *dataset.Dataset {
	t.Helper()
	sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
		Seed:           seed,
		NObjects:       nObjects,
		IndependentAcc: []float64{0.9, 0.8, 0.7, 0.6, 0.85, 0.75},
		Copiers: []synth.CopierSpec{
			{MasterIndex: 0, CopyRate: 0.85, OwnAcc: 0.7},
		},
		FalsePool: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sw.Dataset
}

// writeWorldSnap writes a session snapshot for a generated world into dir.
func writeWorldSnap(t testing.TB, dir, name string, seed int64, nObjects int) {
	t.Helper()
	s, err := session.New(fleetWorld(t, seed, nObjects), session.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, name+".snap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// shardFixture is one booted shard: its HTTP server, host:port address, and
// registry (inspected by fan-out and rebalance assertions).
type shardFixture struct {
	ts   *httptest.Server
	addr string
	reg  *server.Registry
}

// bootShard serves dir as a fleet shard with adoption enabled.
func bootShard(t testing.TB, dir string) *shardFixture {
	t.Helper()
	cfg := session.DefaultConfig()
	reg, err := server.LoadDirAllowEmpty(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg, server.Options{AdoptDir: dir, SessionCfg: cfg}))
	t.Cleanup(ts.Close)
	return &shardFixture{ts: ts, addr: strings.TrimPrefix(ts.URL, "http://"), reg: reg}
}

// bootFleet boots n shards each serving the same dataset set (full overlap,
// so every ring placement is satisfiable) plus a router over them.
func bootFleet(t testing.TB, nShards int, datasets map[string]int64, opt Options) (*Router, []*shardFixture) {
	t.Helper()
	shards := make([]*shardFixture, nShards)
	addrs := make([]string, nShards)
	for i := range shards {
		dir := t.TempDir()
		for name, seed := range datasets {
			writeWorldSnap(t, dir, name, seed, 30)
		}
		shards[i] = bootShard(t, dir)
		addrs[i] = shards[i].addr
	}
	rt, err := NewRouter(addrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, shards
}

func doReq(t testing.TB, h http.Handler, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	resp := w.Result()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func directReq(t testing.TB, base, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

const answerReq = `{"query":[{"entity":"o00000","attribute":"v"},{"entity":"o00001","attribute":"v"},{"entity":"o00002","attribute":"v"}]}`

// The routed bytes must equal the direct-shard bytes for every read
// operation: the router adds placement and failover, never content. That
// holds for a refusal too: the removed worker-count request field is an
// unknown field, 400 from the shard's decoder and 400 through the router.
func TestRouterGoldenVsDirect(t *testing.T) {
	rt, shards := bootFleet(t, 3, map[string]int64{"alpha": 11, "beta": 13}, Options{RF: 2})
	cases := []struct {
		method, path, body string
		status             int
	}{
		{http.MethodPost, "/v1/alpha/answer", answerReq, http.StatusOK},
		{http.MethodPost, "/v1/beta/answer", answerReq, http.StatusOK},
		{http.MethodPost, "/v1/alpha/fuse", "", http.StatusOK},
		{http.MethodGet, "/v1/alpha/accuracy", "", http.StatusOK},
		{http.MethodPost, "/v1/beta/recommend", `{"k":3}`, http.StatusOK},
		{http.MethodPost, "/v1/alpha/answer", strings.TrimSuffix(answerReq, "}") + `,"parallelism":4}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, routed := doReq(t, rt, c.method, c.path, c.body)
		if resp.StatusCode != c.status {
			t.Fatalf("%s %s: routed status %d, want %d: %s", c.method, c.path, resp.StatusCode, c.status, routed)
		}
		// Every shard serves the same snapshot, so each must agree with the
		// routed bytes.
		for i, sh := range shards {
			dresp, direct := directReq(t, sh.ts.URL, c.method, c.path, c.body)
			if dresp.StatusCode != c.status {
				t.Fatalf("%s %s: shard %d status %d, want %d", c.method, c.path, i, dresp.StatusCode, c.status)
			}
			if !bytes.Equal(routed, direct) {
				t.Fatalf("%s %s: routed bytes differ from shard %d bytes\nrouted: %s\ndirect: %s",
					c.method, c.path, i, routed, direct)
			}
		}
	}
}

// Killing the primary must be invisible to reads at rf=2: the router fails
// over to the replica on the transport error and counts the failover.
func TestRouterFailover(t *testing.T) {
	rt, shards := bootFleet(t, 3, map[string]int64{"alpha": 11}, Options{RF: 2})
	placement := rt.Placement("alpha")
	if len(placement) != 2 {
		t.Fatalf("placement = %v, want 2 shards", placement)
	}
	for _, sh := range shards {
		if sh.addr == placement[0] {
			sh.ts.CloseClientConnections()
			sh.ts.Close()
		}
	}
	for i := 0; i < 5; i++ {
		resp, body := doReq(t, rt, http.MethodPost, "/v1/alpha/answer", answerReq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read %d after primary kill: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if got := rt.met.failovers.Load(); got == 0 {
		t.Fatal("failovers counter = 0, want > 0 after primary kill")
	}
	// The next probe round marks the dead shard down; routing then skips it
	// without even paying the failed attempt.
	rt.probeAll()
	resp, body := doReq(t, rt, http.MethodPost, "/v1/alpha/answer", answerReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read after probe: status %d: %s", resp.StatusCode, body)
	}
}

// An append through the router must advance the primary and every replica
// to the same epoch, and subsequent reads must agree byte-for-byte no
// matter which replica serves them.
func TestRouterAppendFanout(t *testing.T) {
	rt, shards := bootFleet(t, 2, map[string]int64{"alpha": 11}, Options{RF: 2})
	appendBody := `{"claims":[{"source":"s_extra","entity":"o00000","attribute":"v","value":"zzz"}]}`
	resp, body := doReq(t, rt, http.MethodPost, "/v1/alpha/append", appendBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d: %s", resp.StatusCode, body)
	}
	var ar struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Epoch != 1 {
		t.Fatalf("append epoch = %d, want 1", ar.Epoch)
	}
	for i, sh := range shards {
		epoch, ok := sh.reg.KnownEpochs()["alpha"]
		if !ok || epoch != 1 {
			t.Fatalf("shard %d epoch = %d (ok=%v), want 1 — fan-out did not land", i, epoch, ok)
		}
	}
	if rt.met.replicaAppends.Load() != 1 || rt.met.replicaAppErrs.Load() != 0 {
		t.Fatalf("replica fan-out counters = %d/%d, want 1/0",
			rt.met.replicaAppends.Load(), rt.met.replicaAppErrs.Load())
	}
	_, a := directReq(t, shards[0].ts.URL, http.MethodPost, "/v1/alpha/answer", answerReq)
	_, b := directReq(t, shards[1].ts.URL, http.MethodPost, "/v1/alpha/answer", answerReq)
	if !bytes.Equal(a, b) {
		t.Fatalf("post-append answers diverge between replicas:\n%s\n%s", a, b)
	}
}

// A routed snapshot fetch streams the shard's bytes through unmodified,
// transfer-CRC header included, so a client (or a repairing shard) adopting
// through the router validates exactly what a direct pull would.
func TestRouterSnapshotRelay(t *testing.T) {
	rt, shards := bootFleet(t, 2, map[string]int64{"alpha": 11}, Options{RF: 2})
	resp, routed := doReq(t, rt, http.MethodGet, "/v1/alpha/snapshot", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed snapshot status %d: %s", resp.StatusCode, routed)
	}
	crc := resp.Header.Get(snapshotCRCHeader)
	if crc == "" {
		t.Fatal("routed snapshot dropped the transfer-CRC header")
	}
	dresp, direct := directReq(t, shards[0].ts.URL, http.MethodGet, "/v1/alpha/snapshot", "")
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("direct snapshot status %d", dresp.StatusCode)
	}
	if !bytes.Equal(routed, direct) {
		t.Fatalf("routed snapshot bytes differ from the shard's (%d vs %d bytes)", len(routed), len(direct))
	}
	if want := dresp.Header.Get(snapshotCRCHeader); crc != want {
		t.Fatalf("routed CRC header %s, direct %s", crc, want)
	}
}

// Growing the ring must pull datasets onto the new shard by snapshot
// streaming: the new shard boots empty, SetShards rebalances, and afterwards
// it serves the same bytes as the original holder.
func TestRouterRebalanceAdopts(t *testing.T) {
	rt, shards := bootFleet(t, 1, map[string]int64{"alpha": 11, "beta": 13}, Options{RF: 2})
	fresh := bootShard(t, t.TempDir())
	if fresh.reg.Len() != 0 {
		t.Fatalf("fresh shard has %d datasets, want 0", fresh.reg.Len())
	}
	moves := rt.SetShards([]string{shards[0].addr, fresh.addr})
	// rf=2 over 2 shards places every dataset on both, so the fresh shard
	// must have adopted both worlds.
	if len(moves) != 2 {
		t.Fatalf("moves = %+v, want 2 adoptions", moves)
	}
	for _, mv := range moves {
		if mv.Error != "" {
			t.Fatalf("move %+v failed", mv)
		}
		if mv.To != fresh.addr || mv.From != shards[0].addr {
			t.Fatalf("move %+v: want pull onto %s from %s", mv, fresh.addr, shards[0].addr)
		}
	}
	for _, ds := range []string{"alpha", "beta"} {
		if !fresh.reg.Has(ds) {
			t.Fatalf("fresh shard did not adopt %q", ds)
		}
		_, want := directReq(t, shards[0].ts.URL, http.MethodPost, "/v1/"+ds+"/answer", answerReq)
		dresp, got := directReq(t, fresh.ts.URL, http.MethodPost, "/v1/"+ds+"/answer", answerReq)
		if dresp.StatusCode != http.StatusOK {
			t.Fatalf("adopted shard answer status %d: %s", dresp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("adopted %q diverges from source:\n%s\n%s", ds, got, want)
		}
	}
	// Rebalance is idempotent: a second pass finds nothing to move.
	if again := rt.Rebalance(); len(again) != 0 {
		t.Fatalf("second rebalance moved %+v, want none", again)
	}
}

// A dataset no shard serves must come back 404 through the router (after
// trying the placement), not 502.
func TestRouterUnknownDataset(t *testing.T) {
	rt, _ := bootFleet(t, 2, map[string]int64{"alpha": 11}, Options{RF: 2})
	resp, body := doReq(t, rt, http.MethodPost, "/v1/nosuch/answer", answerReq)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "unknown dataset") {
		t.Fatalf("body = %s", body)
	}
}

// The router's own endpoints: /healthz lists per-shard readiness and
// inventory; /metrics exposes the per-shard series.
func TestRouterHealthAndMetrics(t *testing.T) {
	rt, _ := bootFleet(t, 2, map[string]int64{"alpha": 11}, Options{RF: 2})
	resp, body := doReq(t, rt, http.MethodGet, "/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h RouterHealth
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.RF != 2 || len(h.Shards) != 2 {
		t.Fatalf("health = %+v", h)
	}
	for _, sh := range h.Shards {
		if !sh.Ready || len(sh.Datasets) != 1 || sh.Datasets[0] != "alpha" {
			t.Fatalf("shard health = %+v, want ready with [alpha]", sh)
		}
	}

	doReq(t, rt, http.MethodPost, "/v1/alpha/answer", answerReq)
	_, met := doReq(t, rt, http.MethodGet, "/metrics", "")
	// The single read lands on alpha's ring primary — which of the two
	// shards that is depends on the httptest ports.
	primary := rt.Placement("alpha")[0]
	for _, want := range []string{
		`currents_router_ring_shards{state="ready"} 2`,
		fmt.Sprintf("currents_router_requests_total{shard=%q}", primary),
		"currents_router_request_duration_seconds_bucket",
		"currents_router_failovers_total",
	} {
		if !strings.Contains(string(met), want) {
			t.Fatalf("metrics missing %q:\n%s", want, met)
		}
	}
}

// The background prober flips a shard's readiness both ways.
func TestRouterProberMarksDown(t *testing.T) {
	rt, shards := bootFleet(t, 2, map[string]int64{"alpha": 11}, Options{
		RF: 2, HealthInterval: 20 * time.Millisecond, ProbeTimeout: 200 * time.Millisecond,
	})
	rt.Start()
	if !rt.isReady(shards[0].addr) {
		t.Fatal("shard 0 not ready after synchronous boot probe")
	}
	shards[0].ts.CloseClientConnections()
	shards[0].ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for rt.isReady(shards[0].addr) {
		if time.Now().After(deadline) {
			t.Fatal("prober never marked the killed shard down")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !rt.isReady(shards[1].addr) {
		t.Fatal("live shard was marked down")
	}
}
