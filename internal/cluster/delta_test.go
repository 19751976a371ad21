package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"sourcecurrents/internal/server"
	"sourcecurrents/internal/session"
)

// Routed appends fan out as the primary's epoch delta: after a source-major,
// an object-major and a new-source append the replica serves every read
// byte for byte as the primary does, holds the same segment files, and
// applied every batch from a delta; nothing needed repair.
func TestRouterReplicaAppliesPrimaryDelta(t *testing.T) {
	cfg := session.DefaultConfig()
	cfg.RetainEpochs = 4
	addrs := make([]string, 2)
	dirs := map[string]string{}
	for i := range addrs {
		dir := t.TempDir()
		writeWorldSnap(t, dir, "alpha", 11, 30)
		reg, err := server.LoadDirAllowEmpty(dir, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(reg, server.Options{
			AdoptDir: dir, SessionCfg: cfg, PersistDir: dir, CompactEvery: -1,
		}))
		t.Cleanup(ts.Close)
		addrs[i] = strings.TrimPrefix(ts.URL, "http://")
		dirs[addrs[i]] = dir
	}
	rt, err := NewRouter(addrs, Options{RF: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	placement := rt.Placement("alpha")
	primary, replica := "http://"+placement[0], "http://"+placement[1]

	var objectMajor []string
	for s := 0; s < 6; s++ {
		objectMajor = append(objectMajor, fmt.Sprintf(`{"source":"I%d","entity":"o00003","attribute":"v","value":"V%d"}`, s, s%2))
	}
	batches := []string{
		`{"claims":[{"source":"I2","entity":"o00000","attribute":"v","value":"zzz"},{"source":"I2","entity":"o00001","attribute":"v","value":"zzz"}]}`,
		`{"claims":[` + strings.Join(objectMajor, ",") + `]}`,
		`{"claims":[{"source":"0-first","entity":"o00002","attribute":"v","value":"zzz"},{"source":"0-first","entity":"o00004","attribute":"v","value":"yyy"}]}`,
	}
	for i, b := range batches {
		resp, out := doReq(t, rt, http.MethodPost, "/v1/alpha/append", b)
		var ack appendBody
		if resp.StatusCode != http.StatusOK || json.Unmarshal(out, &ack) != nil || ack.Epoch != uint64(i+1) ||
			len(ack.Replicas) != 1 || !ack.Replicas[0].OK {
			t.Fatalf("append %d: %d %s", i+1, resp.StatusCode, out)
		}
	}
	for _, r := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/alpha/answer", answerReq},
		{http.MethodPost, "/v1/alpha/answer?as_of=1", answerReq},
		{http.MethodPost, "/v1/alpha/fuse", ""},
		{http.MethodPost, "/v1/alpha/recommend", `{"k":3}`},
		{http.MethodGet, "/v1/alpha/accuracy", ""},
	} {
		wresp, want := directReq(t, primary, r.method, r.path, r.body)
		_, got := directReq(t, replica, r.method, r.path, r.body)
		if wresp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s: replica serves\n%s\nprimary (%d)\n%s", r.path, got, wresp.StatusCode, want)
		}
	}
	for e := 1; e <= len(batches); e++ {
		seg := fmt.Sprintf("alpha.%06d.seg", e)
		want, err := os.ReadFile(filepath.Join(dirs[placement[0]], seg))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dirs[placement[1]], seg))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs between replica and primary", seg)
		}
	}
	_, met := directReq(t, replica, http.MethodGet, "/metrics", "")
	if line := fmt.Sprintf(`currents_dataset_delta_appends_total{dataset="alpha"} %d`, len(batches)); !strings.Contains(string(met), line) {
		t.Fatalf("replica metrics missing %q", line)
	}
	if rt.met.replicaDeltaBytes.Load() == 0 || rt.met.replicaAppErrs.Load() != 0 || rt.met.repairs.Load() != 0 {
		t.Fatalf("delta bytes %d, replica errors %d, repairs %d; want > 0, 0, 0",
			rt.met.replicaDeltaBytes.Load(), rt.met.replicaAppErrs.Load(), rt.met.repairs.Load())
	}
}

// A client that hangs up once the primary has acked does not take the
// fan-out with it: the replica still reaches the epoch, and nothing is left
// for repair.
func TestRouterFanoutOutlivesClient(t *testing.T) {
	var cancel context.CancelFunc
	rt, regs, snapshots := bootFanoutWindowFleet(t, func(*Router) { cancel() })
	ctx, c := context.WithCancel(context.Background())
	cancel = c
	body := `{"claims":[{"source":"s_extra","entity":"o00001","attribute":"v","value":"zzz"}]}`
	req := httptest.NewRequest(http.MethodPost, "/v1/alpha/append", strings.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rt.ServeHTTP(httptest.NewRecorder(), req)
	for i, reg := range regs {
		if epoch := reg.KnownEpochs()["alpha"]; epoch != 1 {
			t.Fatalf("shard %d at epoch %d, want 1", i, epoch)
		}
	}
	if got := rt.met.replicaAppErrs.Load(); got != 0 {
		t.Fatalf("replica append errors = %d, want 0", got)
	}
	if got := rt.repair.pendingCount(); got != 0 {
		t.Fatalf("repair queue = %d tasks, want 0", got)
	}
	if got := snapshots.Load(); got != 0 {
		t.Fatalf("%d snapshots streamed, want 0", got)
	}
	_, met := doReq(t, rt, http.MethodGet, "/metrics", "")
	if !strings.Contains(string(met), "currents_router_repairs_total 0\n") {
		t.Fatalf("metrics missing currents_router_repairs_total 0:\n%s", met)
	}
}

// A primary whose 200 ack names no epoch leaves the fan-out nothing to make
// conditional: no replica is sent the batch unconditionally — each is a
// fan-out failure, queued for repair.
func TestRouterAppendAckWithoutEpoch(t *testing.T) {
	var primary string
	var replicaHits atomic.Int64
	addrs := make([]string, 2)
	for i := range addrs {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Host == primary {
				w.WriteHeader(http.StatusOK)
				fmt.Fprint(w, "appended")
				return
			}
			if strings.HasPrefix(r.URL.Path, "/v1/") { // not a readiness probe
				replicaHits.Add(1)
			}
			http.Error(w, "the replica was not meant to be asked", http.StatusTeapot)
		}))
		t.Cleanup(ts.Close)
		addrs[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	rt, err := NewRouter(addrs, Options{RF: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	primary = rt.Placement("alpha")[0]
	resp, out := doReq(t, rt, http.MethodPost, "/v1/alpha/append",
		`{"claims":[{"source":"s","entity":"o","attribute":"v","value":"x"}]}`)
	if resp.StatusCode != http.StatusOK || string(out) != "appended" {
		t.Fatalf("the primary's ack was not relayed: %d %s", resp.StatusCode, out)
	}
	if got := replicaHits.Load(); got != 0 {
		t.Fatalf("the replica was sent %d requests, want none", got)
	}
	if got := rt.met.replicaAppErrs.Load(); got != 1 {
		t.Fatalf("replica append errors = %d, want 1", got)
	}
	if got := rt.repair.pendingCount(); got != 1 {
		t.Fatalf("repair queue = %d tasks, want 1", got)
	}
}

// A replica that missed three appends — across which its primary compacted —
// is repaired by one delta since its own epoch: no snapshot is streamed and
// nothing is adopted; it reaches the primary's epoch serving the primary's
// bytes now and at both epochs it jumped over, holds the primary's segment
// bytes, and keeps its world: no cached answer is flushed and every epoch
// it held in memory still is.
func TestRouterRepairIsADelta(t *testing.T) {
	cfg := session.DefaultConfig()
	cfg.RetainEpochs = 4
	var snapshots, adopts atomic.Int64
	addrs := make([]string, 2)
	dirs := map[string]string{}
	var target string
	for i := range addrs {
		dir := t.TempDir()
		writeWorldSnap(t, dir, "alpha", 11, 30)
		reg, err := server.LoadDirAllowEmpty(dir, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		shard := server.New(reg, server.Options{
			AdoptDir: dir, SessionCfg: cfg, PersistDir: dir, CompactEvery: 2, AnswerCacheSize: 64,
		})
		var self string
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case strings.HasSuffix(r.URL.Path, "/snapshot"):
				snapshots.Add(1)
			case strings.HasSuffix(r.URL.Path, "/adopt") && self == target:
				adopts.Add(1)
			}
			shard.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		self = strings.TrimPrefix(ts.URL, "http://")
		addrs[i] = self
		dirs[self] = dir
	}
	rt, err := NewRouter(addrs, Options{RF: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	placement := rt.Placement("alpha")
	target = placement[1]
	primary, replica := "http://"+placement[0], "http://"+placement[1]

	// Load both worlds and cache an answer on the replica.
	for _, base := range []string{primary, replica} {
		if resp, body := directReq(t, base, http.MethodPost, "/v1/alpha/answer", answerReq); resp.StatusCode != http.StatusOK {
			t.Fatalf("answer: %d %s", resp.StatusCode, body)
		}
	}
	flushes := func() string {
		_, met := directReq(t, replica, http.MethodGet, "/metrics", "")
		for _, line := range strings.Split(string(met), "\n") {
			if strings.HasPrefix(line, "currents_answer_cache_flushes_total ") {
				return line
			}
		}
		t.Fatal("no currents_answer_cache_flushes_total on the replica")
		return ""
	}
	resident := func() map[int]bool {
		_, body := directReq(t, replica, http.MethodGet, "/v1/alpha/history", "")
		var h server.HistoryResponse
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatal(err)
		}
		out := map[int]bool{}
		for _, e := range h.Epochs {
			if e.Resident {
				out[e.Epoch] = true
			}
		}
		return out
	}
	flushesBefore, residentBefore := flushes(), resident()

	// Three appends straight to the primary, bypassing the fan-out; the
	// second compacts its log into a snapshot at epoch 2.
	for i, b := range []string{
		`{"claims":[{"source":"I2","entity":"o00000","attribute":"v","value":"zzz"},{"source":"I2","entity":"o00001","attribute":"v","value":"zzz"}]}`,
		`{"claims":[{"source":"0-first","entity":"o00002","attribute":"v","value":"zzz"}]}`,
		`{"claims":[{"source":"I4","entity":"o00003","attribute":"v","value":"yyy"},{"source":"I0","entity":"o00004","attribute":"v","value":"yyy"}]}`,
	} {
		if resp, body := directReq(t, primary, http.MethodPost, "/v1/alpha/append", b); resp.StatusCode != http.StatusOK {
			t.Fatalf("primary append %d: %d %s", i+1, resp.StatusCode, body)
		}
	}
	if _, err := os.Stat(filepath.Join(dirs[placement[0]], "archive", "alpha.000002.seg")); err != nil {
		t.Fatalf("the primary did not compact mid-lag: %v", err)
	}
	rt.probeAll()
	rt.repair.runOnce()

	if got := rt.met.repairs.Load(); got != 1 {
		t.Fatalf("repairs = %d, want 1 (errors %d)", got, rt.met.repairErrs.Load())
	}
	if snapshots.Load() != 0 || adopts.Load() != 0 {
		t.Fatalf("%d snapshots streamed, %d adopts on the target; want 0, 0", snapshots.Load(), adopts.Load())
	}
	if got := flushes(); got != flushesBefore {
		t.Fatalf("the repair flushed the replica's cache: %q, was %q", got, flushesBefore)
	}
	after := resident()
	for e := range residentBefore {
		if !after[e] {
			t.Fatalf("epoch %d was resident before the repair and is not after (%v)", e, after)
		}
	}
	if !after[3] {
		t.Fatalf("the replica does not serve epoch 3 (resident %v)", after)
	}

	for _, r := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/alpha/answer", answerReq},
		{http.MethodPost, "/v1/alpha/fuse", ""},
		{http.MethodGet, "/v1/alpha/accuracy", ""},
		{http.MethodPost, "/v1/alpha/answer?as_of=1", answerReq},
		{http.MethodPost, "/v1/alpha/answer?as_of=2", answerReq},
		{http.MethodGet, "/v1/alpha/accuracy?as_of=1", ""},
		{http.MethodGet, "/v1/alpha/accuracy?as_of=2", ""},
	} {
		wresp, want := directReq(t, primary, r.method, r.path, r.body)
		_, got := directReq(t, replica, r.method, r.path, r.body)
		if wresp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s: replica serves\n%s\nprimary (%d)\n%s", r.path, got, wresp.StatusCode, want)
		}
	}
	// Each side's segments sit in its directory or, once compacted, in its
	// archive.
	seg := func(dir string, e int) []byte {
		name := fmt.Sprintf("alpha.%06d.seg", e)
		for _, p := range []string{filepath.Join(dir, name), filepath.Join(dir, "archive", name)} {
			if b, err := os.ReadFile(p); err == nil {
				return b
			}
		}
		t.Fatalf("%s not in %s", name, dir)
		return nil
	}
	for e := 1; e <= 3; e++ {
		if !bytes.Equal(seg(dirs[placement[1]], e), seg(dirs[placement[0]], e)) {
			t.Fatalf("segment %d differs between replica and primary", e)
		}
	}
}
