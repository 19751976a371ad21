package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sourcecurrents/internal/session"
)

// appendBody renders an append request: source asserting value for the
// dataset's first n objects.
func appendBody(t testing.TB, s *session.Session, source, value string, n int) string {
	t.Helper()
	objs := s.Dataset().Objects()
	if n > len(objs) {
		n = len(objs)
	}
	req := AppendRequest{Claims: make([]ClaimJSON, n)}
	for i := 0; i < n; i++ {
		req.Claims[i] = ClaimJSON{
			Source: source, Entity: objs[i].Entity, Attribute: objs[i].Attribute, Value: value,
		}
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sessionOf returns name's current session and epoch.
func sessionOf(reg *Registry, name string) (*session.Session, uint64, bool) {
	s, epoch, err := reg.Current(name)
	return s, epoch, err == nil
}

// TestSwapNeverServesStaleAnswer is the epoch-key regression test: with the
// answer cache enabled and warm, swapping a dataset's session must never
// let a later request observe response bytes computed from the retired
// session — the pre-fix cache key (name + request, no epoch) did exactly
// that.
func TestSwapNeverServesStaleAnswer(t *testing.T) {
	reg := NewRegistry()
	s1 := testSession(t, 11, 40)
	if err := reg.Register("alpha", s1); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, Options{AnswerCacheSize: 64})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := answerBody(t, s1, 6)
	url := ts.URL + "/v1/alpha/answer"

	resp, got1 := post(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got1)
	}
	// Warm hit: identical bytes from the cache.
	if _, again := post(t, url, body); string(again) != string(got1) {
		t.Fatalf("cache hit differs from first response")
	}
	if srv.cache.hits.Load() == 0 {
		t.Fatalf("expected a cache hit before the swap")
	}

	// A different world over the same object universe, one batch on: same
	// query, different data, different answers at the next epoch.
	s2, err := testSession(t, 29, 40).Append(s1.Dataset().Claims()[:1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.swap("alpha", s2); err != nil {
		t.Fatal(err)
	}

	wantRes, err := ExecAnswer(s2, decodeAnswerReq(t, body))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(BuildAnswerResponse(wantRes, false))
	if err != nil {
		t.Fatal(err)
	}
	if string(want)+"\n" == string(got1) {
		t.Fatalf("test worlds produced identical answers; pick different seeds")
	}
	resp, got2 := post(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got2)
	}
	if string(got2) == string(got1) {
		t.Fatalf("swapped dataset served pre-swap bytes")
	}
	if string(got2) != string(want)+"\n" {
		t.Fatalf("post-swap response is not the new session's answer:\ngot  %s\nwant %s", got2, want)
	}
}

func decodeAnswerReq(t testing.TB, body string) AnswerRequest {
	t.Helper()
	var req AnswerRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	return req
}

// TestAppendEndpoint drives the live-ingest happy path over HTTP: the
// response reports the new generation, the swapped-in session serves
// exactly what a direct Session.Append produces, and the lifecycle metrics
// (epoch gauge, append counter, cache flush counter) all move.
func TestAppendEndpoint(t *testing.T) {
	reg := NewRegistry()
	s1 := testSession(t, 11, 40)
	if err := reg.Register("alpha", s1); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{AnswerCacheSize: 64}))
	defer ts.Close()

	ansBody := answerBody(t, s1, 6)
	post(t, ts.URL+"/v1/alpha/answer", ansBody) // seed the cache

	batch := appendBody(t, s1, "fresh", "Z0", 10)
	resp, body := post(t, ts.URL+"/v1/alpha/append", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d: %s", resp.StatusCode, body)
	}
	var ar AppendResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Dataset != "alpha" || ar.Epoch != 1 || ar.Appended != 10 {
		t.Fatalf("append response = %+v", ar)
	}
	if ar.Claims != s1.Dataset().Len()+10 || ar.Sources != len(s1.Dataset().Sources())+1 {
		t.Fatalf("append response counts = %+v", ar)
	}

	// The served answer after the append is the direct Append result.
	var req AppendRequest
	if err := json.Unmarshal([]byte(batch), &req); err != nil {
		t.Fatal(err)
	}
	claims, err := req.batch()
	if err != nil {
		t.Fatal(err)
	}
	wantSess, err := s1.Append(claims)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := ExecAnswer(wantSess, decodeAnswerReq(t, ansBody))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(BuildAnswerResponse(wantRes, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, got := post(t, ts.URL+"/v1/alpha/answer", ansBody); string(got) != string(want)+"\n" {
		t.Fatalf("post-append answer differs from direct Append result:\ngot  %s\nwant %s", got, want)
	}

	_, met := get(t, ts.URL+"/metrics")
	for _, line := range []string{
		`currents_dataset_epoch{dataset="alpha"} 1`,
		`currents_dataset_appends_total{dataset="alpha"} 1`,
		`currents_dataset_swaps_total{dataset="alpha"} 1`,
		`currents_answer_cache_flushes_total 1`,
		`currents_requests_total{op="append"} 1`,
	} {
		if !strings.Contains(string(met), line) {
			t.Errorf("metrics missing %q", line)
		}
	}
}

// TestAppendErrorPaths pins the endpoint's error contract.
func TestAppendErrorPaths(t *testing.T) {
	ts, _ := testServer(t)
	cases := []struct {
		name, url, body string
		status          int
	}{
		{"empty batch", "/v1/alpha/append", `{"claims":[]}`, http.StatusBadRequest},
		{"no body", "/v1/alpha/append", ``, http.StatusBadRequest},
		{"invalid claim", "/v1/alpha/append",
			`{"claims":[{"source":"","entity":"e","attribute":"a","value":"v"}]}`, http.StatusBadRequest},
		{"bad prob", "/v1/alpha/append",
			`{"claims":[{"source":"s","entity":"e","attribute":"a","value":"v","prob":1.5}]}`, http.StatusBadRequest},
		{"unknown field", "/v1/alpha/append", `{"clams":[]}`, http.StatusBadRequest},
		{"unknown dataset", "/v1/nope/append", `{"claims":[]}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+tc.url, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
		})
	}
	t.Run("method not allowed", func(t *testing.T) {
		resp, _ := get(t, ts.URL+"/v1/alpha/append")
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET append status %d, want 405", resp.StatusCode)
		}
	})
}

// TestAppendExpectEpoch pins the conditional append: ?expect_epoch=e applies
// the batch only to a dataset standing at epoch e; any other epoch is a 409
// that carries the dataset's epoch and changes nothing. Without the
// parameter an append lands at whatever epoch it finds.
func TestAppendExpectEpoch(t *testing.T) {
	ts, _ := testServer(t)
	batch := `{"claims":[{"source":"s_new","entity":"e","attribute":"a","value":"v"}]}`
	epochOf := func(body []byte) uint64 {
		t.Helper()
		var out struct {
			Epoch *uint64 `json:"epoch"`
		}
		if err := json.Unmarshal(body, &out); err != nil || out.Epoch == nil {
			t.Fatalf("no epoch in %s (%v)", body, err)
		}
		return *out.Epoch
	}
	for _, step := range []struct {
		query  string
		status int
		epoch  uint64
	}{
		{"?expect_epoch=0", http.StatusOK, 1},
		{"?expect_epoch=0", http.StatusConflict, 1}, // behind: the batch is already in
		{"?expect_epoch=5", http.StatusConflict, 1}, // ahead
		{"?expect_epoch=1", http.StatusOK, 2},
		{"", http.StatusOK, 3},
		{"?expect_epoch=two", http.StatusBadRequest, 0},
		{"?expect_epoch=-1", http.StatusBadRequest, 0},
	} {
		resp, body := post(t, ts.URL+"/v1/alpha/append"+step.query, batch)
		if resp.StatusCode != step.status {
			t.Fatalf("append%s: status %d, want %d: %s", step.query, resp.StatusCode, step.status, body)
		}
		if step.status != http.StatusBadRequest && epochOf(body) != step.epoch {
			t.Fatalf("append%s: epoch %d, want %d: %s", step.query, epochOf(body), step.epoch, body)
		}
	}
	_, met := get(t, ts.URL+"/metrics")
	for _, line := range []string{
		`currents_dataset_epoch{dataset="alpha"} 3`,
		`currents_dataset_appends_total{dataset="alpha"} 3`,
	} {
		if !strings.Contains(string(met), line) {
			t.Errorf("metrics missing %q", line)
		}
	}
}

// TestAppendPersistAndReplay round-trips live ingest through the
// persistence layer: appends write segments, and LoadDir restores the
// exact post-append serving state from base snapshot + segment replay.
func TestAppendPersistAndReplay(t *testing.T) {
	dir := t.TempDir()
	s1 := testSession(t, 11, 30)
	snap, err := os.Create(filepath.Join(dir, "alpha.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	snap.Close()

	reg := NewRegistry()
	if err := reg.Register("alpha", s1); err != nil {
		t.Fatal(err)
	}
	// CompactEvery < 0 disables compaction so every segment survives.
	ts := httptest.NewServer(New(reg, Options{PersistDir: dir, CompactEvery: -1}))
	defer ts.Close()

	for i := 0; i < 3; i++ {
		cur, _, _ := sessionOf(reg, "alpha")
		resp, body := post(t, ts.URL+"/v1/alpha/append",
			appendBody(t, cur, fmt.Sprintf("w%d", i), fmt.Sprintf("Z%d", i), 4+i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d status %d: %s", i, resp.StatusCode, body)
		}
	}
	for i := 1; i <= 3; i++ {
		p := filepath.Join(dir, fmt.Sprintf("alpha.%06d.seg", i))
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("segment %s missing: %v", p, err)
		}
	}

	live, _, _ := sessionOf(reg, "alpha")
	reloaded, err := LoadDir(dir, session.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, epoch, ok := sessionOf(reloaded, "alpha")
	if !ok || epoch != 3 {
		t.Fatalf("reloaded epoch = %d (ok=%t), want 3", epoch, ok)
	}
	assertServesSame(t, cold, live)
	// Boot replay advances worlds the way a live append does, but
	// currents_dataset_appends_total counts accepted batches since start.
	if st := reloaded.Stats()[0]; st.Appends != 0 || st.Swaps != 3 {
		t.Fatalf("after replay: appends = %d, swaps = %d; want 0, 3", st.Appends, st.Swaps)
	}
}

// TestAppendCompaction pins the compaction lifecycle: once CompactEvery
// segments accumulate, the server folds them into a fresh session snapshot
// and archives them, and a cold start from the compacted directory still
// restores the live state exactly.
func TestAppendCompaction(t *testing.T) {
	dir := t.TempDir()
	s1 := testSession(t, 13, 25)
	snap, err := os.Create(filepath.Join(dir, "beta.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	snap.Close()

	reg := NewRegistry()
	if err := reg.Register("beta", s1); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{PersistDir: dir, CompactEvery: 2}))
	defer ts.Close()

	for i := 0; i < 3; i++ {
		cur, _, _ := sessionOf(reg, "beta")
		resp, body := post(t, ts.URL+"/v1/beta/append",
			appendBody(t, cur, fmt.Sprintf("w%d", i), "Z9", 3))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d status %d: %s", i, resp.StatusCode, body)
		}
	}
	// Appends 1 and 2 compacted into beta.snap; append 3 left one segment.
	segs, err := filepath.Glob(filepath.Join(dir, "beta.*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || !strings.HasSuffix(segs[0], "beta.000003.seg") {
		t.Fatalf("post-compaction segments = %v, want only beta.000003.seg", segs)
	}
	// Compaction archives superseded segments instead of deleting them, so
	// every epoch's raw batch stays addressable on disk after its claims
	// fold into the snapshot.
	archived, err := filepath.Glob(filepath.Join(dir, "archive", "beta.*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(archived) != 2 ||
		!strings.HasSuffix(archived[0], "beta.000001.seg") ||
		!strings.HasSuffix(archived[1], "beta.000002.seg") {
		t.Fatalf("archived segments = %v, want beta.000001.seg and beta.000002.seg", archived)
	}

	live, _, _ := sessionOf(reg, "beta")
	reloaded, err := LoadDir(dir, session.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, epoch, ok := sessionOf(reloaded, "beta")
	if !ok || epoch != 3 {
		t.Fatalf("reloaded epoch = %d (ok=%t), want 3", epoch, ok)
	}
	assertServesSame(t, cold, live)
}

// TestCompactionUnderConcurrentAppends pins that compaction is part of the
// append it follows: with several appenders, an older append's snapshot can
// never land over a newer one's after that one archived the segments
// between them. Once every append is acknowledged the directory must boot
// at exactly the acknowledged epoch, serving what the live session serves.
func TestCompactionUnderConcurrentAppends(t *testing.T) {
	const writers, perWriter = 8, 5
	s1 := testSession(t, 17, 600)
	// The interleaving is a matter of scheduling; a few rounds make one run
	// likely to hit it.
	for round := 0; round < 4; round++ {
		dir := t.TempDir()
		snap, err := os.Create(filepath.Join(dir, "gamma.snap"))
		if err != nil {
			t.Fatal(err)
		}
		if err := s1.WriteSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		snap.Close()

		reg := NewRegistry()
		if err := reg.Register("gamma", s1); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(New(reg, Options{PersistDir: dir, CompactEvery: 2}))
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					body := appendBody(t, s1, fmt.Sprintf("w%d", w), fmt.Sprintf("Z%d", i), 3)
					resp, err := http.Post(ts.URL+"/v1/gamma/append", "application/json", strings.NewReader(body))
					if err != nil {
						t.Errorf("writer %d append %d: %v", w, i, err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("writer %d append %d: status %d", w, i, resp.StatusCode)
					}
				}
			}(w)
		}
		wg.Wait()
		ts.Close()
		if t.Failed() {
			return
		}

		live, _, _ := sessionOf(reg, "gamma")
		reloaded, err := LoadDir(dir, session.DefaultConfig(), nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		cold, epoch, ok := sessionOf(reloaded, "gamma")
		if !ok || epoch != writers*perWriter {
			t.Fatalf("round %d: reloaded epoch = %d (ok=%t), want the %d acknowledged appends", round, epoch, ok, writers*perWriter)
		}
		assertServesSame(t, cold, live)
	}
}

// assertServesSame asserts two sessions serve identical accuracies and
// answers over the first objects — the cold-start equivalence contract.
func assertServesSame(t testing.TB, got, want *session.Session) {
	t.Helper()
	ga, wa := got.Accuracy(), want.Accuracy()
	if len(ga) != len(wa) {
		t.Fatalf("accuracy sizes differ: %d vs %d", len(ga), len(wa))
	}
	for src, v := range wa {
		if ga[src] != v {
			t.Fatalf("accuracy[%s] = %v, want %v", src, ga[src], v)
		}
	}
	objs := want.Dataset().Objects()
	n := 8
	if n > len(objs) {
		n = len(objs)
	}
	// The served reply and the full trace behind it.
	for _, steps := range []bool{false, true} {
		req := AnswerRequest{Query: refsFor(objs[:n]), IncludeSteps: steps}
		g, w := expectedAnswer(t, got, req), expectedAnswer(t, want, req)
		if string(g) != string(w) {
			t.Fatalf("answers differ (include_steps=%t):\ngot  %s\nwant %s", steps, g, w)
		}
	}
}

// TestRegistrySwapErrors pins swap/ingest error handling.
func TestRegistrySwapErrors(t *testing.T) {
	reg := NewRegistry()
	s := testSession(t, 11, 25)
	if _, err := reg.swap("ghost", s); err == nil {
		t.Fatal("swap of unregistered dataset accepted")
	}
	if err := reg.Register("a", s); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.swap("a", nil); err == nil {
		t.Fatal("nil swap accepted")
	}
	if _, _, err := reg.ingest("ghost", func(cur *session.Session) (*session.Session, error) {
		return cur, nil
	}, false); err == nil {
		t.Fatal("update of unregistered dataset accepted")
	}
	if _, _, err := reg.ingest("a", func(*session.Session) (*session.Session, error) {
		return nil, fmt.Errorf("boom")
	}, false); err == nil {
		t.Fatal("failed update did not surface its error")
	}
	if epoch := reg.KnownEpochs()["a"]; epoch != 0 {
		t.Fatalf("failed update advanced the epoch to %d", epoch)
	}
}

// TestAppendConcurrentWithReads hammers a live server with concurrent
// answer traffic while appends swap the session underneath — zero failed
// requests is the pass condition (the loadgen invariant, in-process).
func TestAppendConcurrentWithReads(t *testing.T) {
	reg := NewRegistry()
	s1 := testSession(t, 11, 30)
	if err := reg.Register("alpha", s1); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{AnswerCacheSize: 32}))
	defer ts.Close()

	body := answerBody(t, s1, 5)
	done := make(chan struct{})
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/alpha/answer", "application/json", strings.NewReader(body))
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					select {
					case errs <- fmt.Errorf("answer status %d", resp.StatusCode):
					default:
					}
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		cur, _, _ := sessionOf(reg, "alpha")
		resp, b := post(t, ts.URL+"/v1/alpha/append",
			appendBody(t, cur, fmt.Sprintf("liv%d", i), "Z1", 3))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d status %d: %s", i, resp.StatusCode, b)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if epoch := reg.KnownEpochs()["alpha"]; epoch != 5 {
		t.Fatalf("epoch = %d, want 5", epoch)
	}
}
