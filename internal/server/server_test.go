package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/probdb"
	"sourcecurrents/internal/session"
	"sourcecurrents/internal/synth"
)

// testWorld generates a deterministic snapshot corpus.
func testWorld(t testing.TB, seed int64, nObjects int) *dataset.Dataset {
	t.Helper()
	sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
		Seed:           seed,
		NObjects:       nObjects,
		IndependentAcc: []float64{0.9, 0.8, 0.7, 0.6, 0.85, 0.75},
		Copiers: []synth.CopierSpec{
			{MasterIndex: 0, CopyRate: 0.85, OwnAcc: 0.7},
			{MasterIndex: 2, CopyRate: 0.6, OwnAcc: 0.65},
		},
		FalsePool: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sw.Dataset
}

func testSession(t testing.TB, seed int64, nObjects int) *session.Session {
	t.Helper()
	s, err := session.New(testWorld(t, seed, nObjects), session.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testServer builds a two-dataset server on httptest.
func testServer(t testing.TB) (*httptest.Server, map[string]*session.Session) {
	t.Helper()
	reg := NewRegistry()
	sessions := map[string]*session.Session{
		"alpha": testSession(t, 11, 40),
		"beta":  testSession(t, 13, 25),
	}
	for name, s := range sessions {
		if err := reg.Register(name, s); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(reg, Options{}))
	t.Cleanup(ts.Close)
	return ts, sessions
}

func post(t testing.TB, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func get(t testing.TB, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// answerBody renders an answer request for the first n objects.
func answerBody(t testing.TB, s *session.Session, n int) string {
	t.Helper()
	objs := s.Dataset().Objects()
	if n > len(objs) {
		n = len(objs)
	}
	refs := make([]ObjectRef, n)
	for i := 0; i < n; i++ {
		refs[i] = ObjectRef{Entity: objs[i].Entity, Attribute: objs[i].Attribute}
	}
	b, err := json.Marshal(AnswerRequest{Query: refs})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestHealthz(t *testing.T) {
	ts, _ := testServer(t)
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Datasets) != 2 || h.Datasets[0] != "alpha" || h.Datasets[1] != "beta" {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestAnswerBasic(t *testing.T) {
	ts, sessions := testServer(t)
	resp, body := post(t, ts.URL+"/v1/alpha/answer", answerBody(t, sessions["alpha"], 5))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var ar AnswerResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.Final) != 5 || len(ar.Probed) == 0 {
		t.Fatalf("answer = %+v", ar)
	}
	if len(ar.Steps) != 0 {
		t.Fatal("steps included without include_steps")
	}
}

func TestAnswerOverrides(t *testing.T) {
	ts, sessions := testServer(t)
	objs := sessions["alpha"].Dataset().Objects()
	req := fmt.Sprintf(`{"query":[{"entity":%q,"attribute":%q}],"policy":"by-id","max_sources":2,"include_steps":true}`,
		objs[0].Entity, objs[0].Attribute)
	resp, body := post(t, ts.URL+"/v1/alpha/answer", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var ar AnswerResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.Probed) > 2 {
		t.Fatalf("max_sources ignored: probed %v", ar.Probed)
	}
	if len(ar.Steps) == 0 {
		t.Fatal("include_steps ignored")
	}
	// by-id probes in source-id order.
	for i := 1; i < len(ar.Probed); i++ {
		if ar.Probed[i-1] >= ar.Probed[i] {
			t.Fatalf("by-id order violated: %v", ar.Probed)
		}
	}
}

func TestErrorStatuses(t *testing.T) {
	ts, sessions := testServer(t)
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"unknown dataset", "POST", "/v1/nosuch/answer", `{"query":[{"entity":"e","attribute":"a"}]}`, 404},
		{"unknown op", "POST", "/v1/alpha/nosuch", ``, 404},
		{"root", "GET", "/", ``, 404},
		{"deep path", "POST", "/v1/alpha/answer/extra", ``, 404},
		{"wrong method answer", "GET", "/v1/alpha/answer", ``, 405},
		{"wrong method accuracy", "POST", "/v1/alpha/accuracy", ``, 405},
		{"wrong method healthz", "POST", "/healthz", ``, 405},
		{"empty query", "POST", "/v1/alpha/answer", `{"query":[]}`, 400},
		{"malformed json", "POST", "/v1/alpha/answer", `{"query":`, 400},
		{"unknown field", "POST", "/v1/alpha/answer", `{"queryy":[]}`, 400},
		{"removed worker-count field", "POST", "/v1/alpha/answer", `{"query":[{"entity":"e","attribute":"a"}],"parallelism":4}`, 400},
		{"trailing garbage", "POST", "/v1/alpha/answer", `{"query":[{"entity":"e","attribute":"a"}]} extra`, 400},
		{"bad policy", "POST", "/v1/alpha/answer", `{"query":[{"entity":"e","attribute":"a"}],"policy":"psychic"}`, 400},
		{"bad stop prob", "POST", "/v1/alpha/answer", `{"query":[{"entity":"e","attribute":"a"}],"stop_prob":1.5}`, 400},
		{"negative k", "POST", "/v1/alpha/recommend", `{"k":-3}`, 400},
		{"bad weights", "POST", "/v1/alpha/recommend", `{"k":2,"weights":{"accuracy":-1}}`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var body []byte
			if tc.method == "GET" {
				resp, body = get(t, ts.URL+tc.path)
			} else {
				resp, body = post(t, ts.URL+tc.path, tc.body)
			}
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.want, body)
			}
			if resp.StatusCode >= 400 {
				var er ErrorResponse
				if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
					t.Fatalf("error body not JSON: %s", body)
				}
			}
		})
	}
	_ = sessions
}

func TestRequestSizeCap(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("tiny", testSession(t, 17, 10)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{MaxRequestBytes: 256}))
	defer ts.Close()

	big := `{"query":[` + strings.Repeat(`{"entity":"padding-entity","attribute":"a"},`, 50)
	big = big[:len(big)-1] + `]}`
	resp, _ := post(t, ts.URL+"/v1/tiny/answer", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestProbdbErrorsMapTo400(t *testing.T) {
	// The named probdb sentinels are client errors at the HTTP boundary.
	for _, err := range []error{
		probdb.ErrProbOutOfRange,
		probdb.ErrDepenMismatch,
		probdb.ErrDepenOutOfRange,
		fmt.Errorf("wrapped: %w", probdb.ErrProbOutOfRange),
	} {
		if got := statusOf(err); got != http.StatusBadRequest {
			t.Fatalf("statusOf(%v) = %d, want 400", err, got)
		}
	}
	if got := statusOf(fmt.Errorf("boom")); got != http.StatusInternalServerError {
		t.Fatalf("statusOf(internal) = %d, want 500", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, sessions := testServer(t)
	post(t, ts.URL+"/v1/alpha/answer", answerBody(t, sessions["alpha"], 3))
	post(t, ts.URL+"/v1/alpha/answer", `{"query":[]}`) // a 400
	get(t, ts.URL+"/v1/beta/accuracy")
	get(t, ts.URL+"/v1/nosuch/accuracy") // 404 traffic must be observable

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`currents_requests_total{op="answer"} 2`,
		`currents_request_errors_total{op="answer"} 1`,
		`currents_requests_total{op="accuracy"} 1`,
		`currents_in_flight`,
		`currents_request_duration_seconds_bucket{op="answer",le="+Inf"} 2`,
		`currents_request_duration_seconds_count{op="answer"} 2`,
		`currents_requests_total{op="other"} 1`,
		`currents_request_errors_total{op="other"} 1`,
		`currents_answer_coalesced_total`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestSingleflightCoalesces exercises the flight group directly: concurrent
// identical keys execute the function once.
func TestSingleflightCoalesces(t *testing.T) {
	var g flightGroup
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]flightResult, waiters)
	shared := make([]bool, waiters)
	// Leader occupies the key until release closes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], shared[0] = g.do("k", func() flightResult {
			calls.Add(1)
			close(started)
			<-release
			return flightResult{status: 200, body: []byte("x")}
		})
	}()
	<-started
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], shared[i] = g.do("k", func() flightResult {
				calls.Add(1)
				return flightResult{status: 200, body: []byte("x")}
			})
		}(i)
	}
	close(release)
	wg.Wait()

	// The leader is guaranteed to be in flight (started closed before the
	// waiters launch and release closes after all launched), so every
	// waiter that reached the group before the leader finished shares the
	// leader's single call. Invariant: executions + shared = all callers.
	var sharedCount int
	for i := 0; i < waiters; i++ {
		if string(results[i].body) != "x" || results[i].status != 200 {
			t.Fatalf("waiter %d got %+v", i, results[i])
		}
		if shared[i] {
			sharedCount++
		}
	}
	if calls.Load()+int64(sharedCount) != waiters {
		t.Fatalf("calls %d + shared %d != %d waiters", calls.Load(), sharedCount, waiters)
	}
	if shared[0] {
		t.Fatal("leader reported shared")
	}

	// Sequential reuse re-executes (key forgotten).
	res, wasShared := g.do("k", func() flightResult { return flightResult{status: 201} })
	if wasShared || res.status != 201 {
		t.Fatalf("sequential call: shared=%v res=%+v", wasShared, res)
	}
}

func TestRegistryValidation(t *testing.T) {
	reg := NewRegistry()
	s := testSession(t, 19, 8)
	if err := reg.Register("ok-name_1.2", s); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "a/b", "a b", "\x00", ".hidden", "ünïcode"} {
		if err := reg.Register(bad, s); err == nil {
			t.Fatalf("name %q accepted", bad)
		}
	}
	if err := reg.Register("ok-name_1.2", s); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := reg.Register("nil", nil); err == nil {
		t.Fatal("nil session accepted")
	}
	if names := reg.Names(); len(names) != 1 || names[0] != "ok-name_1.2" {
		t.Fatalf("Names = %v", names)
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	s := testSession(t, 23, 12)

	// One snapshot, one CSV, one ignored file.
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snappy.snap"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := dataset.WriteCSV(&csvBuf, s.Dataset().Claims()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fresh.csv"), csvBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("ignored"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A .csv sharing a .snap's base name (the `currents snapshot -o
	// data/x.snap data/x.csv` layout) is skipped in favor of the snapshot
	// instead of failing the boot on a duplicate name.
	if err := os.WriteFile(filepath.Join(dir, "snappy.csv"), csvBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var lines []string
	reg, err := LoadDir(dir, session.DefaultConfig(), func(f string, a ...any) {
		lines = append(lines, fmt.Sprintf(f, a...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if names := reg.Names(); len(names) != 2 || names[0] != "fresh" || names[1] != "snappy" {
		t.Fatalf("Names = %v", names)
	}
	if len(lines) != 3 { // loaded snap, skipped same-name csv, built csv
		t.Fatalf("log lines = %v", lines)
	}

	// Both routes end at the same serving state.
	snappy, _, _ := sessionOf(reg, "snappy")
	fresh, _, _ := sessionOf(reg, "fresh")
	q := s.Dataset().Objects()[:4]
	a1, err := snappy.AnswerObjects(q)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := fresh.AnswerObjects(q)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(BuildAnswerResponse(a1, false))
	b2, _ := json.Marshal(BuildAnswerResponse(a2, false))
	if !bytes.Equal(b1, b2) {
		t.Fatal("snapshot-loaded and csv-built sessions answer differently")
	}

	// A corrupt snapshot with a valid magic and version registers lazily
	// (LoadDir only checks the header) and fails with a descriptive error on
	// first acquisition; a wrong magic fails LoadDir itself.
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "broken.snap"), []byte("SCSESSM2\x02\x00\x00\x00garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	badReg, err := LoadDir(bad, session.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := badReg.Acquire("broken"); err == nil {
		t.Fatal("corrupt snapshot served")
	}
	worse := t.TempDir()
	if err := os.WriteFile(filepath.Join(worse, "nonsense.snap"), []byte("NOTASNAPfile"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(worse, session.DefaultConfig(), nil); err == nil {
		t.Fatal("non-snapshot file accepted")
	}
	// Empty dir errors.
	if _, err := LoadDir(t.TempDir(), session.DefaultConfig(), nil); err == nil {
		t.Fatal("empty dir accepted")
	}
}
