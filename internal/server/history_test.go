package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/session"
)

// retainedSession builds a test session with an epoch retention window.
func retainedSession(t testing.TB, seed int64, nObjects, retain int) *session.Session {
	t.Helper()
	cfg := session.DefaultConfig()
	cfg.RetainEpochs = retain
	s, err := session.New(testWorld(t, seed, nObjects), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAsOfEndpointGolden is the time-travel acceptance test: on a world
// advanced through two appends, ?as_of=0 returns byte-for-byte the answer
// served before any append, ?as_of=1 the mid-chain answer, and current
// queries keep serving the live epoch — while the history endpoint and the
// retention metrics expose the addressable range.
func TestAsOfEndpointGolden(t *testing.T) {
	reg := NewRegistry()
	s0 := retainedSession(t, 11, 40, 4)
	if err := reg.Register("alpha", s0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{AnswerCacheSize: 64}))
	defer ts.Close()

	ansBody := answerBody(t, s0, 6)
	ansURL := ts.URL + "/v1/alpha/answer"

	resp, golden0 := post(t, ansURL, ansBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch-0 answer status %d: %s", resp.StatusCode, golden0)
	}

	// Advance two epochs over HTTP, mirroring each batch on a direct chain
	// so the per-epoch goldens are the library's own serving state.
	direct := s0
	goldens := map[int][]byte{0: golden0}
	for i := 1; i <= 2; i++ {
		batch := appendBody(t, direct, fmt.Sprintf("tt%d", i), fmt.Sprintf("Z%d", i), 8)
		resp, body := post(t, ts.URL+"/v1/alpha/append", batch)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d status %d: %s", i, resp.StatusCode, body)
		}
		var req AppendRequest
		if err := json.Unmarshal([]byte(batch), &req); err != nil {
			t.Fatal(err)
		}
		claims, err := req.batch()
		if err != nil {
			t.Fatal(err)
		}
		if direct, err = direct.Append(claims); err != nil {
			t.Fatal(err)
		}
		goldens[i] = expectedAnswer(t, direct, decodeAnswerReq(t, ansBody))
	}

	// Current queries serve the live epoch, untouched by history machinery.
	if _, got := post(t, ansURL, ansBody); string(got) != string(goldens[2]) {
		t.Fatalf("current answer differs from the direct two-append chain:\ngot  %s\nwant %s", got, goldens[2])
	}
	// Every retained epoch serves its exact pre-append bytes.
	for e := 0; e <= 2; e++ {
		resp, got := post(t, ansURL+"?as_of="+fmt.Sprint(e), ansBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("as_of=%d status %d: %s", e, resp.StatusCode, got)
		}
		if string(got) != string(goldens[e]) {
			t.Fatalf("as_of=%d bytes differ from the answer served at epoch %d", e, e)
		}
	}
	// And the current world still serves current bytes afterwards.
	if _, got := post(t, ansURL, ansBody); string(got) != string(goldens[2]) {
		t.Fatal("historical reads perturbed the current answer")
	}

	// Timestamp resolution: an instant in the far future is the current
	// epoch; RFC3339 and @unixseconds forms both parse.
	future := time.Now().Add(time.Hour)
	for _, spec := range []string{future.Format(time.RFC3339), fmt.Sprintf("@%d", future.Unix())} {
		resp, got := post(t, ansURL+"?as_of="+url.QueryEscape(spec), ansBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("as_of=%s status %d: %s", spec, resp.StatusCode, got)
		}
		if string(got) != string(goldens[2]) {
			t.Fatalf("as_of=%s did not resolve to the current epoch", spec)
		}
	}

	// Error contract: out-of-range epochs and unparseable specs are 400s.
	for _, spec := range []string{"9", "-1", "garbage", "@notasecond"} {
		resp, body := post(t, ansURL+"?as_of="+url.QueryEscape(spec), ansBody)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("as_of=%s status %d, want 400: %s", spec, resp.StatusCode, body)
		}
	}

	// The history listing exposes the addressable range.
	resp, body := get(t, ts.URL+"/v1/alpha/history")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("history status %d: %s", resp.StatusCode, body)
	}
	var hr HistoryResponse
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Dataset != "alpha" || hr.Current != 2 || hr.Floor != 0 || len(hr.Epochs) != 3 {
		t.Fatalf("history = %+v", hr)
	}
	if !hr.Epochs[2].Current || !hr.Epochs[2].Resident || hr.Epochs[0].Current {
		t.Fatalf("history epoch flags = %+v", hr.Epochs)
	}
	if resp, _ := post(t, ts.URL+"/v1/alpha/history", ""); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatal("POST history accepted")
	}

	_, met := get(t, ts.URL+"/metrics")
	for _, line := range []string{
		`currents_retained_epochs{dataset="alpha"} 2`,
		// One GET plus the rejected POST, both labeled history.
		`currents_requests_total{op="history"} 2`,
	} {
		if !strings.Contains(string(met), line) {
			t.Errorf("metrics missing %q", line)
		}
	}
	// 3 as_of epoch reads + 2 timestamp reads resolved historically... the
	// two timestamp forms resolve to the current epoch, which still counts
	// as an as_of-specified request.
	if !strings.Contains(string(met), "currents_historical_requests_total 5") {
		t.Errorf("historical request counter not at 5:\n%s",
			grepMetric(string(met), "currents_historical_requests_total"))
	}
}

func grepMetric(body, name string) string {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") {
			return line
		}
	}
	return "(absent)"
}

// TestAsOfBelowFloor pins the retention boundary over HTTP: epochs pruned
// out of the window are a 400, not a silent fallback to some other epoch.
func TestAsOfBelowFloor(t *testing.T) {
	reg := NewRegistry()
	s0 := retainedSession(t, 13, 25, 1)
	if err := reg.Register("beta", s0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{}))
	defer ts.Close()

	for i := 0; i < 2; i++ {
		cur, _, _ := sessionOf(reg, "beta")
		resp, body := post(t, ts.URL+"/v1/beta/append",
			appendBody(t, cur, fmt.Sprintf("bf%d", i), "Z7", 3))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d status %d: %s", i, resp.StatusCode, body)
		}
	}
	body := answerBody(t, s0, 4)
	if resp, b := post(t, ts.URL+"/v1/beta/answer?as_of=0", body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("as_of below the floor: status %d, want 400: %s", resp.StatusCode, b)
	}
	if resp, _ := post(t, ts.URL+"/v1/beta/answer?as_of=1", body); resp.StatusCode != http.StatusOK {
		t.Fatal("as_of at the floor rejected")
	}
}

// timestampedWorld builds a frozen dataset with a persistent copier over a
// time horizon, so windowed trajectory serving has real windows to report.
func timestampedWorld(t testing.TB) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	d := dataset.New()
	for obj := 0; obj < 20; obj++ {
		o := model.Obj(fmt.Sprintf("o%02d", obj), "v")
		v := 0
		for tick := 0; tick < 60; tick += 2 + rng.Intn(4) {
			v++
			val := fmt.Sprintf("v%d_%d", obj, v)
			t0 := model.Time(tick)
			if err := d.Add(model.NewTemporalClaim("P0", o, val, t0)); err != nil {
				t.Fatal(err)
			}
			if rng.Float64() < 0.9 {
				if err := d.Add(model.NewTemporalClaim("P1", o, val, t0+model.Time(rng.Intn(3)))); err != nil {
					t.Fatal(err)
				}
			}
			if rng.Float64() < 0.85 {
				if err := d.Add(model.NewTemporalClaim("C", o, val, t0+1+model.Time(rng.Intn(2)))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	d.Freeze()
	return d
}

// TestTrajectoryEndpoint pins trajectory serving: accuracy evolution for a
// source, copy-verdict evolution for a pair, windowed temporal verdicts,
// and the parameter error contract.
func TestTrajectoryEndpoint(t *testing.T) {
	cfg := session.DefaultConfig()
	cfg.RetainEpochs = -1
	tw, err := session.New(timestampedWorld(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Register("tw", tw); err != nil {
		t.Fatal(err)
	}
	snapOnly := retainedSession(t, 11, 30, -1)
	if err := reg.Register("alpha", snapOnly); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{}))
	defer ts.Close()

	// Two appends on tw: one from an established source, one introducing a
	// brand-new source mid-chain.
	for i, src := range []string{"P1", "newsrc"} {
		cur, _, _ := sessionOf(reg, "tw")
		resp, body := post(t, ts.URL+"/v1/tw/append", appendBody(t, cur, src, fmt.Sprintf("T%d", i), 5))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d status %d: %s", i, resp.StatusCode, body)
		}
	}

	decode := func(u string) TrajectoryResponse {
		t.Helper()
		resp, body := get(t, u)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trajectory status %d: %s", resp.StatusCode, body)
		}
		var tr TrajectoryResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	// Source mode: a source present from epoch 0 has one accuracy reading
	// per addressable epoch.
	tr := decode(ts.URL + "/v1/tw/trajectory?source=P0")
	if tr.Source != "P0" || len(tr.Points) != 3 {
		t.Fatalf("source trajectory = %+v", tr)
	}
	for i, pt := range tr.Points {
		if pt.Epoch != i || pt.Accuracy == nil || pt.Dependence != nil {
			t.Fatalf("source point %d = %+v", i, pt)
		}
	}
	// A source born at epoch 2 has readings only from its birth epoch on.
	tr = decode(ts.URL + "/v1/tw/trajectory?source=newsrc")
	if len(tr.Points) != 1 || tr.Points[0].Epoch != 2 {
		t.Fatalf("mid-chain source trajectory = %+v", tr.Points)
	}

	// Pair mode: dependence posterior and both copy directions per epoch.
	tr = decode(ts.URL + "/v1/tw/trajectory?pair=P0,C")
	if tr.A != "P0" || tr.B != "C" || len(tr.Points) != 3 {
		t.Fatalf("pair trajectory = %+v", tr)
	}
	for i, pt := range tr.Points {
		if pt.Dependence == nil || pt.CopyForward == nil || pt.CopyReverse == nil || pt.Accuracy != nil {
			t.Fatalf("pair point %d = %+v", i, pt)
		}
	}

	// Windowed verdicts ride along for timestamped worlds — per-window
	// probabilities for the pair, and merged per-pair windows in source
	// mode.
	tr = decode(ts.URL + "/v1/tw/trajectory?pair=P0,C&windows=1")
	if len(tr.Windows) == 0 {
		t.Fatal("pair windows empty on a timestamped world")
	}
	for _, wj := range tr.Windows {
		if wj.A != "" || wj.B != "" {
			t.Fatalf("pair-mode window names the pair redundantly: %+v", wj)
		}
	}
	tr = decode(ts.URL + "/v1/tw/trajectory?source=C&windows=1")
	if len(tr.Windows) == 0 {
		t.Fatal("source windows empty on a timestamped world")
	}
	for _, wj := range tr.Windows {
		if wj.A == "" || wj.B == "" {
			t.Fatalf("source-mode window missing pair names: %+v", wj)
		}
	}

	// Error contract.
	for _, q := range []string{"", "?source=P0&pair=P0,C", "?pair=P0", "?pair=P0,P0", "?pair=,C"} {
		resp, body := get(t, ts.URL+"/v1/tw/trajectory"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("trajectory%s status %d, want 400: %s", q, resp.StatusCode, body)
		}
	}
	// Windows on a world with no timestamped claims cannot slice a range.
	resp, body := get(t, ts.URL+"/v1/alpha/trajectory?source="+
		url.QueryEscape(string(snapOnly.Dataset().Sources()[0]))+"&windows=1")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("windows on snapshot world: status %d, want 400: %s", resp.StatusCode, body)
	}
	if resp, _ := post(t, ts.URL+"/v1/tw/trajectory?source=P0", ""); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatal("POST trajectory accepted")
	}
}

// TestRetentionGraveReapingChurn is the retention × as-of race: three
// file-loaded worlds with -retain-epochs 3, one world churning through
// appends — each pushing an epoch out of the window, the snapshot-loaded
// epoch 0 among them — while readers replay every addressable epoch via
// ?as_of= and others read the two untouched worlds. Meaningful under -race:
// a request keeps serving the epoch it resolved after the window drops it,
// and every 200 must be byte-identical to the answer that epoch served when
// it was current. Zero failed requests required.
func TestRetentionGraveReapingChurn(t *testing.T) {
	dir, reqs, wants := snapDir(t, 3)
	cfg := session.DefaultConfig()
	cfg.RetainEpochs = 3
	reg, err := LoadDir(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{AnswerCacheSize: 256}))
	defer ts.Close()

	const churnWorld = "world0"
	churnReq := reqs[churnWorld]
	var goldens sync.Map // epoch int -> []byte
	goldens.Store(0, wants[churnWorld])
	// floor is the retention floor as of the last append whose response the
	// appender has seen — a swap that has completed.
	var floor atomic.Int64

	stop := make(chan struct{})
	errc := make(chan error, 16)
	var wg sync.WaitGroup

	// As-of readers walk the retained window of the churning world.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Capture the golden together with the epoch, and the floor the
				// last completed append published, before posting: the appender
				// deletes goldens that slid below the floor concurrently.
				type target struct {
					epoch  int
					golden []byte
				}
				var targets []target
				floorBefore := int(floor.Load())
				goldens.Range(func(k, v any) bool {
					targets = append(targets, target{k.(int), v.([]byte)})
					return true
				})
				tg := targets[rng.Intn(len(targets))]
				e := tg.epoch
				resp, err := http.Post(
					fmt.Sprintf("%s/v1/%s/answer?as_of=%d", ts.URL, churnWorld, e),
					"application/json", strings.NewReader(churnReq))
				if err != nil {
					errc <- err
					return
				}
				body := readAll(resp)
				if resp.StatusCode == http.StatusBadRequest {
					continue // epoch slid below the floor mid-request
				}
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("as_of=%d: status %d: %s", e, resp.StatusCode, body)
					return
				}
				if e < floorBefore {
					errc <- fmt.Errorf("as_of=%d: 200 for an epoch below floor %d after that swap completed", e, floorBefore)
					return
				}
				if string(body) != string(tg.golden) {
					errc <- fmt.Errorf("as_of=%d: bytes differ from the epoch's golden", e)
					return
				}
			}
		}(w)
	}
	// Plain readers hammer the two read-only worlds beside the churn.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("world%d", 1+w)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/"+name+"/answer",
					"application/json", strings.NewReader(reqs[name]))
				if err != nil {
					errc <- err
					return
				}
				body := readAll(resp)
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("%s: status %d: %s", name, resp.StatusCode, body)
					return
				}
				if string(body) != string(wants[name]) {
					errc <- fmt.Errorf("%s: bytes differ beside the churn", name)
					return
				}
			}
		}(w)
	}

	// The appender drives 6 epochs through the retention window (floor
	// reaches 3, so the snapshot-loaded epoch 0 is pruned mid-run),
	// recording each new epoch's golden before the next append.
	for i := 1; i <= 6; i++ {
		cur, _, err := reg.Current(churnWorld)
		if err != nil {
			t.Fatal(err)
		}
		appendReq := appendBody(t, cur, fmt.Sprintf("ch%d", i), fmt.Sprintf("V%d", i), 4)
		resp, body := post(t, ts.URL+"/v1/"+churnWorld+"/append", appendReq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d status %d: %s", i, resp.StatusCode, body)
		}
		resp2, golden := post(t, ts.URL+"/v1/"+churnWorld+"/answer", churnReq)
		if resp2.StatusCode != http.StatusOK {
			t.Fatalf("post-append answer status %d: %s", resp2.StatusCode, golden)
		}
		goldens.Store(i, golden)
		// Epochs below the new floor are no longer valid targets; drop them
		// so readers mostly stay in the window.
		if f := i - 3; f > 0 {
			floor.Store(int64(f))
			goldens.Delete(f - 1)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	_, met := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(met), `currents_retained_epochs{dataset="world0"} 3`) {
		t.Errorf("retention gauge wrong:\n%s", grepMetric(string(met), "currents_retained_epochs"))
	}
	if strings.Contains(string(met), "currents_historical_requests_total 0\n") {
		t.Error("no historical requests counted during churn")
	}
}

func readAll(resp *http.Response) []byte {
	defer resp.Body.Close()
	var body []byte
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		body = append(body, buf[:n]...)
		if err != nil {
			return body
		}
	}
}
