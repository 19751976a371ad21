package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/session"
)

// postDelta posts a delta frame as an append.
func postDelta(t testing.TB, url string, frame []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, session.DeltaContentType, bytes.NewReader(frame))
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

// persistingShard serves s as "alpha" from a fresh directory holding its
// snapshot, persisting appends there without compaction.
func persistingShard(t testing.TB, s *session.Session) (*httptest.Server, *Registry, string) {
	t.Helper()
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "alpha.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	reg := NewRegistry()
	if err := reg.Register("alpha", s); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{PersistDir: dir, CompactEvery: -1}))
	t.Cleanup(ts.Close)
	return ts, reg, dir
}

// TestDeltaAppendFollowsPrimary drives a replica the way the router does: the
// primary takes the JSON batch, the replica appends the primary's delta frame
// for the new epoch. Through source-major, object-major and new-source
// batches the replica serves every read byte for byte as the primary does,
// holds the same segment files, applied every batch without solving, and
// boots from its directory (replaying the segments by solving) to the same
// answers.
func TestDeltaAppendFollowsPrimary(t *testing.T) {
	cfg := session.DefaultConfig()
	cfg.RetainEpochs = 4
	retaining := func() *session.Session {
		s, err := session.New(testWorld(t, 11, 30), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	pts, preg, pdir := persistingShard(t, retaining())
	rts, rreg, rdir := persistingShard(t, retaining())
	cur, _, _ := sessionOf(preg, "alpha")
	objs := cur.Dataset().Objects()
	batches := []string{
		appendBody(t, cur, string(cur.Dataset().Sources()[2]), "Z1", 6), // source-major
		`{"claims":[` + strings.Join(func() []string {
			var cs []string
			for i, s := range cur.Dataset().Sources() {
				cs = append(cs, fmt.Sprintf(`{"source":%q,"entity":%q,"attribute":%q,"value":"V%d"}`, s, objs[4].Entity, objs[4].Attribute, i%2))
			}
			return cs
		}(), ",") + `]}`, // object-major
		appendBody(t, cur, "0-first", "Z2", 10), // a new source that sorts first
	}
	for i, b := range batches {
		e := i + 1
		if resp, body := post(t, pts.URL+"/v1/alpha/append", b); resp.StatusCode != http.StatusOK {
			t.Fatalf("primary append %d: %d %s", e, resp.StatusCode, body)
		}
		resp, frame := get(t, fmt.Sprintf("%s/v1/alpha/delta?since=%d", pts.URL, e-1))
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != session.DeltaContentType {
			t.Fatalf("delta %d: %d %s", e, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		url := fmt.Sprintf("%s/v1/alpha/append?expect_epoch=%d", rts.URL, e-1)
		if resp, body := postDelta(t, url, frame); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), fmt.Sprintf(`"epoch":%d`, e)) {
			t.Fatalf("replica delta append %d: %d %s", e, resp.StatusCode, body)
		}
		// The same frame again finds the replica past it.
		if resp, body := postDelta(t, url, frame); resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), fmt.Sprintf(`"epoch":%d`, e)) {
			t.Fatalf("replayed delta %d: %d %s, want 409 at epoch %d", e, resp.StatusCode, body, e)
		}
	}
	// A delta since any earlier epoch is served, from the current session.
	if resp, body := get(t, pts.URL+"/v1/alpha/delta?since=0"); resp.StatusCode != http.StatusOK {
		t.Fatalf("delta since epoch 0: %d %s", resp.StatusCode, body)
	}

	p, _, _ := sessionOf(preg, "alpha")
	reads := []struct{ method, path, body string }{
		{http.MethodPost, "/v1/alpha/answer", answerBody(t, p, 8)},
		{http.MethodPost, "/v1/alpha/answer?as_of=0", answerBody(t, p, 8)},
		{http.MethodPost, "/v1/alpha/fuse", ""},
		{http.MethodPost, "/v1/alpha/recommend", `{"k":4}`},
		{http.MethodGet, "/v1/alpha/accuracy", ""},
	}
	read := func(base, method, path, body string) string {
		var resp *http.Response
		var out []byte
		if method == http.MethodGet {
			resp, out = get(t, base+path)
		} else {
			resp, out = post(t, base+path, body)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, out)
		}
		return string(out)
	}
	for _, r := range reads {
		if got, want := read(rts.URL, r.method, r.path, r.body), read(pts.URL, r.method, r.path, r.body); got != want {
			t.Fatalf("%s differs on the replica:\n%s\nwant\n%s", r.path, got, want)
		}
	}
	for e := 1; e <= len(batches); e++ {
		seg := fmt.Sprintf("alpha.%06d.seg", e)
		got, err := os.ReadFile(filepath.Join(rdir, seg))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(pdir, seg))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs between replica and primary", seg)
		}
	}
	_, met := get(t, rts.URL+"/metrics")
	if line := fmt.Sprintf(`currents_dataset_delta_appends_total{dataset="alpha"} %d`, len(batches)); !strings.Contains(string(met), line) {
		t.Fatalf("replica metrics missing %q", line)
	}
	_, met = get(t, pts.URL+"/metrics")
	if line := `currents_dataset_delta_appends_total{dataset="alpha"} 0`; !strings.Contains(string(met), line) {
		t.Fatalf("primary metrics missing %q", line)
	}

	rebooted, err := LoadDir(rdir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, epoch, ok := sessionOf(rebooted, "alpha")
	if !ok || epoch != uint64(len(batches)) {
		t.Fatalf("rebooted replica at epoch %d (ok=%t), want %d", epoch, ok, len(batches))
	}
	live, _, _ := sessionOf(rreg, "alpha")
	assertServesSame(t, cold, live)
	assertServesSame(t, cold, p)
}

// TestDeltaAppendAcrossBatches has a replica that missed three appends catch
// up with one delta frame: it lands at the primary's epoch, writes one
// segment per batch, each byte for byte the primary's, serves the primary's
// answers at the epochs it jumped over, and reboots from its directory to
// the same answer bytes.
func TestDeltaAppendAcrossBatches(t *testing.T) {
	cfg := session.DefaultConfig()
	cfg.RetainEpochs = 4
	open := func() *session.Session {
		s, err := session.New(testWorld(t, 11, 30), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	pts, preg, pdir := persistingShard(t, open())
	rts, _, rdir := persistingShard(t, open())
	cur, _, _ := sessionOf(preg, "alpha")
	srcs := cur.Dataset().Sources()
	appended := 0 // the claims of all three batches
	for i, b := range []string{
		appendBody(t, cur, string(srcs[1]), "Z1", 5),
		appendBody(t, cur, "0-first", "Z2", 7), // a new source that sorts first
		appendBody(t, cur, string(srcs[3]), "Z3", 9),
	} {
		resp, body := post(t, pts.URL+"/v1/alpha/append", b)
		var ar AppendResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &ar) != nil {
			t.Fatalf("primary append %d: %d %s", i+1, resp.StatusCode, body)
		}
		appended += ar.Appended
	}
	resp, frame := get(t, pts.URL+"/v1/alpha/delta?since=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta since 0: %d %s", resp.StatusCode, frame)
	}
	resp, body := postDelta(t, rts.URL+"/v1/alpha/append?expect_epoch=0", frame)
	var ar AppendResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &ar) != nil || ar.Epoch != 3 {
		t.Fatalf("3-batch delta append: %d %s", resp.StatusCode, body)
	}
	// The reply counts every claim since the epoch the delta was taken at,
	// not only the last batch's.
	if ar.Appended != appended {
		t.Fatalf("3-batch delta append reports %d claims appended, want %d", ar.Appended, appended)
	}
	for e := 1; e <= 3; e++ {
		seg := fmt.Sprintf("alpha.%06d.seg", e)
		got, err := os.ReadFile(filepath.Join(rdir, seg))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(pdir, seg))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs between replica and primary", seg)
		}
	}
	rebooted, err := LoadDir(rdir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold := httptest.NewServer(New(rebooted, Options{}))
	defer cold.Close()
	q := answerBody(t, cur, 8)
	for _, path := range []string{"/v1/alpha/answer", "/v1/alpha/answer?as_of=1", "/v1/alpha/answer?as_of=2"} {
		wresp, want := post(t, pts.URL+path, q)
		if wresp.StatusCode != http.StatusOK {
			t.Fatalf("primary %s: %d %s", path, wresp.StatusCode, want)
		}
		for _, replica := range []string{rts.URL, cold.URL} {
			if _, got := post(t, replica+path, q); !bytes.Equal(got, want) {
				t.Fatalf("%s differs on %s:\n%s\nwant\n%s", path, replica, got, want)
			}
		}
	}
}

// TestDeltaRequestErrors pins the delta endpoints' request errors: a since
// that is no epoch is a 400, one at or past the current epoch a 409 carrying
// the epoch.
func TestDeltaRequestErrors(t *testing.T) {
	ts, _, _ := persistingShard(t, testSession(t, 11, 30))
	for _, q := range []string{"", "?since=-1", "?since=x", "?epoch=1"} {
		if resp, body := get(t, ts.URL+"/v1/alpha/delta"+q); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET delta%s: %d %s, want 400", q, resp.StatusCode, body)
		}
	}
	for _, q := range []string{"?since=0", "?since=1"} {
		if resp, body := get(t, ts.URL+"/v1/alpha/delta"+q); resp.StatusCode != http.StatusConflict ||
			!strings.Contains(string(body), `"epoch":0`) {
			t.Errorf("GET delta%s: %d %s, want 409 at epoch 0", q, resp.StatusCode, body)
		}
	}
	// A delta append must be conditional.
	if resp, body := postDelta(t, ts.URL+"/v1/alpha/append", []byte(session.DeltaMagic)); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(body), "expect_epoch") {
		t.Errorf("unconditional delta append: %d %s, want 400 naming expect_epoch", resp.StatusCode, body)
	}
}

// readFuzzSeed decodes one checked-in fuzz corpus file of a []byte target.
func readFuzzSeed(t testing.TB, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s is not a []byte fuzz seed", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatal(err)
	}
	return []byte(s)
}

// TestAppendDeltaCorruptFrames posts every seed of session's FuzzApplyDelta
// corpus — Table 1's first delta frame, damaged — as a delta append to a
// persisting shard serving Table 1 at epoch 0: each is a 400 (the frames
// that apply to another epoch a 409), and none moves the registry, counts an
// append or writes a file.
func TestAppendDeltaCorruptFrames(t *testing.T) {
	base, err := session.New(dataset.Table1(), session.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	reg := NewRegistry()
	if err := reg.Register("t1", base); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{PersistDir: dir, CompactEvery: 1}))
	defer ts.Close()
	seeds, err := filepath.Glob(filepath.Join("..", "session", "testdata", "fuzz", "FuzzApplyDelta", "*"))
	if err != nil || len(seeds) == 0 {
		t.Fatalf("no seeds (%v)", err)
	}
	for _, path := range seeds {
		name := filepath.Base(path)
		want := http.StatusBadRequest
		if name == "wrong-epoch" || name == "since-mismatch" {
			want = http.StatusConflict
		}
		resp, body := postDelta(t, ts.URL+"/v1/t1/append?expect_epoch=0", readFuzzSeed(t, path))
		if resp.StatusCode != want {
			t.Errorf("%s: %d %s, want %d", name, resp.StatusCode, body, want)
		}
	}
	if st := reg.Stats()[0]; st.Epoch != 0 || st.Appends != 0 || st.DeltaAppends != 0 || st.Swaps != 0 {
		t.Fatalf("the registry moved: %+v", st)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("%d files written", len(left))
	}
}
