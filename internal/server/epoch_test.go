package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"sourcecurrents/internal/session"
)

const appendOneClaim = `{"claims":[{"source":"s_extra","entity":"o00000","attribute":"v","value":"zzz"}]}`

// /readyz reports each registered dataset's epoch — the repair loop's lag
// signal — and the report tracks append swaps.
func TestReadyzReportsEpochs(t *testing.T) {
	src, _ := testServer(t)
	decode := func() ReadyResponse {
		t.Helper()
		resp, body := get(t, src.URL+"/readyz")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("readyz status %d: %s", resp.StatusCode, body)
		}
		var rr ReadyResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		return rr
	}
	rr := decode()
	if rr.Epochs["alpha"] != 0 || rr.Epochs["beta"] != 0 {
		t.Fatalf("epochs = %v, want alpha and beta at 0", rr.Epochs)
	}
	if resp, body := post(t, src.URL+"/v1/alpha/append", appendOneClaim); resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d: %s", resp.StatusCode, body)
	}
	rr = decode()
	if rr.Epochs["alpha"] != 1 || rr.Epochs["beta"] != 0 {
		t.Fatalf("post-append epochs = %v, want alpha 1, beta 0", rr.Epochs)
	}
}

// A registry epoch is its served dataset's epoch, read off the session and
// never counted: it holds after LoadDir maps a snapshot with a log, a
// Register, a JSON append, and delta appends across one batch and across
// three.
func TestRegistryEpochIsDatasetEpoch(t *testing.T) {
	base := testSession(t, 13, 25)
	logged, err := base.Append(base.Dataset().Claims()[:4])
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "mapped.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := logged.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	reg, err := LoadDir(dir, session.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step, name string, want int) {
		t.Helper()
		sess, _, ok := sessionOf(reg, name)
		if !ok {
			t.Fatalf("after %s: %q does not load", step, name)
		}
		if got := reg.KnownEpochs()[name]; got != uint64(sess.DatasetEpoch()) || got != uint64(want) {
			t.Fatalf("after %s: registry epoch %d, dataset epoch %d, want %d", step, got, sess.DatasetEpoch(), want)
		}
	}
	check("LoadDir", "mapped", 1)
	if err := reg.Register("alpha", testSession(t, 11, 30)); err != nil {
		t.Fatal(err)
	}
	check("Register", "alpha", 0)

	// The primary takes JSON batches; the registry under test takes the first
	// as JSON too, then follows by delta frames.
	primary := httptest.NewServer(New(func() *Registry {
		r := NewRegistry()
		if err := r.Register("alpha", testSession(t, 11, 30)); err != nil {
			t.Fatal(err)
		}
		return r
	}(), Options{}))
	defer primary.Close()
	replica := httptest.NewServer(New(reg, Options{}))
	defer replica.Close()
	appendN := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if resp, body := post(t, primary.URL+"/v1/alpha/append", appendOneClaim); resp.StatusCode != http.StatusOK {
				t.Fatalf("primary append: %d %s", resp.StatusCode, body)
			}
		}
	}
	appendN(1)
	if resp, body := post(t, replica.URL+"/v1/alpha/append", appendOneClaim); resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON append: %d %s", resp.StatusCode, body)
	}
	check("a JSON append", "alpha", 1)
	for _, k := range []int{1, 3} {
		since := int(reg.KnownEpochs()["alpha"])
		appendN(k)
		resp, frame := get(t, fmt.Sprintf("%s/v1/alpha/delta?since=%d", primary.URL, since))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta since %d: %d %s", since, resp.StatusCode, frame)
		}
		if resp, body := postDelta(t, fmt.Sprintf("%s/v1/alpha/append?expect_epoch=%d", replica.URL, since), frame); resp.StatusCode != http.StatusOK {
			t.Fatalf("%d-batch delta append: %d %s", k, resp.StatusCode, body)
		}
		check(fmt.Sprintf("a %d-batch delta append", k), "alpha", since+k)
	}
}
