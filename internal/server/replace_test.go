// Replace-mode adoption: the repair loop's convergence primitive. A lagging
// replica re-streams the primary's snapshot over its own world — session,
// epoch, and disk file swap together — and "not newer" streams are refused
// without touching anything.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sourcecurrents/internal/session"
)

const appendOneClaim = `{"claims":[{"source":"s_extra","entity":"o00000","attribute":"v","value":"zzz"}]}`

// A replica that adopted at epoch 0 converges to the source's epoch 1 via
// replace mode, serves byte-identical answers, and a re-replace of the same
// stream reports "current" without re-installing anything.
func TestAdoptReplaceConverges(t *testing.T) {
	src, sessions := testServer(t)
	dir := t.TempDir()
	reg := NewRegistry()
	cfg := session.DefaultConfig()
	if err := AdoptFromURL(reg, "alpha", src.URL+"/v1/alpha/snapshot", dir, cfg, nil); err != nil {
		t.Fatal(err)
	}
	if e, ok := reg.KnownEpochs()["alpha"]; !ok || e != 0 {
		t.Fatalf("adopted epoch = %d (ok=%v), want 0", e, ok)
	}

	// The source advances an epoch the replica never sees — the divergence a
	// failed fan-out leaves.
	if resp, body := post(t, src.URL+"/v1/alpha/append", appendOneClaim); resp.StatusCode != http.StatusOK {
		t.Fatalf("source append status %d: %s", resp.StatusCode, body)
	}

	status, err := AdoptReplaceFromURL(reg, "alpha", src.URL+"/v1/alpha/snapshot", dir, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != "replaced" {
		t.Fatalf("replace status = %q, want \"replaced\"", status)
	}
	if e, ok := reg.KnownEpochs()["alpha"]; !ok || e != 1 {
		t.Fatalf("post-replace epoch = %d (ok=%v), want 1", e, ok)
	}

	replica := httptest.NewServer(New(reg, Options{AdoptDir: dir, SessionCfg: cfg}))
	defer replica.Close()
	req := answerBody(t, sessions["alpha"], 5)
	_, want := post(t, src.URL+"/v1/alpha/answer", req)
	resp, got := post(t, replica.URL+"/v1/alpha/answer", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica answer status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("replaced replica diverges from source:\n%s\n%s", got, want)
	}

	// Re-streaming the same epoch is "current": nothing to heal.
	status, err = AdoptReplaceFromURL(reg, "alpha", src.URL+"/v1/alpha/snapshot", dir, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != "current" {
		t.Fatalf("re-replace status = %q, want \"current\"", status)
	}
	if e := reg.KnownEpochs()["alpha"]; e != 1 {
		t.Fatalf("epoch after \"current\" = %d, want unchanged 1", e)
	}
}

// The HTTP replace path must flush the answer cache: a cached pre-replace
// answer served after the swap would undo the heal for exactly the queries
// that matter.
func TestAdoptReplaceFlushesAnswerCache(t *testing.T) {
	src, sessions := testServer(t)
	dir := t.TempDir()
	reg := NewRegistry()
	cfg := session.DefaultConfig()
	if err := AdoptFromURL(reg, "alpha", src.URL+"/v1/alpha/snapshot", dir, cfg, nil); err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(New(reg, Options{AdoptDir: dir, SessionCfg: cfg, AnswerCacheSize: 64}))
	defer replica.Close()

	req := answerBody(t, sessions["alpha"], 5)
	_, stale := post(t, replica.URL+"/v1/alpha/answer", req) // now cached

	if resp, body := post(t, src.URL+"/v1/alpha/append", appendOneClaim); resp.StatusCode != http.StatusOK {
		t.Fatalf("source append status %d: %s", resp.StatusCode, body)
	}
	_, fresh := post(t, src.URL+"/v1/alpha/answer", req)
	if bytes.Equal(stale, fresh) {
		t.Fatal("fixture bug: the append did not change the answer, cache flush is unobservable")
	}

	resp, body := post(t, replica.URL+"/v1/alpha/adopt?from="+src.URL+"/v1/alpha/snapshot&replace=1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP replace status %d: %s", resp.StatusCode, body)
	}
	var ar AdoptResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Status != "replaced" {
		t.Fatalf("HTTP replace status field = %q, want \"replaced\"", ar.Status)
	}

	resp, got := post(t, replica.URL+"/v1/alpha/answer", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-replace answer status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatalf("post-replace answer is stale (cache not flushed):\n%s\n%s", got, fresh)
	}
}

// A replace and a concurrent append must serialize: if the append could
// interleave with the replace's epoch check, it would build a successor on
// the pre-replace chain and swap it in at the same epoch the replace
// installs — a same-epoch fork the epoch-comparing repair scan can never
// detect. The commit hook blocks mid-replace to hold the critical section
// open while an append hammers the same dataset.
func TestReplaceSerializesWithAppend(t *testing.T) {
	src, _ := testServer(t)
	dir := t.TempDir()
	reg := NewRegistry()
	cfg := session.DefaultConfig()
	if err := AdoptFromURL(reg, "alpha", src.URL+"/v1/alpha/snapshot", dir, cfg, nil); err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(New(reg, Options{AdoptDir: dir, SessionCfg: cfg}))
	defer replica.Close()

	// The source advances to epoch 1 — the lag a failed fan-out leaves.
	if resp, body := post(t, src.URL+"/v1/alpha/append", appendOneClaim); resp.StatusCode != http.StatusOK {
		t.Fatalf("source append status %d: %s", resp.StatusCode, body)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	repDone := make(chan error, 1)
	go func() {
		status, err := AdoptReplaceFromURL(reg, "alpha", src.URL+"/v1/alpha/snapshot", dir, cfg, nil, func() {
			close(entered)
			<-release
		})
		if err == nil && status != "replaced" {
			err = fmt.Errorf("replace status = %q, want \"replaced\"", status)
		}
		repDone <- err
	}()
	<-entered

	appDone := make(chan uint64, 1)
	go func() {
		resp, body := post(t, replica.URL+"/v1/alpha/append",
			`{"claims":[{"source":"s_other","entity":"o00001","attribute":"v","value":"yyy"}]}`)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("replica append status %d: %s", resp.StatusCode, body)
			appDone <- 0
			return
		}
		var ar AppendResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Error(err)
			appDone <- 0
			return
		}
		appDone <- ar.Epoch
	}()

	select {
	case e := <-appDone:
		t.Fatalf("append completed (epoch %d) while the replace held the critical section", e)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-repDone; err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-appDone:
		if e != 2 {
			t.Fatalf("append epoch = %d, want 2 (built on the replaced epoch-1 chain)", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append never completed after the replace released")
	}
	if e := reg.KnownEpochs()["alpha"]; e != 2 {
		t.Fatalf("final epoch = %d, want 2", e)
	}
}

// A replace whose snapshot is not ahead of the live epoch refuses without
// touching the serving directory: the epoch CAS must run before the disk
// rename, or a stale stream would clobber <dir>/<name>.snap under a newer
// live world and an eviction reload would silently regress the epoch.
func TestReplaceStaleLeavesDiskAlone(t *testing.T) {
	src, _ := testServer(t)
	dir := t.TempDir()
	reg := NewRegistry()
	cfg := session.DefaultConfig()
	if err := AdoptFromURL(reg, "alpha", src.URL+"/v1/alpha/snapshot", dir, cfg, nil); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "alpha.snap")
	before, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}

	status, err := AdoptReplaceFromURL(reg, "alpha", src.URL+"/v1/alpha/snapshot", dir, cfg, nil, func() {
		t.Error("commit hook ran for a stale replace")
	})
	if err != nil {
		t.Fatal(err)
	}
	if status != "current" {
		t.Fatalf("stale replace status = %q, want \"current\"", status)
	}
	after, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("stale replace rewrote the snapshot on disk")
	}
}

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
