package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sourcecurrents/internal/session"
)

// snapDir writes n worlds as v2 snapshots into a temp directory and
// returns it with the golden answer body for each world.
func snapDir(t testing.TB, n int) (string, map[string]string, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	reqs := make(map[string]string, n)
	wants := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("world%d", i)
		s := testSession(t, int64(100+i), 12+i)
		f, err := os.Create(filepath.Join(dir, name+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSnapshotV2(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		reqs[name] = answerBody(t, s, 6)
		var ar AnswerRequest
		if err := decodeBody([]byte(reqs[name]), &ar); err != nil {
			t.Fatal(err)
		}
		wants[name] = expectedAnswer(t, s, ar)
	}
	return dir, reqs, wants
}

// TestLazyLoadDir pins the manifest contract: LoadDir registers worlds
// without loading any (zero resident), the first request maps exactly one,
// and its answers are byte-identical to the eagerly built session's.
func TestLazyLoadDir(t *testing.T) {
	dir, reqs, wants := snapDir(t, 3)
	reg, err := LoadDir(dir, session.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs := reg.Residency(); rs.Resident != 0 || rs.Loads != 0 {
		t.Fatalf("after LoadDir: %+v, want nothing resident", rs)
	}

	ts := httptest.NewServer(New(reg, Options{}))
	defer ts.Close()
	resp, body := post(t, ts.URL+"/v1/world1/answer", reqs["world1"])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if string(body) != string(wants["world1"]) {
		t.Fatal("lazy-loaded answer differs from eager session's")
	}
	rs := reg.Residency()
	if rs.Resident != 1 || rs.Loads != 1 {
		t.Fatalf("after first request: %+v, want exactly one world resident", rs)
	}
	if rs.MappedBytes == 0 {
		t.Fatal("v2 world resident but mapped bytes gauge is zero")
	}

	// The metrics endpoint exposes the residency series.
	_, metricsBody := get(t, ts.URL+"/metrics")
	for _, series := range []string{
		"currents_datasets_resident 1",
		"currents_world_loads_total 1",
		"currents_world_evictions_total 0",
		`currents_dataset_resident{dataset="world1"} 1`,
		`currents_dataset_resident{dataset="world0"} 0`,
	} {
		if !strings.Contains(string(metricsBody), series) {
			t.Fatalf("metrics missing %q:\n%s", series, metricsBody)
		}
	}
}

// TestLazyEviction pins the LRU bound: with max-resident 1, touching three
// worlds in turn keeps exactly one resident, evicting the least recently
// used; a reload after eviction serves identical bytes.
func TestLazyEviction(t *testing.T) {
	dir, reqs, wants := snapDir(t, 3)
	reg, err := LoadDir(dir, session.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	reg.SetMaxResident(1)
	ts := httptest.NewServer(New(reg, Options{}))
	defer ts.Close()

	for _, name := range []string{"world0", "world1", "world2", "world0"} {
		resp, body := post(t, ts.URL+"/v1/"+name+"/answer", reqs[name])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
		}
		if string(body) != string(wants[name]) {
			t.Fatalf("%s: answer differs after eviction cycling", name)
		}
		if rs := reg.Residency(); rs.Resident != 1 {
			t.Fatalf("%s: %d resident, want 1", name, rs.Resident)
		}
	}
	rs := reg.Residency()
	if rs.Loads != 4 || rs.Evictions != 3 {
		t.Fatalf("loads/evictions = %d/%d, want 4/3 over the touch sequence", rs.Loads, rs.Evictions)
	}
}

// TestLazyEvictionConcurrentReaders is the acceptance race: 8 goroutines
// hammer 3 worlds through a server bound to one resident session, forcing
// constant evict/reload churn while requests are in flight. Under -race
// this checks the pin handoff — no request ever reads an unmapped session,
// and every response is byte-identical to the golden. Zero failed requests
// required.
func TestLazyEvictionConcurrentReaders(t *testing.T) {
	dir, reqs, wants := snapDir(t, 3)
	reg, err := LoadDir(dir, session.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	reg.SetMaxResident(1)
	ts := httptest.NewServer(New(reg, Options{}))
	defer ts.Close()

	const (
		clients   = 8
		perClient = 30
	)
	errc := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				name := fmt.Sprintf("world%d", (c+i)%3)
				resp, err := http.Post(ts.URL+"/v1/"+name+"/answer",
					"application/json", strings.NewReader(reqs[name]))
				if err != nil {
					errc <- err
					return
				}
				body := make([]byte, 0, 1024)
				buf := make([]byte, 4096)
				for {
					n, rerr := resp.Body.Read(buf)
					body = append(body, buf[:n]...)
					if rerr != nil {
						break
					}
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("%s: status %d: %s", name, resp.StatusCode, body)
					return
				}
				if string(body) != string(wants[name]) {
					errc <- fmt.Errorf("%s: body differs under eviction churn", name)
					return
				}
			}
			errc <- nil
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	rs := reg.Residency()
	if rs.Resident > 1 {
		t.Fatalf("%d resident after churn, want <= 1", rs.Resident)
	}
	if rs.Evictions == 0 {
		t.Fatal("no evictions observed — the churn did not exercise the bound")
	}
}

// TestLazySwappedWorldNotEvicted pins the safety rule for mutated worlds:
// once a world absorbs an append (epoch swap), its serving state diverges
// from the snapshot file, so the evictor must never unload it.
func TestLazySwappedWorldNotEvicted(t *testing.T) {
	dir, reqs, _ := snapDir(t, 2)
	reg, err := LoadDir(dir, session.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	reg.SetMaxResident(1)

	// Load world0 and swap it: append no claims via Update is not exposed,
	// so swap in the same session to mark the entry mutated.
	s0, _, release, err := reg.Acquire("world0")
	if err != nil {
		t.Fatal(err)
	}
	_, err = reg.swap("world0", s0)
	release()
	if err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(New(reg, Options{}))
	defer ts.Close()
	// Touch world1 repeatedly: the bound is 1 but world0 is unevictable, so
	// residency settles at 2 and world0 stays loaded.
	for i := 0; i < 3; i++ {
		resp, body := post(t, ts.URL+"/v1/world1/answer", reqs["world1"])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	stats := reg.Stats()
	for _, st := range stats {
		if st.Name == "world0" && !st.Resident {
			t.Fatal("swapped world was evicted")
		}
	}
}

// TestLazyLastUnpinEnforcesBound pins the release-side half of the resident
// bound: when loads land while every other world is pinned, eviction has no
// victim and the registry sits over -max-resident; the pins dropping must
// bring it back under the bound without waiting for another load.
func TestLazyLastUnpinEnforcesBound(t *testing.T) {
	dir, _, _ := snapDir(t, 3)
	reg, err := LoadDir(dir, session.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	reg.SetMaxResident(1)
	var releases []func()
	for i := 0; i < 3; i++ {
		_, _, release, err := reg.Acquire(fmt.Sprintf("world%d", i))
		if err != nil {
			t.Fatal(err)
		}
		releases = append(releases, release)
	}
	if rs := reg.Residency(); rs.Resident != 3 || rs.Evictions != 0 {
		t.Fatalf("%d resident, %d evictions with every world pinned; want 3, 0", rs.Resident, rs.Evictions)
	}
	for _, release := range releases {
		release()
	}
	if rs := reg.Residency(); rs.Resident != 1 || rs.Evictions != 2 {
		t.Fatalf("%d resident, %d evictions after the pins dropped; want 1, 2", rs.Resident, rs.Evictions)
	}
	// Nothing is pending any more: the next release is the lock-free path.
	if reg.evictPending.Load() {
		t.Fatal("evictPending still set with the bound satisfied")
	}
}
