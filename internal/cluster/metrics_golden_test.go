package cluster

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestRouterMetricsExpositionGolden pins the router's /metrics page byte
// for byte: two shards (one ready with a tripped breaker, one down), a
// fixed script of proxied-request observations, every fleet counter, and
// one replica-lag entry are driven into the instrument set and the
// rendered page is compared with a checked-in golden. The golden was
// generated by the hand-rolled writer this layer replaced; regenerate only
// on a deliberate format change, with REGEN_METRICS_GOLDEN=1.
func TestRouterMetricsExpositionGolden(t *testing.T) {
	// Nothing listens on these ports: the constructor's synchronous probe
	// is refused, and the script below sets the shard states by hand.
	const a, b = "127.0.0.1:1", "127.0.0.1:2"
	rt, err := NewRouter([]string{b, a}, Options{
		ProbeTimeout: time.Second, BreakerThreshold: 2, BreakerCooldown: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	sa := rt.shardFor(a)
	sa.ready.Store(true)
	sa.datasets.Store(map[string]bool{"alpha": true, "beta": true})
	sa.brk.onFailure()
	sa.brk.onFailure() // threshold 2: open

	// Per-shard observations across every bucket edge: below the first
	// bound, exactly on a bound (le is inclusive), mid-range, past the last
	// finite bound. Shard b joins the per-shard series on its first
	// observation — after a's, so the page must sort, not append.
	rt.met.observe(b, 200*time.Microsecond, false)
	rt.met.observe(a, 500*time.Microsecond, false)
	rt.met.observe(a, 3*time.Millisecond, false)
	rt.met.observe(a, 3*time.Second, true)
	rt.met.shardTimeout(a)

	rt.met.ringChanges.Add(1)
	rt.met.failovers.Add(2)
	rt.met.retries.Add(3)
	rt.met.hedgesFired.Add(4)
	rt.met.hedgeWins.Add(5)
	rt.met.budgetExhausted.Add(6)
	rt.met.breakerTrips.Add(7)
	rt.met.replicaAppends.Add(8)
	rt.met.replicaAppErrs.Add(9)
	rt.met.repairs.Add(10)
	rt.met.repairErrs.Add(11)
	rt.met.rebalanceAdopts.Add(12)
	rt.met.rebalanceErrs.Add(13)
	rt.met.setLag(map[string]map[string]uint64{"alpha": {a: 0, b: 2}})

	resp, body := doReq(t, rt, http.MethodGet, "/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	path := filepath.Join("testdata", "router_metrics.golden")
	if os.Getenv("REGEN_METRICS_GOLDEN") != "" {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(want) {
		t.Fatalf("%s differs from the rendered page:\n--- got ---\n%s", path, body)
	}
}
