// Gray-failure drills for the router's resilience layer: hung shards
// bounded by TryTimeout, breakers tripping and recovering, hedged reads,
// the retry budget, replica append-failure reporting, and anti-entropy
// repair — all against real shard servers, with the chaos proxy standing
// in for the misbehaving ones.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sourcecurrents/internal/chaos"
	"sourcecurrents/internal/server"
	"sourcecurrents/internal/session"
)

// pendingCount reports queued repairs.
func (rp *repairer) pendingCount() int {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return len(rp.pending)
}

// listenLocal grabs an ephemeral loopback port, so a fixture's address is
// known before anything serves on it (placement and chaos upstreams need
// the addresses first).
func listenLocal(t testing.TB) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// bootShardOn is bootShard over a pre-created listener.
func bootShardOn(t testing.TB, dir string, ln net.Listener) *shardFixture {
	t.Helper()
	cfg := session.DefaultConfig()
	reg, err := server.LoadDirAllowEmpty(dir, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(server.New(reg, server.Options{AdoptDir: dir, SessionCfg: cfg}))
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	t.Cleanup(ts.Close)
	return &shardFixture{ts: ts, addr: strings.TrimPrefix(ts.URL, "http://"), reg: reg}
}

// datasetWithPrimary finds a dataset name the ring places with the wanted
// address as primary.
func datasetWithPrimary(t testing.TB, addrs []string, rf int, want string) string {
	t.Helper()
	ring := NewRing(addrs, 0)
	for i := 0; i < 1024; i++ {
		name := fmt.Sprintf("w%03d", i)
		if p := ring.Place(name, rf); len(p) > 0 && p[0] == want {
			return name
		}
	}
	t.Fatalf("no dataset name maps its primary onto %s", want)
	return ""
}

// hungListener is a loopback "shard" that accepts connections and never
// answers on them; the test's cleanup closes it and everything it accepted.
func hungListener(t testing.TB) net.Listener {
	t.Helper()
	hung := listenLocal(t)
	var heldMu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := hung.Accept()
			if err != nil {
				return
			}
			heldMu.Lock()
			held = append(held, c)
			heldMu.Unlock()
		}
	}()
	t.Cleanup(func() {
		hung.Close()
		heldMu.Lock()
		for _, c := range held {
			c.Close()
		}
		heldMu.Unlock()
	})
	return hung
}

// Regression for the unbounded default proxy client: a shard that accepts
// connections and never answers must cost at most one TryTimeout before the
// read fails over — not hang the client forever.
func TestRouterTryTimeoutHungShard(t *testing.T) {
	hung := hungListener(t)
	ln := listenLocal(t)
	addrs := []string{hung.Addr().String(), ln.Addr().String()}
	const tryTimeout = 200 * time.Millisecond
	ds := datasetWithPrimary(t, addrs, 2, hung.Addr().String())
	dir := t.TempDir()
	writeWorldSnap(t, dir, ds, 11, 30)
	bootShardOn(t, dir, ln)

	rt, err := NewRouter(addrs, Options{
		RF: 2, TryTimeout: tryTimeout,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		BreakerThreshold: -1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	// A gray-failing shard looks healthy to the prober right up until it
	// hangs; force that view so the read path actually tries it first.
	hs := rt.shardFor(hung.Addr().String())
	hs.ready.Store(true)
	hs.datasets.Store(map[string]bool{ds: true})

	start := time.Now()
	resp, body := doReq(t, rt, http.MethodPost, "/v1/"+ds+"/answer", answerReq)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read status %d: %s", resp.StatusCode, body)
	}
	if elapsed < tryTimeout {
		t.Fatalf("read finished in %v — the hung primary was never tried (fixture bug)", elapsed)
	}
	if elapsed > tryTimeout+800*time.Millisecond {
		t.Fatalf("read took %v, want ~TryTimeout (%v) before failover", elapsed, tryTimeout)
	}
	if got := rt.met.retries.Load(); got == 0 {
		t.Fatal("retries counter = 0, want > 0 after a timed-out primary")
	}
	if got := rt.met.shard(hung.Addr().String()).timeouts.Load(); got == 0 {
		t.Fatal("per-shard timeout counter = 0, want > 0 for the hung shard")
	}
}

// With no hedge armed an attempt runs on the request's goroutine under the
// client's context, so a client that hangs up mid-attempt ends the read at
// once — not at TryTimeout — and the hung shard's breaker settles a cancel:
// the half-open probe slot the attempt claimed is released, the breaker is
// neither re-opened nor charged a failure, and no retry or failover is
// counted for a request nobody is waiting on.
func TestRouterReadClientGone(t *testing.T) {
	hung := hungListener(t)
	ln := listenLocal(t)
	addrs := []string{hung.Addr().String(), ln.Addr().String()}
	const tryTimeout = 5 * time.Second
	ds := datasetWithPrimary(t, addrs, 2, hung.Addr().String())
	dir := t.TempDir()
	writeWorldSnap(t, dir, ds, 11, 30)
	bootShardOn(t, dir, ln)

	rt, err := NewRouter(addrs, Options{
		RF: 2, TryTimeout: tryTimeout, ProbeTimeout: 100 * time.Millisecond,
		BreakerThreshold: 1, BreakerCooldown: 10 * time.Millisecond,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond, RetryRefill: -1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	hs := rt.shardFor(hung.Addr().String())
	hs.ready.Store(true)
	hs.datasets.Store(map[string]bool{ds: true})
	// An open breaker past its cooldown orders first and hands the attempt
	// its half-open probe slot: a cancel releases the slot, a failure
	// re-opens the breaker, and an unsettled attempt would keep holding it.
	hs.brk.mu.Lock()
	hs.brk.state, hs.brk.openedAt = breakerOpen, time.Now().Add(-time.Hour)
	hs.brk.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/"+ds+"/answer", strings.NewReader(answerReq)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	rt.ServeHTTP(w, req)
	if elapsed := time.Since(start); elapsed > tryTimeout/5 {
		t.Fatalf("handler returned after %v, want soon after the client's 50ms hang-up (TryTimeout %v)", elapsed, tryTimeout)
	}
	if w.Body.Len() != 0 {
		t.Fatalf("relayed %q to a client that hung up", w.Body.String())
	}
	hs.brk.mu.Lock()
	state, probing, failures := hs.brk.state, hs.brk.probing, hs.brk.failures
	hs.brk.mu.Unlock()
	if state != breakerHalfOpen || probing || failures != 0 {
		t.Fatalf("breaker state %s probing=%v failures=%d, want a settled cancel (half-open, slot released, no failure)",
			breakerStateName(state), probing, failures)
	}
	if n := rt.met.retries.Load() + rt.met.failovers.Load(); n != 0 {
		t.Fatalf("%d retries/failovers counted for a client that hung up", n)
	}
	sm := rt.met.shard(hung.Addr().String())
	if sm.timeouts.Load() != 0 || sm.errors.Load() != 0 {
		t.Fatalf("hung shard charged %d timeouts, %d errors for a canceled attempt", sm.timeouts.Load(), sm.errors.Load())
	}
}

// A shard that keeps erroring trips its breaker after BreakerThreshold
// consecutive failures; while open the replica serves without the failing
// shard seeing traffic; after the fault lifts, the half-open probe closes
// the breaker and the shard serves golden bytes again.
func TestRouterBreakerTripsAndRecovers(t *testing.T) {
	ln0, ln1 := listenLocal(t), listenLocal(t)
	p, err := chaos.New("127.0.0.1:0", ln0.Addr().String(), chaos.Faults{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	addrs := []string{p.Addr(), ln1.Addr().String()}
	ds := datasetWithPrimary(t, addrs, 2, p.Addr())
	dir0, dir1 := t.TempDir(), t.TempDir()
	writeWorldSnap(t, dir0, ds, 11, 30)
	writeWorldSnap(t, dir1, ds, 11, 30)
	bootShardOn(t, dir0, ln0)
	sh1 := bootShardOn(t, dir1, ln1)

	rt, err := NewRouter(addrs, Options{
		RF: 2, TryTimeout: 2 * time.Second,
		BreakerThreshold: 2, BreakerCooldown: 250 * time.Millisecond,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		RetryRefill: -1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	readGolden := func(when string) []byte {
		t.Helper()
		resp, body := doReq(t, rt, http.MethodPost, "/v1/"+ds+"/answer", answerReq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: read status %d: %s", when, resp.StatusCode, body)
		}
		return body
	}
	_, golden := directReq(t, sh1.ts.URL, http.MethodPost, "/v1/"+ds+"/answer", answerReq)
	if got := readGolden("healthy"); !bytes.Equal(got, golden) {
		t.Fatalf("healthy routed bytes differ from direct:\n%s\n%s", got, golden)
	}

	p.SetFaults(chaos.Faults{ErrorProb: 1})
	for i := 0; i < 4; i++ {
		if got := readGolden("faulted"); !bytes.Equal(got, golden) {
			t.Fatalf("faulted read %d: bytes differ from golden", i)
		}
	}
	if rt.met.breakerTrips.Load() == 0 {
		t.Fatal("breaker never tripped after consecutive 503s")
	}
	ps := rt.shardFor(p.Addr())
	if got := ps.brk.snapshot(); got != breakerOpen {
		t.Fatalf("breaker state = %s, want open", breakerStateName(got))
	}
	// Inside the cooldown, reads go straight to the replica: the failing
	// shard sees no new traffic at all.
	before := p.Stats().Errors
	readGolden("breaker open")
	if got := p.Stats().Errors; got != before {
		t.Fatalf("open breaker still routed to the failing shard (%d -> %d errors)", before, got)
	}

	p.SetFaults(chaos.Faults{})
	deadline := time.Now().Add(5 * time.Second)
	for ps.brk.snapshot() != breakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after the fault lifted (state %s)",
				breakerStateName(ps.brk.snapshot()))
		}
		time.Sleep(60 * time.Millisecond)
		readGolden("recovering") // traffic drives the half-open probe
	}
	if got := readGolden("recovered"); !bytes.Equal(got, golden) {
		t.Fatal("recovered read diverges from golden")
	}
}

// With HedgeDelay set, a slow primary loses to a hedged replica read: the
// response arrives in hedge time, not primary time, and is still golden.
func TestRouterHedgedRead(t *testing.T) {
	ln0, ln1 := listenLocal(t), listenLocal(t)
	p, err := chaos.New("127.0.0.1:0", ln0.Addr().String(), chaos.Faults{LatencyMS: 400}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	addrs := []string{p.Addr(), ln1.Addr().String()}
	ds := datasetWithPrimary(t, addrs, 2, p.Addr())
	dir0, dir1 := t.TempDir(), t.TempDir()
	writeWorldSnap(t, dir0, ds, 11, 30)
	writeWorldSnap(t, dir1, ds, 11, 30)
	bootShardOn(t, dir0, ln0)
	sh1 := bootShardOn(t, dir1, ln1)

	rt, err := NewRouter(addrs, Options{
		RF: 2, TryTimeout: 2 * time.Second, HedgeDelay: 30 * time.Millisecond,
		BreakerThreshold: -1, RetryRefill: -1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	_, golden := directReq(t, sh1.ts.URL, http.MethodPost, "/v1/"+ds+"/answer", answerReq)
	start := time.Now()
	resp, body := doReq(t, rt, http.MethodPost, "/v1/"+ds+"/answer", answerReq)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, golden) {
		t.Fatal("hedged read diverges from golden")
	}
	if elapsed >= 300*time.Millisecond {
		t.Fatalf("read took %v — the hedge never beat the 400ms-slow primary", elapsed)
	}
	if rt.met.hedgesFired.Load() == 0 || rt.met.hedgeWins.Load() == 0 {
		t.Fatalf("hedge counters fired=%d wins=%d, want both > 0",
			rt.met.hedgesFired.Load(), rt.met.hedgeWins.Load())
	}
}

// When every shard is down, the retry budget caps total failover volume:
// the bucket (burst 10, refill 0.1/request) runs dry and later requests
// stop retrying instead of doubling the load on a dead fleet.
func TestRouterRetryBudgetExhausted(t *testing.T) {
	rt, shards := bootFleet(t, 2, map[string]int64{"alpha": 11}, Options{
		RF: 2, TryTimeout: 200 * time.Millisecond, BreakerThreshold: -1,
		RetryRefill: 0.1, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond, Seed: 1,
	})
	for _, sh := range shards {
		sh.ts.CloseClientConnections()
		sh.ts.Close()
	}
	const reqs = 25
	for i := 0; i < reqs; i++ {
		resp, _ := doReq(t, rt, http.MethodPost, "/v1/alpha/answer", answerReq)
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("read %d succeeded against a dead fleet", i)
		}
	}
	if rt.met.budgetExhausted.Load() == 0 {
		t.Fatal("budget-exhausted counter = 0, want > 0 after draining the bucket")
	}
	// Burst 10 + 25 requests * 0.1 refill bounds total retries at 13.
	if got := rt.met.retries.Load(); got > 13 {
		t.Fatalf("retries = %d, want <= 13 (budget must bound the retry storm)", got)
	}
}

// A failed replica append fan-out is visible everywhere it should be: the
// response's replicas field, both failure counters, and the repair queue.
func TestRouterAppendReplicaFailureReported(t *testing.T) {
	rt, shards := bootFleet(t, 2, map[string]int64{"alpha": 11}, Options{
		RF: 2, TryTimeout: 500 * time.Millisecond,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond, Seed: 1,
	})
	placement := rt.Placement("alpha")
	for _, sh := range shards {
		if sh.addr == placement[1] {
			sh.ts.CloseClientConnections()
			sh.ts.Close()
		}
	}
	appendJSON := `{"claims":[{"source":"s_extra","entity":"o00000","attribute":"v","value":"zzz"}]}`
	resp, body := doReq(t, rt, http.MethodPost, "/v1/alpha/append", appendJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d: %s (replica loss must not fail the write)", resp.StatusCode, body)
	}
	var ar struct {
		Epoch    uint64          `json:"epoch"`
		Replicas []ReplicaStatus `json:"replicas"`
	}
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", ar.Epoch)
	}
	if len(ar.Replicas) != 1 || ar.Replicas[0].Addr != placement[1] ||
		ar.Replicas[0].OK || ar.Replicas[0].Error == "" {
		t.Fatalf("replicas field = %+v, want one failed entry for %s", ar.Replicas, placement[1])
	}
	if got := rt.met.replicaAppErrs.Load(); got != 1 {
		t.Fatalf("replica append errors = %d, want 1", got)
	}
	if got := rt.repair.pendingCount(); got != 1 {
		t.Fatalf("repair queue = %d tasks, want 1", got)
	}
	_, met := doReq(t, rt, http.MethodGet, "/metrics", "")
	if !strings.Contains(string(met), "currents_replica_append_failures_total 1") {
		t.Fatalf("metrics missing currents_replica_append_failures_total 1:\n%s", met)
	}
}

// The anti-entropy scan finds a replica whose epoch trails its primary,
// appends the primary's delta since the replica's epoch, and converges it to
// byte-identical answers; the lag gauge returns to 0 and a second round is
// a no-op.
func TestRouterRepairConvergence(t *testing.T) {
	rt, shards := bootFleet(t, 2, map[string]int64{"alpha": 11}, Options{RF: 2})
	placement := rt.Placement("alpha")
	var primary, replica *shardFixture
	for _, sh := range shards {
		if sh.addr == placement[0] {
			primary = sh
		} else {
			replica = sh
		}
	}
	// Lazy registries learn their epoch on first load; force both loads so
	// /readyz reports epochs for the scan to compare.
	directReq(t, primary.ts.URL, http.MethodPost, "/v1/alpha/answer", answerReq)
	directReq(t, replica.ts.URL, http.MethodPost, "/v1/alpha/answer", answerReq)

	// Append straight to the primary, bypassing the router's fan-out — the
	// divergence a failed fan-out leaves behind.
	appendJSON := `{"claims":[{"source":"s_extra","entity":"o00000","attribute":"v","value":"zzz"}]}`
	dresp, dbody := directReq(t, primary.ts.URL, http.MethodPost, "/v1/alpha/append", appendJSON)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("direct append status %d: %s", dresp.StatusCode, dbody)
	}
	rt.probeAll() // refresh the epoch reports

	rt.repair.runOnce()
	if got := rt.met.repairs.Load(); got != 1 {
		t.Fatalf("repairs = %d, want 1 (errors=%d)", got, rt.met.repairErrs.Load())
	}
	if epoch, ok := replica.reg.KnownEpochs()["alpha"]; !ok || epoch != 1 {
		t.Fatalf("replica epoch = %d (ok=%v), want 1 after repair", epoch, ok)
	}
	_, want := directReq(t, primary.ts.URL, http.MethodPost, "/v1/alpha/answer", answerReq)
	gresp, got := directReq(t, replica.ts.URL, http.MethodPost, "/v1/alpha/answer", answerReq)
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("healed replica answer status %d: %s", gresp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("healed replica diverges from primary:\n%s\n%s", got, want)
	}
	_, met := doReq(t, rt, http.MethodGet, "/metrics", "")
	lagLine := fmt.Sprintf("currents_replica_lag{dataset=\"alpha\",shard=%q} 0", replica.addr)
	if !strings.Contains(string(met), lagLine) {
		t.Fatalf("metrics missing %q:\n%s", lagLine, met)
	}
	rt.repair.runOnce()
	if got := rt.met.repairs.Load(); got != 1 {
		t.Fatalf("second repair round repaired again (repairs=%d), want idempotent no-op", got)
	}
}

// bootFanoutWindowFleet boots two shards serving "alpha" at rf=2 behind a
// router and runs inWindow on every routed append at the moment the primary
// has applied the batch and the replica's copy is arriving — the fan-out
// window. An append that arrives while inWindow runs — a repair's —
// passes straight through. It returns the router, the registries in
// placement order (primary, replica) and a count of snapshot streams served.
func bootFanoutWindowFleet(t *testing.T, inWindow func(rt *Router)) (*Router, [2]*server.Registry, *atomic.Int64) {
	t.Helper()
	var rt *Router
	var replicaAddr string
	var inside atomic.Bool
	snapshots := new(atomic.Int64)
	cfg := session.DefaultConfig()
	addrs := make([]string, 2)
	regs := map[string]*server.Registry{}
	for i := range addrs {
		dir := t.TempDir()
		writeWorldSnap(t, dir, "alpha", 11, 30)
		reg, err := server.LoadDirAllowEmpty(dir, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		shard := server.New(reg, server.Options{AdoptDir: dir, SessionCfg: cfg})
		var self string
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case strings.HasSuffix(r.URL.Path, "/snapshot"):
				snapshots.Add(1)
			case strings.HasSuffix(r.URL.Path, "/append") && self == replicaAddr && inside.CompareAndSwap(false, true):
				// The primary has applied the batch, this replica has not yet.
				inWindow(rt)
				inside.Store(false)
			}
			shard.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		self = strings.TrimPrefix(ts.URL, "http://")
		addrs[i] = self
		regs[self] = reg
	}
	var err error
	if rt, err = NewRouter(addrs, Options{RF: 2}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	placement := rt.Placement("alpha")
	replicaAddr = placement[1]
	// Lazy registries learn their epoch on first load; force both loads so
	// /readyz reports epochs for the scan to compare.
	for _, addr := range addrs {
		directReq(t, "http://"+addr, http.MethodPost, "/v1/alpha/answer", answerReq)
	}
	return rt, [2]*server.Registry{regs[placement[0]], regs[placement[1]]}, snapshots
}

// A probe that lands between a primary's append and its replica's sees an
// epoch gap the fan-out is about to close. The scan may suspect the replica,
// but the repair must ask again before it sends a delta: every routed append
// ends with no repair counted and no snapshot pulled, and the replica
// applied each batch once, from the fan-out's delta.
func TestRouterNoSpuriousRepair(t *testing.T) {
	rt, regs, snapshots := bootFanoutWindowFleet(t, func(rt *Router) {
		rt.probeAll()
		rt.repair.scanLag()
	})

	for i := 1; i <= 3; i++ {
		body := fmt.Sprintf(`{"claims":[{"source":"s_extra","entity":"o%05d","attribute":"v","value":"zzz"}]}`, i)
		if resp, out := doReq(t, rt, http.MethodPost, "/v1/alpha/append", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("append %d status %d: %s", i, resp.StatusCode, out)
		}
		if got := rt.repair.pendingCount(); got != 1 {
			t.Fatalf("append %d: repair queue = %d tasks, want the scan's one suspicion", i, got)
		}
		rt.repair.runOnce()
		if got := rt.repair.pendingCount(); got != 0 {
			t.Fatalf("append %d: repair queue = %d tasks after the round, want 0", i, got)
		}
	}
	if got := snapshots.Load(); got != 0 {
		t.Fatalf("%d snapshots streamed, want 0", got)
	}
	if st := regs[1].Stats()[0]; st.Epoch != 3 || st.DeltaAppends != 3 || st.Swaps != 3 {
		t.Fatalf("replica at epoch %d after %d delta appends and %d swaps, want 3, 3, 3", st.Epoch, st.DeltaAppends, st.Swaps)
	}
	_, met := doReq(t, rt, http.MethodGet, "/metrics", "")
	if !strings.Contains(string(met), "currents_router_repairs_total 0\n") {
		t.Fatalf("metrics missing currents_router_repairs_total 0:\n%s", met)
	}
}

// A repair that completes inside the fan-out window appends the primary's
// delta — the in-flight batch included — to the replica. The replica's own
// copy of the batch must then be refused (the fan-out is conditional on the
// primary's pre-append epoch), not applied on top: the replica ends at the
// primary's epoch with the primary's claims, having applied the batch once,
// and the refusal counts as a replica that holds the batch, not as a
// fan-out failure.
func TestRouterRepairInsideFanoutWindow(t *testing.T) {
	rt, regs, snapshots := bootFanoutWindowFleet(t, func(rt *Router) {
		rt.probeAll()
		rt.repair.scanLag()
		rt.repair.runOnce()
	})
	body := `{"claims":[{"source":"s_extra","entity":"o00001","attribute":"v","value":"zzz"}]}`
	resp, out := doReq(t, rt, http.MethodPost, "/v1/alpha/append", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d: %s", resp.StatusCode, out)
	}
	var ack appendBody
	if err := json.Unmarshal(out, &ack); err != nil {
		t.Fatal(err)
	}
	if len(ack.Replicas) != 1 || !ack.Replicas[0].OK {
		t.Fatalf("replica status %+v, want one replica holding the batch", ack.Replicas)
	}
	if got := rt.met.repairs.Load(); got != 1 || snapshots.Load() != 0 {
		t.Fatalf("repairs = %d, snapshots streamed = %d; the test needs exactly the one forced repair, by delta", got, snapshots.Load())
	}
	if st := regs[1].Stats()[0]; st.DeltaAppends != 1 || st.Swaps != 1 {
		t.Fatalf("replica applied %d delta appends in %d swaps, want the batch once", st.DeltaAppends, st.Swaps)
	}
	var claims [2]int
	for i, reg := range regs {
		sess, epoch, err := reg.Current("alpha")
		if err != nil {
			t.Fatal(err)
		}
		claims[i] = sess.Dataset().Len()
		if epoch != ack.Epoch {
			t.Fatalf("shard %d at epoch %d, want the primary's %d", i, epoch, ack.Epoch)
		}
	}
	if claims[0] != ack.Claims || claims[1] != ack.Claims {
		t.Fatalf("claims primary/replica = %d/%d, want %d on both", claims[0], claims[1], ack.Claims)
	}
	if got := rt.met.replicaAppErrs.Load(); got != 0 {
		t.Fatalf("replica append errors = %d, want 0", got)
	}
	if got := rt.repair.pendingCount(); got != 0 {
		t.Fatalf("repair queue = %d tasks, want 0", got)
	}
}

// With every resilience knob engaged and a healthy fleet, routed bytes stay
// golden-identical to direct shard bytes — the resilience layer adds
// failover, never content.
func TestRouterGoldenWithResilienceKnobs(t *testing.T) {
	rt, shards := bootFleet(t, 3, map[string]int64{"alpha": 11, "beta": 13}, Options{
		RF: 2, TryTimeout: 2 * time.Second, HedgeDelay: time.Millisecond,
		BreakerThreshold: 1, BreakerCooldown: 10 * time.Millisecond,
		RetryRefill: 0.5, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		Seed: 7,
	})
	cases := []struct{ method, path, body string }{
		{http.MethodPost, "/v1/alpha/answer", answerReq},
		{http.MethodPost, "/v1/beta/answer", answerReq},
		{http.MethodPost, "/v1/alpha/fuse", ""},
		{http.MethodGet, "/v1/alpha/accuracy", ""},
	}
	for iter := 0; iter < 3; iter++ {
		for _, c := range cases {
			resp, routed := doReq(t, rt, c.method, c.path, c.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("iter %d %s %s: status %d: %s", iter, c.method, c.path, resp.StatusCode, routed)
			}
			for i, sh := range shards {
				dresp, direct := directReq(t, sh.ts.URL, c.method, c.path, c.body)
				if dresp.StatusCode != http.StatusOK {
					t.Fatalf("shard %d status %d", i, dresp.StatusCode)
				}
				if !bytes.Equal(routed, direct) {
					t.Fatalf("iter %d %s %s: routed bytes differ from shard %d", iter, c.method, c.path, i)
				}
			}
		}
	}
}
