// The fleet router: one http.Handler that fronts N `currents server`
// shards and exposes the same /v1/{dataset}/... API a single server does.
//
// Placement comes from the consistent-hash ring (ring.go): each dataset
// lives on rf shards, the first being its primary. Reads try the placement
// in order and fail over past shards that are down, erroring, or missing
// the world (mid-rebalance); appends go to the primary and, once accepted,
// fan out to the replicas so every copy advances through the same epochs.
// A background prober polls each shard's /readyz — which verifies every
// registered snapshot actually opens, not merely that the process is up —
// and the prober's dataset inventory doubles as the rebalance catalog:
// when /admin/ring changes the shard set, the router tells each shard that
// newly owns a world to adopt it by streaming a peer's snapshot.
//
// Gray failures — shards that hang, flap, or answer slowly rather than
// dying cleanly — are handled by a resilience layer on the proxy path:
// every try carries a deadline (TryTimeout) under the client's request
// context, failover retries back off exponentially with seeded
// deterministic jitter, a per-shard circuit breaker (breaker.go) fast-fails
// past shards that keep losing, an optional hedge fires the next replica
// after HedgeDelay and takes the first good answer, and a global retry
// budget (backoff.go) keeps failover from amplifying an outage into a
// retry storm. Replica append fan-out failures are reported in the append
// response and enqueued for repair: an anti-entropy loop (repair.go)
// compares per-dataset epochs across each placement and re-streams
// snapshots to lagging replicas.
//
// The router holds no dataset state of its own, so routed responses are
// byte-for-byte the shard's bytes — the golden suite pins routed answers
// to direct-shard answers, with and without the resilience knobs engaged.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Options tunes the router.
type Options struct {
	// RF is the replication factor: how many shards host each dataset.
	// Zero means DefaultRF.
	RF int
	// VNodes is the virtual-node count per shard (0 = DefaultVNodes).
	VNodes int
	// HealthInterval is the delay between readiness probe rounds once
	// Start is called (0 = DefaultHealthInterval).
	HealthInterval time.Duration
	// ProbeTimeout bounds one readiness probe (0 = DefaultProbeTimeout).
	ProbeTimeout time.Duration
	// MaxRequestBytes caps buffered proxy request bodies (0 = 1 MiB).
	MaxRequestBytes int64
	// TryTimeout bounds one proxied attempt against one shard, so a hung
	// shard costs at most one deadline before failover (0 =
	// DefaultTryTimeout, <0 = no per-try deadline). Snapshot streams and
	// adoptions use RepairTimeout instead — they legitimately run long.
	TryTimeout time.Duration
	// HedgeDelay, when positive, fires a hedged attempt at the next read
	// replica after this delay; the first good answer wins and the loser
	// is canceled. Zero disables hedging.
	HedgeDelay time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// shard's circuit breaker (0 = DefaultBreakerThreshold, <0 = breakers
	// disabled).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before
	// admitting a half-open probe (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// RetryRefill is the retry-budget refill per incoming request: the
	// router may issue roughly this fraction of its request volume as
	// failover retries, burst DefaultRetryBurst (0 = DefaultRetryRefill,
	// <0 = unlimited retries).
	RetryRefill float64
	// BackoffBase and BackoffMax bound the jittered exponential delay
	// between failover tries (0 = DefaultBackoffBase / DefaultBackoffMax).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives backoff jitter; the same seed yields the same delay
	// sequence (0 = 1).
	Seed int64
	// RepairInterval is the anti-entropy scan period: each scan compares
	// per-dataset epochs across the placement and re-streams snapshots to
	// lagging replicas (0 = DefaultRepairInterval, <0 = repair disabled).
	// The loop runs only after Start.
	RepairInterval time.Duration
	// RepairTimeout bounds one repair adoption — a full snapshot stream
	// (0 = DefaultRepairTimeout).
	RepairTimeout time.Duration
	// Client issues proxied requests and rebalance adoptions; nil uses a
	// dedicated client with pooled connections and no overall timeout
	// (per-try deadlines come from TryTimeout contexts instead).
	Client *http.Client
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// DefaultRF is the replication factor when Options.RF is zero.
const DefaultRF = 2

// DefaultHealthInterval is the readiness probe period.
const DefaultHealthInterval = 500 * time.Millisecond

// DefaultProbeTimeout bounds one readiness probe round trip.
const DefaultProbeTimeout = 2 * time.Second

// DefaultTryTimeout bounds one proxied attempt against one shard.
const DefaultTryTimeout = 2 * time.Second

// DefaultBreakerThreshold is the consecutive-failure trip count.
const DefaultBreakerThreshold = 5

// DefaultBreakerCooldown is the open -> half-open delay.
const DefaultBreakerCooldown = 2 * time.Second

// DefaultBackoffBase and DefaultBackoffMax bound failover retry delays.
const (
	DefaultBackoffBase = 25 * time.Millisecond
	DefaultBackoffMax  = 500 * time.Millisecond
)

// DefaultRetryRefill is the retry-budget refill per incoming request;
// DefaultRetryBurst is the bucket capacity.
const (
	DefaultRetryRefill = 0.2
	DefaultRetryBurst  = 10.0
)

// DefaultRepairInterval is the anti-entropy scan period.
const DefaultRepairInterval = 10 * time.Second

// DefaultRepairTimeout bounds one repair or rebalance snapshot adoption.
const DefaultRepairTimeout = 60 * time.Second

// shardState is the router's view of one shard, refreshed by the prober.
type shardState struct {
	addr  string
	ready atomic.Bool
	// datasets is the shard's inventory from its last successful probe
	// (map[string]bool); nil until first probed.
	datasets atomic.Value
	// epochs is the shard's per-dataset epoch report from its last
	// successful probe (map[string]uint64); nil until first probed.
	epochs atomic.Value
	// brk is the shard's circuit breaker; it survives ring changes so a
	// re-added shard keeps its history.
	brk *breaker
}

func (s *shardState) has(ds string) bool {
	m, _ := s.datasets.Load().(map[string]bool)
	return m[ds]
}

func (s *shardState) datasetCount() int {
	m, _ := s.datasets.Load().(map[string]bool)
	return len(m)
}

func (s *shardState) epochOf(ds string) (uint64, bool) {
	m, _ := s.epochs.Load().(map[string]uint64)
	e, ok := m[ds]
	return e, ok
}

// Router proxies the dataset API across a shard fleet. Create with
// NewRouter, optionally Start the background prober and repair loop, and
// Close when done. Safe for concurrent use.
type Router struct {
	opt     Options
	client  *http.Client
	probe   *http.Client
	met     *routerMetrics
	backoff *backoff
	budget  *retryBudget
	repair  *repairer

	mu     sync.RWMutex
	ring   *Ring
	shards map[string]*shardState

	stopOnce sync.Once
	done     chan struct{}
	wg       sync.WaitGroup
}

// NewRouter builds a router over the given shard addresses (host:port) and
// synchronously probes each once, so a router over live shards routes
// immediately. Call Start to keep probing (and repairing) in the
// background.
func NewRouter(shardAddrs []string, opt Options) (*Router, error) {
	if opt.RF <= 0 {
		opt.RF = DefaultRF
	}
	if opt.HealthInterval <= 0 {
		opt.HealthInterval = DefaultHealthInterval
	}
	if opt.ProbeTimeout <= 0 {
		opt.ProbeTimeout = DefaultProbeTimeout
	}
	if opt.MaxRequestBytes <= 0 {
		opt.MaxRequestBytes = 1 << 20
	}
	switch {
	case opt.TryTimeout == 0:
		opt.TryTimeout = DefaultTryTimeout
	case opt.TryTimeout < 0:
		opt.TryTimeout = 0
	}
	switch {
	case opt.BreakerThreshold == 0:
		opt.BreakerThreshold = DefaultBreakerThreshold
	case opt.BreakerThreshold < 0:
		opt.BreakerThreshold = 0 // disabled
	}
	if opt.BreakerCooldown <= 0 {
		opt.BreakerCooldown = DefaultBreakerCooldown
	}
	switch {
	case opt.RepairInterval == 0:
		opt.RepairInterval = DefaultRepairInterval
	case opt.RepairInterval < 0:
		opt.RepairInterval = 0 // disabled
	}
	if opt.RepairTimeout <= 0 {
		opt.RepairTimeout = DefaultRepairTimeout
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
		}}
	}
	ring := NewRing(shardAddrs, opt.VNodes)
	if ring.Len() == 0 {
		return nil, errors.New("cluster: router needs at least one shard")
	}
	rt := &Router{
		opt:     opt,
		client:  client,
		probe:   &http.Client{Timeout: opt.ProbeTimeout},
		backoff: newBackoff(opt.BackoffBase, opt.BackoffMax, opt.Seed),
		budget:  newRetryBudget(opt.RetryRefill),
		ring:    ring,
		shards:  make(map[string]*shardState, ring.Len()),
		done:    make(chan struct{}),
	}
	rt.met = newRouterMetrics(rt.shardList)
	rt.repair = newRepairer(rt)
	for _, addr := range ring.Shards() {
		rt.shards[addr] = rt.newShardState(addr)
	}
	rt.probeAll()
	return rt, nil
}

func (rt *Router) newShardState(addr string) *shardState {
	return &shardState{
		addr: addr,
		brk:  newBreaker(rt.opt.BreakerThreshold, rt.opt.BreakerCooldown, nil),
	}
}

// Start launches the background readiness prober and, when RepairInterval
// is positive, the anti-entropy repair loop.
func (rt *Router) Start() {
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		t := time.NewTicker(rt.opt.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-rt.done:
				return
			case <-t.C:
				rt.probeAll()
			}
		}
	}()
	if rt.opt.RepairInterval > 0 {
		rt.startRepair()
	}
}

// Close stops the prober and repair loop. Idempotent.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.done) })
	rt.wg.Wait()
}

// shardList snapshots the current shard states.
func (rt *Router) shardList() []*shardState {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]*shardState, 0, len(rt.shards))
	for _, s := range rt.shards {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

// shardFor returns the live state for one address, or nil if the address
// left the ring.
func (rt *Router) shardFor(addr string) *shardState {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.shards[addr]
}

// probeAll refreshes every shard's readiness and inventory, in parallel.
func (rt *Router) probeAll() {
	shards := rt.shardList()
	var wg sync.WaitGroup
	for _, s := range shards {
		wg.Add(1)
		go func(s *shardState) {
			defer wg.Done()
			rt.probeShard(s)
		}(s)
	}
	wg.Wait()
}

// probeShard polls one shard's /readyz: 200 means every registered world
// is verified loadable, and the response carries the dataset inventory and
// per-dataset epochs (the repair loop's lag signal). Any other status —
// including a 503 "loading" — leaves the shard out of the routing set
// until it verifies.
func (rt *Router) probeShard(s *shardState) {
	resp, err := rt.probe.Get("http://" + s.addr + "/readyz")
	if err != nil {
		if s.ready.CompareAndSwap(true, false) {
			rt.opt.Logf("shard %s down: %v", s.addr, err)
		}
		return
	}
	defer resp.Body.Close()
	var rr struct {
		Datasets []string          `json:"datasets"`
		Epochs   map[string]uint64 `json:"epochs"`
	}
	dec := json.NewDecoder(io.LimitReader(resp.Body, 1<<20))
	_ = dec.Decode(&rr)
	if resp.StatusCode != http.StatusOK {
		if s.ready.CompareAndSwap(true, false) {
			rt.opt.Logf("shard %s not ready (status %d)", s.addr, resp.StatusCode)
		}
		return
	}
	inv := make(map[string]bool, len(rr.Datasets))
	for _, ds := range rr.Datasets {
		inv[ds] = true
	}
	s.datasets.Store(inv)
	if rr.Epochs == nil {
		rr.Epochs = map[string]uint64{}
	}
	s.epochs.Store(rr.Epochs)
	if s.ready.CompareAndSwap(false, true) {
		rt.opt.Logf("shard %s ready (%d datasets)", s.addr, len(inv))
	}
}

// Placement returns the rf shards responsible for a dataset, primary
// first.
func (rt *Router) Placement(dataset string) []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.Place(dataset, rt.opt.RF)
}

// OwnerOf reports the primary shard for a dataset — the hint shards embed
// in their unknown-dataset 404s.
func (rt *Router) OwnerOf(dataset string) (string, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	p := rt.ring.Primary(dataset)
	return p, p != ""
}

// catalog returns the union of every shard's probed inventory, sorted.
func (rt *Router) catalog() []string {
	seen := map[string]bool{}
	for _, s := range rt.shardList() {
		if m, _ := s.datasets.Load().(map[string]bool); m != nil {
			for ds := range m {
				seen[ds] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for ds := range seen {
		out = append(out, ds)
	}
	sort.Strings(out)
	return out
}

// ServeHTTP routes: the router's own /healthz and /metrics, the /admin/ring
// control endpoint, and the proxied /v1/{dataset}/{op} API.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		rt.handleHealth(w, r)
		return
	case "/metrics":
		rt.handleMetrics(w, r)
		return
	case "/admin/ring":
		rt.handleAdminRing(w, r)
		return
	}
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		rt.proxy(w, r)
		return
	}
	writeJSON(w, http.StatusNotFound,
		map[string]string{"error": "not found (try /healthz, /metrics, /admin/ring, /v1/{dataset}/{op})"})
}

// ShardHealth is one shard's state in the router's /healthz payload.
type ShardHealth struct {
	Addr     string   `json:"addr"`
	Ready    bool     `json:"ready"`
	Breaker  string   `json:"breaker"`
	Datasets []string `json:"datasets,omitempty"`
}

// RouterHealth is the router's /healthz payload.
type RouterHealth struct {
	Status string        `json:"status"`
	RF     int           `json:"rf"`
	Shards []ShardHealth `json:"shards"`
	// Placements maps every cataloged dataset to its placement, primary
	// first — the fleet's routing table at a glance.
	Placements map[string][]string `json:"placements,omitempty"`
}

func breakerStateName(s int) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "method not allowed"})
		return
	}
	h := RouterHealth{Status: "ok", RF: rt.opt.RF}
	for _, s := range rt.shardList() {
		sh := ShardHealth{Addr: s.addr, Ready: s.ready.Load(), Breaker: breakerStateName(s.brk.snapshot())}
		if m, _ := s.datasets.Load().(map[string]bool); len(m) > 0 {
			sh.Datasets = make([]string, 0, len(m))
			for ds := range m {
				sh.Datasets = append(sh.Datasets, ds)
			}
			sort.Strings(sh.Datasets)
		}
		h.Shards = append(h.Shards, sh)
	}
	if cat := rt.catalog(); len(cat) > 0 {
		h.Placements = make(map[string][]string, len(cat))
		for _, ds := range cat {
			h.Placements[ds] = rt.Placement(ds)
		}
	}
	writeJSON(w, http.StatusOK, h)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "method not allowed"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(rt.met.reg.Gather().Text()) // the client hanging up is not the router's error
}

// AdminRingRequest reconfigures the shard set.
type AdminRingRequest struct {
	Shards []string `json:"shards"`
}

// Move is one rebalance action: dataset adopted onto To by streaming From's
// snapshot.
type Move struct {
	Dataset string `json:"dataset"`
	To      string `json:"to"`
	From    string `json:"from"`
	Error   string `json:"error,omitempty"`
}

// AdminRingResponse reports the accepted shard set and the rebalance moves
// it triggered.
type AdminRingResponse struct {
	Shards []string `json:"shards"`
	RF     int      `json:"rf"`
	Moves  []Move   `json:"moves"`
}

func (rt *Router) handleAdminRing(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "method not allowed"})
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	var req AdminRingRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad ring request: " + err.Error()})
		return
	}
	if len(req.Shards) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "ring needs at least one shard"})
		return
	}
	moves := rt.SetShards(req.Shards)
	resp := AdminRingResponse{RF: rt.opt.RF, Moves: moves}
	rt.mu.RLock()
	resp.Shards = rt.ring.Shards()
	rt.mu.RUnlock()
	if resp.Moves == nil {
		resp.Moves = []Move{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// SetShards replaces the ring's shard set and rebalances: every dataset
// whose new placement includes a shard that does not hold it yet is
// adopted there by streaming a current holder's snapshot. Returns the
// executed moves. New shards are probed synchronously first, so a shard
// that just booted empty participates immediately. Shards that stay on the
// ring keep their state — breakers included.
func (rt *Router) SetShards(addrs []string) []Move {
	ring := NewRing(addrs, rt.opt.VNodes)
	rt.mu.Lock()
	rt.ring = ring
	next := make(map[string]*shardState, ring.Len())
	for _, addr := range ring.Shards() {
		if s, ok := rt.shards[addr]; ok {
			next[addr] = s
		} else {
			next[addr] = rt.newShardState(addr)
		}
	}
	rt.shards = next
	rt.mu.Unlock()
	rt.met.ringChanges.Add(1)
	rt.opt.Logf("ring set to %d shard(s): %s", ring.Len(), strings.Join(ring.Shards(), ","))
	rt.probeAll()
	return rt.Rebalance()
}

// Rebalance walks the catalog (the union of every shard's probed
// inventory) and pulls each dataset onto the placement shards that lack
// it, streaming a holder's snapshot via the shard adopt endpoint. Safe to
// call repeatedly; adoption is idempotent on the shard side.
func (rt *Router) Rebalance() []Move {
	shards := rt.shardList()
	holders := map[string][]string{} // dataset -> shards holding it, sorted
	for _, s := range shards {
		if m, _ := s.datasets.Load().(map[string]bool); m != nil {
			for ds := range m {
				holders[ds] = append(holders[ds], s.addr)
			}
		}
	}
	catalog := make([]string, 0, len(holders))
	for ds := range holders {
		sort.Strings(holders[ds])
		catalog = append(catalog, ds)
	}
	sort.Strings(catalog)

	byAddr := make(map[string]*shardState, len(shards))
	for _, s := range shards {
		byAddr[s.addr] = s
	}
	var moves []Move
	adopted := map[string]bool{} // addrs that gained worlds, re-probed below
	for _, ds := range catalog {
		for _, target := range rt.Placement(ds) {
			ts := byAddr[target]
			if ts == nil || ts.has(ds) {
				continue
			}
			src := pickSource(holders[ds], byAddr)
			if src == "" {
				continue
			}
			mv := Move{Dataset: ds, To: target, From: src}
			if _, err := rt.adopt(target, ds, src, false); err != nil {
				mv.Error = err.Error()
				rt.met.rebalanceErrs.Add(1)
				rt.opt.Logf("rebalance: adopt %s onto %s from %s: %v", ds, target, src, err)
			} else {
				rt.met.rebalanceAdopts.Add(1)
				adopted[target] = true
				rt.opt.Logf("rebalance: adopted %s onto %s from %s", ds, target, src)
			}
			moves = append(moves, mv)
		}
	}
	for addr := range adopted {
		if s := byAddr[addr]; s != nil {
			rt.probeShard(s)
		}
	}
	return moves
}

// pickSource prefers a ready holder; any holder otherwise.
func pickSource(holding []string, byAddr map[string]*shardState) string {
	for _, addr := range holding {
		if s := byAddr[addr]; s != nil && s.ready.Load() {
			return addr
		}
	}
	if len(holding) > 0 {
		return holding[0]
	}
	return ""
}

// adopt tells target to pull dataset from src's snapshot stream, bounded
// by RepairTimeout. replace re-streams over an existing (lagging) world.
// It returns the shard's verdict: "adopted", "exists", "replaced", or
// "current" when the target's own world was already as new.
func (rt *Router) adopt(target, dataset, src string, replace bool) (string, error) {
	from := "http://" + src + "/v1/" + dataset + "/snapshot"
	u := "http://" + target + "/v1/" + dataset + "/adopt?from=" + url.QueryEscape(from)
	if replace {
		u += "&replace=1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), rt.opt.RepairTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("adopt: shard answered %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var ar struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &ar); err != nil {
		return "", fmt.Errorf("adopt: shard answered 200 with %q: %w", strings.TrimSpace(string(body)), err)
	}
	return ar.Status, nil
}

// proxy forwards one /v1/{dataset}/{op} request to the dataset's placement.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/")
	name, op, ok := strings.Cut(rest, "/")
	if !ok || name == "" || op == "" {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "not found: want /v1/{dataset}/{op}"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.opt.MaxRequestBytes))
	if err != nil {
		var maxErr *http.MaxBytesError
		status := http.StatusBadRequest
		if errors.As(err, &maxErr) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	placement := rt.Placement(name)
	if len(placement) == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no shards on the ring"})
		return
	}
	if op == "append" || op == "adopt" {
		rt.proxyWrite(w, r, name, op, placement, body)
		return
	}
	if op == "snapshot" {
		// Whole-world snapshots stream through without buffering; routing
		// them through the buffered read path would hold entire worlds in
		// router memory under concurrent pulls.
		rt.proxySnapshot(w, r, placement, body)
		return
	}
	rt.proxyRead(w, r, op, placement, body)
}

// maxRelayBytes caps a buffered shard response on the routed read/write
// path. Snapshot streams never pass through the buffer (proxySnapshot
// relays them without materializing the body); every other operation
// answers JSON, so anything larger than this is a fault, not a payload.
const maxRelayBytes = 32 << 20

// snapshotCRCHeader mirrors server.SnapshotCRCHeader, which the adopting
// side verifies end to end (the cluster package deliberately does not
// import server).
const snapshotCRCHeader = "X-Snapshot-CRC32"

// shardShoot issues the routed request against one shard under ctx and
// returns the raw response with its body unread — the shared first half of
// the buffered (shardRequest) and streaming (proxySnapshot) relays.
func (rt *Router) shardShoot(ctx context.Context, r *http.Request, addr string, body []byte) (*http.Response, error) {
	u := "http://" + addr + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	return rt.client.Do(req)
}

// shardRequest issues the request against one shard under ctx and returns
// the full response. A nil error with any status is a shard answer; an
// error is a transport failure. Canceled attempts (hedge losers, client
// gone) return without touching metrics — they say nothing about the
// shard; deadline expiries count on the per-shard timeout counter.
func (rt *Router) shardRequest(ctx context.Context, r *http.Request, addr string, body []byte) (*http.Response, []byte, error) {
	start := time.Now()
	resp, err := rt.shardShoot(ctx, r, addr, body)
	if err == nil {
		var respBody []byte
		respBody, err = io.ReadAll(io.LimitReader(resp.Body, maxRelayBytes+1))
		resp.Body.Close()
		if err == nil && len(respBody) > maxRelayBytes {
			err = fmt.Errorf("shard %s: response exceeds the %d-byte relay cap", addr, maxRelayBytes)
		}
		if err == nil {
			rt.met.observe(addr, time.Since(start), resp.StatusCode >= 500)
			return resp, respBody, nil
		}
	}
	if errors.Is(err, context.Canceled) {
		return nil, nil, err
	}
	if errors.Is(err, context.DeadlineExceeded) {
		rt.met.shardTimeout(addr)
	}
	rt.met.observe(addr, time.Since(start), true)
	return nil, nil, err
}

// retriable reports whether a shard answer should fail over to the next
// replica: server-side failures, and 404s (the world may not have reached
// this shard yet mid-rebalance, while a replica still serves it).
func retriable(status int) bool {
	return status >= 500 || status == http.StatusNotFound
}

// readCandidates orders a placement for attempts: ready shards whose
// breaker admits first, then down-marked ones (the prober's view may be
// stale), then breaker-denied shards as the very last resort. Ordering
// uses the read-only admits() so an open breaker whose cooldown elapsed
// sorts normally and the launch-time allow() performs its half-open
// transition under regular traffic.
func (rt *Router) readCandidates(placement []string) []*shardState {
	rt.mu.RLock()
	states := make([]*shardState, 0, len(placement))
	for _, addr := range placement {
		if s := rt.shards[addr]; s != nil {
			states = append(states, s)
		}
	}
	rt.mu.RUnlock()
	out := make([]*shardState, 0, len(states))
	var down, denied, downDenied []*shardState
	for _, s := range states {
		admits := s.brk.admits()
		ready := s.ready.Load()
		switch {
		case ready && admits:
			out = append(out, s)
		case admits:
			down = append(down, s)
		case ready:
			denied = append(denied, s)
		default:
			downDenied = append(downDenied, s)
		}
	}
	out = append(out, down...)
	out = append(out, denied...)
	return append(out, downDenied...)
}

// attemptResult is one shard attempt's outcome.
type attemptResult struct {
	s        *shardState
	hedged   bool
	resp     *http.Response
	body     []byte
	err      error
	canceled bool
}

// settleVerdict applies an attempt's outcome to its shard's breaker —
// shared by the read loop and the post-return reaper that drains attempts
// still in flight when a winner was already relayed.
func (rt *Router) settleVerdict(res attemptResult) {
	switch {
	case res.canceled:
		res.s.brk.onCancel()
	case res.err != nil:
		if res.s.brk.onFailure() {
			rt.met.breakerTrips.Add(1)
			rt.opt.Logf("breaker open: shard %s", res.s.addr)
		}
	case res.resp.StatusCode >= 500:
		if res.s.brk.onFailure() {
			rt.met.breakerTrips.Add(1)
			rt.opt.Logf("breaker open: shard %s", res.s.addr)
		}
	default:
		// Any non-5xx answer (404 included) proves the shard responsive.
		res.s.brk.onSuccess()
	}
}

// proxyRead forwards a read across the placement with per-try deadlines,
// jittered backoff between failover tries, breaker-aware ordering, and an
// optional hedged second attempt. The first non-retriable answer wins and
// is relayed byte-for-byte; losers run out their per-try deadline in the
// background so the breaker still learns from them. When every attempt fails
// the most informative response wins: the last shard answer if any, else
// 502.
func (rt *Router) proxyRead(w http.ResponseWriter, r *http.Request, op string, placement []string, body []byte) {
	rt.budget.onRequest()
	cands := rt.readCandidates(placement)
	if len(cands) == 0 {
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": "no shard could serve the request"})
		return
	}
	ctx := r.Context()
	tryTimeout := rt.opt.TryTimeout
	hedgeDelay := rt.opt.HedgeDelay

	results := make(chan attemptResult, len(cands))
	var cancels []context.CancelFunc
	inflight := 0
	next := 0

	// launch starts an attempt against the next candidate whose breaker
	// admits it; a denied candidate is only forced when skipping it would
	// leave the request with no attempt at all (the forced try doubles as
	// the breaker probe). Reports whether an attempt started.
	launch := func(hedged bool) bool {
		for next < len(cands) {
			s := cands[next]
			next++
			lastResort := next == len(cands) && inflight == 0
			if !s.brk.allow() && !lastResort {
				continue
			}
			actx, cancel := context.WithCancel(ctx)
			if tryTimeout > 0 {
				// Detached from the request context on purpose: an attempt
				// that loses to a hedge keeps running to its own per-try
				// deadline so its verdict still settles on the breaker — a
				// canceled attempt says nothing, and under pure hedged
				// traffic a blackholed shard would otherwise never
				// accumulate a single failure. The deadline bounds the
				// straggler; a gone client cancels through the cleanup path.
				actx, cancel = context.WithTimeout(context.Background(), tryTimeout)
			}
			cancels = append(cancels, cancel)
			inflight++
			if hedged {
				rt.met.hedgesFired.Add(1)
			}
			go func(s *shardState, hedged bool) {
				resp, respBody, err := rt.shardRequest(actx, r, s.addr, body)
				results <- attemptResult{
					s: s, hedged: hedged, resp: resp, body: respBody, err: err,
					canceled: err != nil && errors.Is(err, context.Canceled),
				}
			}(s, hedged)
			return true
		}
		return false
	}

	relayed := false
	var retryTimer, hedgeTimer *time.Timer
	var retryC, hedgeC <-chan time.Time
	defer func() {
		if retryTimer != nil {
			retryTimer.Stop()
		}
		if hedgeTimer != nil {
			hedgeTimer.Stop()
		}
		// After a relayed winner, losers with a per-try deadline run on:
		// their natural outcome (a timeout on a blackholed shard, a slow
		// success) is real breaker evidence. Everything else — client gone,
		// or no deadline to bound the straggler — is canceled now.
		if !relayed || tryTimeout <= 0 {
			for _, cancel := range cancels {
				cancel()
			}
		}
		if inflight > 0 {
			// Reap losers off-path so their breaker verdicts (and half-open
			// probe slots) settle without delaying the response; the contexts
			// are released once every straggler has reported in.
			n, cs := inflight, cancels
			go func() {
				for i := 0; i < n; i++ {
					rt.settleVerdict(<-results)
				}
				for _, cancel := range cs {
					cancel()
				}
			}()
			return
		}
		for _, cancel := range cancels {
			cancel()
		}
	}()

	if !launch(false) {
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": "no shard admitted the request"})
		return
	}
	if hedgeDelay > 0 && next < len(cands) {
		hedgeTimer = time.NewTimer(hedgeDelay)
		hedgeC = hedgeTimer.C
	}

	retries := 0
	var lastResp *http.Response
	var lastBody []byte
	var lastErr error

	finishFailed := func() {
		if lastResp != nil {
			relay(w, lastResp, lastBody)
			return
		}
		msg := "no shard could serve the request"
		if lastErr != nil {
			msg = lastErr.Error()
		}
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": msg})
	}

	// scheduleRetry arms the backoff timer toward the next candidate, if
	// the budget allows and candidates remain. Reports whether the request
	// still has a path forward (an armed timer or an attempt in flight).
	scheduleRetry := func() bool {
		if retryC != nil || inflight > 0 {
			return true
		}
		if next >= len(cands) {
			return false
		}
		if !rt.budget.withdraw() {
			rt.met.budgetExhausted.Add(1)
			rt.opt.Logf("retry budget exhausted; relaying last answer")
			next = len(cands)
			return false
		}
		retries++
		rt.met.retries.Add(1)
		rt.met.failovers.Add(1)
		retryTimer = time.NewTimer(rt.backoff.delay(retries))
		retryC = retryTimer.C
		return true
	}

	for {
		select {
		case <-ctx.Done():
			// Client gone; the deferred cleanup cancels and reaps.
			return
		case <-retryC:
			retryC = nil
			retryTimer = nil
			if !launch(false) && inflight == 0 {
				finishFailed()
				return
			}
		case <-hedgeC:
			hedgeC = nil
			hedgeTimer = nil
			launch(true)
		case res := <-results:
			inflight--
			rt.settleVerdict(res)
			switch {
			case res.canceled:
				if ctx.Err() != nil {
					return
				}
				if inflight == 0 && retryC == nil && !scheduleRetry() {
					finishFailed()
					return
				}
			case res.err == nil && !retriable(res.resp.StatusCode):
				if res.hedged {
					rt.met.hedgeWins.Add(1)
				}
				relayed = true
				relay(w, res.resp, res.body)
				return
			default:
				if res.err != nil {
					lastErr = res.err
				} else {
					lastResp, lastBody = res.resp, res.body
				}
				if !scheduleRetry() {
					finishFailed()
					return
				}
			}
		}
	}
}

// proxySnapshot relays a whole-world snapshot without buffering it in
// router memory: candidates are tried in placement order under the repair
// deadline (snapshot transfers legitimately run long, and hedging one would
// double a whole-world stream), and the first 200 answer's body is copied
// straight through to the client. Failover is only possible before the
// first relayed byte; a mid-stream failure aborts the response, and the
// client retries (adopt validates end to end, so a torn stream is caught).
func (rt *Router) proxySnapshot(w http.ResponseWriter, r *http.Request, placement []string, body []byte) {
	cands := rt.readCandidates(placement)
	if len(cands) == 0 {
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": "no shard could serve the request"})
		return
	}
	var lastResp *http.Response
	var lastBody []byte
	var lastErr error
	attempted := false
	for i, s := range cands {
		// Same breaker policy as launch: skip denied shards unless skipping
		// would leave the request with no attempt at all (the forced try
		// doubles as the breaker probe).
		lastResort := i == len(cands)-1 && !attempted
		if !s.brk.allow() && !lastResort {
			continue
		}
		attempted = true
		actx, cancel := context.WithTimeout(r.Context(), rt.opt.RepairTimeout)
		start := time.Now()
		resp, err := rt.shardShoot(actx, r, s.addr, body)
		if err != nil {
			cancel()
			if errors.Is(err, context.Canceled) {
				return // client gone; says nothing about the shard
			}
			if errors.Is(err, context.DeadlineExceeded) {
				rt.met.shardTimeout(s.addr)
			}
			rt.met.observe(s.addr, time.Since(start), true)
			rt.settleVerdict(attemptResult{s: s, err: err})
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			cancel()
			rt.met.observe(s.addr, time.Since(start), resp.StatusCode >= 500)
			rt.settleVerdict(attemptResult{s: s, resp: resp})
			if retriable(resp.StatusCode) {
				lastResp, lastBody = resp, b
				continue
			}
			relay(w, resp, b)
			return
		}
		// 200: stream straight through. The verdict settles on the headers —
		// the shard answered; a broken transfer surfaces to the client, whose
		// adopt-side validation rejects the torn world.
		rt.met.observe(s.addr, time.Since(start), false)
		rt.settleVerdict(attemptResult{s: s, resp: resp})
		for _, h := range []string{"Content-Type", "Content-Length", snapshotCRCHeader} {
			if v := resp.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.Header().Set("X-Content-Type-Options", "nosniff")
		w.WriteHeader(http.StatusOK)
		_, cerr := io.Copy(w, resp.Body)
		resp.Body.Close()
		cancel()
		if cerr != nil {
			rt.opt.Logf("snapshot relay from %s aborted mid-stream: %v", s.addr, cerr)
		}
		return
	}
	if lastResp != nil {
		relay(w, lastResp, lastBody)
		return
	}
	msg := "no shard could serve the request"
	if lastErr != nil {
		msg = lastErr.Error()
	}
	writeJSON(w, http.StatusBadGateway, map[string]string{"error": msg})
}

// ReplicaStatus is one replica's outcome in a routed append response.
type ReplicaStatus struct {
	Addr  string `json:"addr"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// appendBody mirrors server.AppendResponse field-for-field so the router
// can decorate a primary's append answer with replica fan-out statuses
// without importing the server package.
type appendBody struct {
	Dataset  string          `json:"dataset"`
	Epoch    uint64          `json:"epoch"`
	Appended int             `json:"appended"`
	Claims   int             `json:"claims"`
	Sources  int             `json:"sources"`
	Objects  int             `json:"objects"`
	Replicas []ReplicaStatus `json:"replicas,omitempty"`
}

// proxyWrite forwards an append (or adopt) to the dataset's primary and,
// when the primary accepts an append, fans the same batch out to the
// replicas so every copy advances to the same epoch. Replica failures do
// not fail the client's request, but they are counted
// (currents_replica_append_failures_total), reported in the response's
// "replicas" field, and enqueued for the repair loop — divergence is
// observable the moment it happens, and heals without waiting for a
// rebalance.
func (rt *Router) proxyWrite(w http.ResponseWriter, r *http.Request, name, op string, placement []string, body []byte) {
	// Appends recompute truth/dependence deltas; adoptions stream whole
	// snapshots. Both get a laxer deadline than a point read.
	timeout := rt.opt.RepairTimeout
	if op == "append" && rt.opt.TryTimeout > 0 {
		timeout = 4 * rt.opt.TryTimeout
	}
	writeCtx := func() (context.Context, context.CancelFunc) {
		if timeout > 0 {
			return context.WithTimeout(r.Context(), timeout)
		}
		return context.WithCancel(r.Context())
	}

	primary := placement[0]
	ps := rt.shardFor(primary)
	ctx, cancel := writeCtx()
	resp, respBody, err := rt.shardRequest(ctx, r, primary, body)
	cancel()
	if ps != nil {
		rt.settleVerdict(attemptResult{
			s: ps, resp: resp, err: err,
			canceled: err != nil && errors.Is(err, context.Canceled),
		})
	}
	if err != nil {
		writeJSON(w, http.StatusBadGateway,
			map[string]string{"error": fmt.Sprintf("primary %s: %v", primary, err)})
		return
	}
	if op != "append" || resp.StatusCode != http.StatusOK {
		relay(w, resp, respBody)
		return
	}

	// The fan-out is conditional on the epoch the primary appended onto
	// (?expect_epoch=): a replica standing anywhere else answers 409 with its
	// epoch and applies nothing, so a repair that re-streams the primary's
	// world — this batch included — while the replica's copy of the batch is
	// in flight cannot make it land twice.
	fan := r.Clone(r.Context())
	var primaryAck appendBody
	if json.Unmarshal(respBody, &primaryAck) == nil && primaryAck.Epoch > 0 {
		q := fan.URL.Query()
		q.Set("expect_epoch", strconv.FormatUint(primaryAck.Epoch-1, 10))
		fan.URL.RawQuery = q.Encode()
	}

	// Fan out to the replicas concurrently: the client-visible cost of
	// replication is one write deadline regardless of replica count, so a
	// single hung replica cannot stack its timeout onto every append's
	// latency (failures are repaired asynchronously anyway).
	replicas := placement[1:]
	statuses := make([]ReplicaStatus, len(replicas))
	var wg sync.WaitGroup
	for i, replica := range replicas {
		rt.met.replicaAppends.Add(1)
		wg.Add(1)
		go func(i int, replica string) {
			defer wg.Done()
			rctx, rcancel := writeCtx()
			rresp, rbody, rerr := rt.shardRequest(rctx, fan, replica, body)
			rcancel()
			if rs := rt.shardFor(replica); rs != nil {
				rt.settleVerdict(attemptResult{
					s: rs, resp: rresp, err: rerr,
					canceled: rerr != nil && errors.Is(rerr, context.Canceled),
				})
			}
			st := ReplicaStatus{Addr: replica, OK: true}
			applied := rerr == nil && rresp.StatusCode == http.StatusOK
			if rerr == nil && rresp.StatusCode == http.StatusConflict {
				// Refused: a replica at or past the primary's new epoch holds
				// the batch already; one behind is what repair is for.
				var have appendBody
				applied = json.Unmarshal(rbody, &have) == nil && have.Epoch >= primaryAck.Epoch
			}
			if !applied {
				rt.met.replicaAppErrs.Add(1)
				st.OK = false
				if rerr != nil {
					st.Error = rerr.Error()
					rt.opt.Logf("append %s: replica %s: %v", name, replica, rerr)
				} else {
					st.Error = fmt.Sprintf("status %d: %s", rresp.StatusCode, strings.TrimSpace(string(rbody)))
					rt.opt.Logf("append %s: replica %s answered %d: %s",
						name, replica, rresp.StatusCode, strings.TrimSpace(string(rbody)))
				}
				rt.repair.enqueue(name, replica)
				rt.repair.wake()
			}
			statuses[i] = st
		}(i, replica)
	}
	wg.Wait()
	relayAppend(w, resp, respBody, statuses)
}

// relayAppend relays the primary's append answer with the replica fan-out
// statuses folded in. If the body is not the expected JSON shape it is
// relayed untouched.
func relayAppend(w http.ResponseWriter, resp *http.Response, body []byte, statuses []ReplicaStatus) {
	var ab appendBody
	if len(statuses) == 0 || json.Unmarshal(body, &ab) != nil {
		relay(w, resp, body)
		return
	}
	ab.Replicas = statuses
	out, err := json.Marshal(ab)
	if err != nil {
		relay(w, resp, body)
		return
	}
	relay(w, resp, append(out, '\n'))
}

// isReady reports the prober's view of a shard; unknown shards are not
// ready.
func (rt *Router) isReady(addr string) bool {
	s := rt.shardFor(addr)
	return s != nil && s.ready.Load()
}

// relay copies a shard response to the client byte-for-byte.
func relay(w http.ResponseWriter, resp *http.Response, body []byte) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(`{"error":"encoding failure"}`)
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	_, _ = w.Write(append(b, '\n'))
}
