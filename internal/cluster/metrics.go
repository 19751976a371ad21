// The router's instrument set, declared on internal/metrics: per-shard
// request/error/timeout counters and latency histograms, failover and
// rebalance counters, and ring-state gauges read from the router at scrape
// time. The /metrics page is laid out by the registration order below. The
// shard label space is dynamic — shards join and leave at runtime via
// /admin/ring — so the per-shard handles sit in an RWMutex-guarded map with
// a read-lock fast path: one lookup per observation yields all of a shard's
// series, and a shard's four series always appear together.
package cluster

import (
	"sort"
	"sync"
	"time"

	"sourcecurrents/internal/metrics"
)

// routerLatencyBuckets are the histogram upper bounds in seconds; the
// loadgen -router report estimates per-shard percentiles from them.
var routerLatencyBuckets = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5}

// shardMetrics is one shard's proxy series.
type shardMetrics struct {
	requests *metrics.Counter
	errors   *metrics.Counter
	timeouts *metrics.Counter
	duration *metrics.Histogram
}

// routerMetrics is the router-wide instrument set.
type routerMetrics struct {
	reg *metrics.Registry

	mu       sync.RWMutex
	perShard map[string]shardMetrics
	requests *metrics.CounterVec
	errors   *metrics.CounterVec
	timeouts *metrics.CounterVec
	duration *metrics.HistogramVec

	failovers       *metrics.Counter
	retries         *metrics.Counter
	hedgesFired     *metrics.Counter
	hedgeWins       *metrics.Counter
	budgetExhausted *metrics.Counter
	breakerTrips    *metrics.Counter
	replicaAppends  *metrics.Counter
	replicaAppErrs  *metrics.Counter
	rebalanceAdopts *metrics.Counter
	rebalanceErrs   *metrics.Counter
	repairs         *metrics.Counter
	repairErrs      *metrics.Counter
	ringChanges     *metrics.Counter

	// lag is the repair loop's last anti-entropy scan: dataset -> shard ->
	// epochs behind the placement's max. Replaced wholesale per scan so a
	// healed replica's 0 is visible.
	lagMu sync.Mutex
	lag   map[string]map[string]uint64
}

// newRouterMetrics declares the router's families; shards reports the
// current shard states, sorted by address, for the ring-state gauges.
func newRouterMetrics(shards func() []*shardState) *routerMetrics {
	reg := metrics.NewRegistry()
	m := &routerMetrics{reg: reg, perShard: make(map[string]shardMetrics)}
	perShardGauge := func(name, help string, value func(*shardState) int64) {
		reg.Collect(metrics.KindGauge, name, help, []string{"shard"}, func(emit metrics.Emit) {
			for _, s := range shards() {
				emit(value(s), s.addr)
			}
		})
	}

	reg.Collect(metrics.KindGauge, "currents_router_ring_shards", "Shards on the ring, by health state.", []string{"state"},
		func(emit metrics.Emit) {
			all := shards()
			ready := 0
			for _, s := range all {
				if s.ready.Load() {
					ready++
				}
			}
			emit(int64(ready), "ready")
			emit(int64(len(all)-ready), "down")
		})
	perShardGauge("currents_router_shard_ready", "Whether each shard answered its last readiness probe (1) or not (0).",
		func(s *shardState) int64 {
			if s.ready.Load() {
				return 1
			}
			return 0
		})
	perShardGauge("currents_router_shard_datasets", "Datasets reported by each shard's last readiness probe.",
		func(s *shardState) int64 { return int64(s.datasetCount()) })
	m.ringChanges = reg.Counter("currents_router_ring_changes_total", "Ring reconfigurations accepted via /admin/ring.")
	m.failovers = reg.Counter("currents_router_failovers_total", "Reads retried on a replica after the preferred shard failed.")
	m.retries = reg.Counter("currents_router_retries_total", "Failover retries issued on the read path.")
	m.hedgesFired = reg.Counter("currents_router_hedged_requests_total", "Hedged attempts fired after HedgeDelay.")
	m.hedgeWins = reg.Counter("currents_router_hedge_wins_total", "Hedged attempts that answered first.")
	m.budgetExhausted = reg.Counter("currents_router_retry_budget_exhausted_total", "Reads that stopped failing over because the retry budget ran dry.")
	m.breakerTrips = reg.Counter("currents_router_breaker_trips_total", "Circuit breakers tripped open by consecutive failures.")
	perShardGauge("currents_router_breaker_state", "Per-shard circuit breaker state (0 closed, 1 half-open, 2 open).",
		func(s *shardState) int64 { return int64(s.brk.snapshot()) })
	m.replicaAppends = reg.Counter("currents_router_replica_appends_total", "Append batches fanned out to replicas after the primary accepted.")
	m.replicaAppErrs = reg.Counter("currents_router_replica_append_errors_total", "Replica append fan-outs that failed (replica diverges until repaired).")
	// The same counter under the name the repair drills grep for.
	reg.Collect(metrics.KindCounter, "currents_replica_append_failures_total", "Replica append fan-outs that failed; each enqueues a repair.", nil,
		func(emit metrics.Emit) { emit(m.replicaAppErrs.Load()) })
	m.repairs = reg.Counter("currents_router_repairs_total", "Lagging replicas healed by re-streaming a snapshot.")
	m.repairErrs = reg.Counter("currents_router_repair_errors_total", "Repair adoptions that failed and were re-queued with backoff.")
	reg.Collect(metrics.KindGauge, "currents_replica_lag", "Epochs a placement member trails the placement's max, from the last anti-entropy scan.",
		[]string{"dataset", "shard"}, m.collectLag)
	m.rebalanceAdopts = reg.Counter("currents_router_rebalance_adoptions_total", "Snapshot adoptions triggered by ring changes.")
	m.rebalanceErrs = reg.Counter("currents_router_rebalance_errors_total", "Rebalance adoptions that failed.")
	m.requests = reg.CounterVec("currents_router_requests_total", "Requests proxied, by shard.", "shard")
	m.errors = reg.CounterVec("currents_router_request_errors_total", "Proxied requests that failed (transport error or status >= 500), by shard.", "shard")
	m.timeouts = reg.CounterVec("currents_router_shard_timeouts_total", "Proxied attempts that hit their per-try deadline, by shard.", "shard")
	m.duration = reg.HistogramVec("currents_router_request_duration_seconds", "Proxied request latency, by shard.", "shard", routerLatencyBuckets)
	return m
}

// shardTimeout counts one per-try deadline expiry against a shard.
func (m *routerMetrics) shardTimeout(addr string) {
	m.shard(addr).timeouts.Add(1)
}

// setLag replaces the replica-lag gauge with a fresh scan.
func (m *routerMetrics) setLag(lag map[string]map[string]uint64) {
	m.lagMu.Lock()
	m.lag = lag
	m.lagMu.Unlock()
}

// collectLag emits the last scan sorted by dataset, then shard.
func (m *routerMetrics) collectLag(emit metrics.Emit) {
	m.lagMu.Lock()
	lag := m.lag
	m.lagMu.Unlock()
	datasets := make([]string, 0, len(lag))
	for ds := range lag {
		datasets = append(datasets, ds)
	}
	sort.Strings(datasets)
	for _, ds := range datasets {
		addrs := make([]string, 0, len(lag[ds]))
		for addr := range lag[ds] {
			addrs = append(addrs, addr)
		}
		sort.Strings(addrs)
		for _, addr := range addrs {
			emit(int64(lag[ds][addr]), ds, addr)
		}
	}
}

// shard returns (creating if needed) the series for one shard address.
func (m *routerMetrics) shard(addr string) shardMetrics {
	m.mu.RLock()
	sm, ok := m.perShard[addr]
	m.mu.RUnlock()
	if ok {
		return sm
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if sm, ok = m.perShard[addr]; ok {
		return sm
	}
	sm = shardMetrics{m.requests.With(addr), m.errors.With(addr), m.timeouts.With(addr), m.duration.With(addr)}
	m.perShard[addr] = sm
	return sm
}

// observe records one proxied request against a shard.
func (m *routerMetrics) observe(addr string, d time.Duration, failed bool) {
	sm := m.shard(addr)
	sm.requests.Add(1)
	if failed {
		sm.errors.Add(1)
	}
	sm.duration.Observe(d)
}
