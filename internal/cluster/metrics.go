// The router's instrument set, registered on internal/metrics: per-shard
// request/error/timeout counters and latency histograms, failover and
// rebalance counters, and ring-state gauges read from the router at scrape
// time. The /metrics page is laid out by the registration order below. The
// shard label space is dynamic — shards join and leave at runtime via
// /admin/ring — so the per-shard map is guarded by an RWMutex with a
// read-lock fast path.
package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sourcecurrents/internal/metrics"
)

// routerLatencyBuckets are the histogram upper bounds in seconds; the
// loadgen -router report estimates per-shard percentiles from them.
var routerLatencyBuckets = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5}

// shardMetrics is one shard's proxy instruments.
type shardMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64
	timeouts atomic.Int64
	duration *metrics.Histogram
}

// routerMetrics is the router-wide instrument set.
type routerMetrics struct {
	reg metrics.Registry

	mu       sync.RWMutex
	perShard map[string]*shardMetrics

	failovers       atomic.Int64
	retries         atomic.Int64
	hedgesFired     atomic.Int64
	hedgeWins       atomic.Int64
	budgetExhausted atomic.Int64
	breakerTrips    atomic.Int64
	replicaAppends  atomic.Int64
	replicaAppErrs  atomic.Int64
	// replicaDeltaBytes counts the delta frame bytes relayed from primaries
	// into replica appends.
	replicaDeltaBytes atomic.Int64
	rebalanceAdopts   atomic.Int64
	rebalanceErrs     atomic.Int64
	repairs           atomic.Int64
	repairErrs        atomic.Int64
	ringChanges       atomic.Int64

	// lag is the repair loop's last anti-entropy scan: dataset -> shard ->
	// epochs behind the placement's max. Replaced wholesale per scan so a
	// healed replica's 0 is visible.
	lagMu sync.Mutex
	lag   map[string]map[string]uint64
}

// newRouterMetrics builds the instrument set; shards reports the current
// shard states, sorted by address, for the ring-state gauges.
func newRouterMetrics(shards func() []*shardState) *routerMetrics {
	m := &routerMetrics{perShard: make(map[string]*shardMetrics)}
	reg, byShard := &m.reg, []string{"shard"}
	ringGauge := func(name, help string, value func(*shardState) int64) {
		reg.Collect(metrics.KindGauge, name, help, byShard, func(emit metrics.Emit) {
			for _, s := range shards() {
				emit(value(s), s.addr)
			}
		})
	}
	flag := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	perShard := func(name, help string, value func(*shardMetrics) *atomic.Int64) {
		reg.Collect(metrics.KindCounter, name, help, byShard, func(emit metrics.Emit) {
			m.eachShard(func(addr string, sm *shardMetrics) { emit(value(sm).Load(), addr) })
		})
	}

	reg.Collect(metrics.KindGauge, "currents_router_ring_shards", "Shards on the ring, by health state.", []string{"state"},
		func(emit metrics.Emit) {
			all, ready := shards(), int64(0)
			for _, s := range all {
				ready += flag(s.ready.Load())
			}
			emit(ready, "ready")
			emit(int64(len(all))-ready, "down")
		})
	ringGauge("currents_router_shard_ready", "Whether each shard answered its last readiness probe (1) or not (0).",
		func(s *shardState) int64 { return flag(s.ready.Load()) })
	ringGauge("currents_router_shard_datasets", "Datasets reported by each shard's last readiness probe.",
		func(s *shardState) int64 { return int64(s.datasetCount()) })
	reg.Counter("currents_router_ring_changes_total", "Ring reconfigurations accepted via /admin/ring.", m.ringChanges.Load)
	reg.Counter("currents_router_failovers_total", "Reads retried on a replica after the preferred shard failed.", m.failovers.Load)
	reg.Counter("currents_router_retries_total", "Failover retries issued on the read path.", m.retries.Load)
	reg.Counter("currents_router_hedged_requests_total", "Hedged attempts fired after HedgeDelay.", m.hedgesFired.Load)
	reg.Counter("currents_router_hedge_wins_total", "Hedged attempts that answered first.", m.hedgeWins.Load)
	reg.Counter("currents_router_retry_budget_exhausted_total", "Reads that stopped failing over because the retry budget ran dry.", m.budgetExhausted.Load)
	reg.Counter("currents_router_breaker_trips_total", "Circuit breakers tripped open by consecutive failures.", m.breakerTrips.Load)
	ringGauge("currents_router_breaker_state", "Per-shard circuit breaker state (0 closed, 1 half-open, 2 open).",
		func(s *shardState) int64 { return int64(s.brk.snapshot()) })
	reg.Counter("currents_router_replica_appends_total", "Append batches fanned out to replicas after the primary accepted.", m.replicaAppends.Load)
	// One counter under two names: the second is what the repair drills grep for.
	reg.Counter("currents_router_replica_append_errors_total", "Replica append fan-outs that failed (replica diverges until repaired).", m.replicaAppErrs.Load)
	reg.Counter("currents_replica_append_failures_total", "Replica append fan-outs that failed; each enqueues a repair.", m.replicaAppErrs.Load)
	reg.Counter("currents_router_replica_delta_bytes_total", "Epoch delta bytes streamed from primaries into replica appends (replicas apply the primary's solve, not their own).", m.replicaDeltaBytes.Load)
	reg.Counter("currents_router_repairs_total", "Lagging replicas healed by appending a holder's delta since their epoch.", m.repairs.Load)
	reg.Counter("currents_router_repair_errors_total", "Repairs that failed and were re-queued with backoff.", m.repairErrs.Load)
	reg.Collect(metrics.KindGauge, "currents_replica_lag", "Epochs a placement member trails the placement's max, from the last anti-entropy scan.",
		[]string{"dataset", "shard"}, m.collectLag)
	reg.Counter("currents_router_rebalance_adoptions_total", "Snapshot adoptions triggered by ring changes.", m.rebalanceAdopts.Load)
	reg.Counter("currents_router_rebalance_errors_total", "Rebalance adoptions that failed.", m.rebalanceErrs.Load)
	perShard("currents_router_requests_total", "Requests proxied, by shard.",
		func(sm *shardMetrics) *atomic.Int64 { return &sm.requests })
	perShard("currents_router_request_errors_total", "Proxied requests that failed (transport error or status >= 500), by shard.",
		func(sm *shardMetrics) *atomic.Int64 { return &sm.errors })
	perShard("currents_router_shard_timeouts_total", "Proxied attempts that hit their per-try deadline, by shard.",
		func(sm *shardMetrics) *atomic.Int64 { return &sm.timeouts })
	reg.Histograms("currents_router_request_duration_seconds", "Proxied request latency, by shard.", byShard,
		func(emit func(*metrics.Histogram, ...string)) {
			m.eachShard(func(addr string, sm *shardMetrics) { emit(sm.duration, addr) })
		})
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

// shard returns (creating if needed) the instruments for one shard address.
func (m *routerMetrics) shard(addr string) *shardMetrics {
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
	sm = &shardMetrics{duration: metrics.NewHistogram(routerLatencyBuckets)}
	m.perShard[addr] = sm
	return sm
}

// eachShard visits every shard that has instruments, sorted by address.
// visit runs under the read lock: it may only read the instruments.
func (m *routerMetrics) eachShard(visit func(addr string, sm *shardMetrics)) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	addrs := make([]string, 0, len(m.perShard))
	for addr := range m.perShard {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		visit(addr, m.perShard[addr])
	}
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
