// The server's instrument set, declared on internal/metrics. The /metrics
// page is laid out by registration order: the request series here, then the
// answer cache's (cache.go), then the registry's residency and per-dataset
// series at the bottom of this file.
package server

import (
	"time"

	"sourcecurrents/internal/metrics"
)

// ops is the fixed label set; one opMetrics per entry. "other" counts
// requests that matched no dataset/operation (404 traffic must still be
// visible to an operator watching /metrics).
var ops = []string{"accuracy", "adopt", "answer", "append", "fuse", "healthz", "history", "link", "metrics", "other", "readyz", "recommend", "snapshot", "trajectory"}

// latencyBuckets are the histogram upper bounds in seconds.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5}

// opMetrics is one operation's handles, resolved once at construction so the
// request path never looks a label up.
type opMetrics struct {
	requests *metrics.Counter
	errors   *metrics.Counter
	duration *metrics.Histogram
}

// requestMetrics is the request-path instrument set.
type requestMetrics struct {
	inFlight  *metrics.Gauge
	coalesced *metrics.Counter
	// historical counts requests that resolved an ?as_of= epoch rather
	// than serving the current one.
	historical *metrics.Counter
	perOp      map[string]opMetrics // read-only after construction
}

func newRequestMetrics(reg *metrics.Registry) *requestMetrics {
	m := &requestMetrics{
		inFlight:   reg.Gauge("currents_in_flight", "Requests currently being served."),
		coalesced:  reg.Counter("currents_answer_coalesced_total", "Answer requests served by joining an identical in-flight request."),
		historical: reg.Counter("currents_historical_requests_total", "Requests served against a retained (as_of) epoch rather than the current one."),
		perOp:      make(map[string]opMetrics, len(ops)),
	}
	requests := reg.CounterVec("currents_requests_total", "Requests served, by operation.", "op")
	errors := reg.CounterVec("currents_request_errors_total", "Requests answered with status >= 400, by operation.", "op")
	duration := reg.HistogramVec("currents_request_duration_seconds", "Request latency, by operation.", "op", latencyBuckets)
	for _, op := range ops {
		m.perOp[op] = opMetrics{requests.With(op), errors.With(op), duration.With(op)}
	}
	return m
}

// observe records one finished request.
func (m *requestMetrics) observe(op string, d time.Duration, status int) {
	om, ok := m.perOp[op]
	if !ok {
		return
	}
	om.requests.Add(1)
	if status >= 400 {
		om.errors.Add(1)
	}
	om.duration.Observe(d)
}

// registerRegistryMetrics declares the series read from the dataset
// registry at scrape time: the lazy-registry gauges an operator watches to
// size -max-resident, and the per-dataset lifecycle series.
func registerRegistryMetrics(reg *metrics.Registry, datasets *Registry) {
	for _, f := range []struct {
		kind       metrics.Kind
		name, help string
		value      func(ResidencyStats) int64
	}{
		{metrics.KindGauge, "currents_datasets_resident", "Sessions currently loaded in memory.",
			func(rs ResidencyStats) int64 { return int64(rs.Resident) }},
		{metrics.KindGauge, "currents_mapped_bytes", "Bytes of snapshot files currently memory-mapped.",
			func(rs ResidencyStats) int64 { return rs.MappedBytes }},
		{metrics.KindCounter, "currents_world_loads_total", "Lazy session loads since server start.",
			func(rs ResidencyStats) int64 { return rs.Loads }},
		{metrics.KindCounter, "currents_world_evictions_total", "Sessions evicted under the resident bound since server start.",
			func(rs ResidencyStats) int64 { return rs.Evictions }},
	} {
		f := f
		reg.Collect(f.kind, f.name, f.help, nil, func(emit metrics.Emit) { emit(f.value(datasets.Residency())) })
	}
	for _, f := range []struct {
		kind       metrics.Kind
		name, help string
		value      func(DatasetStat) int64
	}{
		{metrics.KindGauge, "currents_dataset_epoch", "Serving epoch of each dataset (increments on every swap).",
			func(st DatasetStat) int64 { return int64(st.Epoch) }},
		{metrics.KindCounter, "currents_dataset_swaps_total", "Session swaps per dataset since server start.",
			func(st DatasetStat) int64 { return st.Swaps }},
		{metrics.KindCounter, "currents_dataset_appends_total", "Accepted append batches per dataset since server start.",
			func(st DatasetStat) int64 { return st.Appends }},
		{metrics.KindGauge, "currents_dataset_resident", "Whether each dataset's session is currently loaded (1) or lazy/evicted (0).",
			func(st DatasetStat) int64 {
				if st.Resident {
					return 1
				}
				return 0
			}},
		{metrics.KindGauge, "currents_retained_epochs", "Historical epochs addressable behind the current one, per dataset.",
			func(st DatasetStat) int64 { return int64(st.RetainedEpochs) }},
		{metrics.KindCounter, "currents_asof_materializations_total", "Historical sessions rebuilt on demand for as_of queries, per dataset.",
			func(st DatasetStat) int64 { return st.AsOfMaterializations }},
	} {
		f := f
		reg.Collect(f.kind, f.name, f.help, []string{"dataset"}, func(emit metrics.Emit) {
			for _, st := range datasets.Stats() {
				emit(f.value(st), st.Name)
			}
		})
	}
}
