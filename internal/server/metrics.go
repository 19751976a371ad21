// The server's instrument set, registered on internal/metrics. The /metrics
// page is laid out by registration order: the request series here, then the
// answer cache's (cache.go), then the registry's per-dataset series at the
// bottom of this file.
package server

import (
	"sync/atomic"
	"time"

	"sourcecurrents/internal/metrics"
)

// ops is the fixed label set, sorted (the page lists operations in this
// order); one opMetrics per entry. "other" counts requests that matched no
// dataset/operation (404 traffic must still be visible to an operator
// watching /metrics).
var ops = []string{"accuracy", "adopt", "answer", "append", "delta", "fuse", "healthz", "history", "link", "metrics", "other", "readyz", "recommend", "snapshot", "trajectory"}

// latencyBuckets are the histogram upper bounds in seconds.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5}

// opMetrics is one operation's instruments.
type opMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64
	duration *metrics.Histogram
}

// requestMetrics is the request-path instrument set.
type requestMetrics struct {
	inFlight  atomic.Int64
	coalesced atomic.Int64
	// historical counts requests that resolved an ?as_of= epoch rather
	// than serving the current one.
	historical atomic.Int64
	perOp      map[string]*opMetrics // fixed at construction: no lock on the request path
}

func newRequestMetrics(reg *metrics.Registry) *requestMetrics {
	m := &requestMetrics{perOp: make(map[string]*opMetrics, len(ops))}
	for _, op := range ops {
		m.perOp[op] = &opMetrics{duration: metrics.NewHistogram(latencyBuckets)}
	}
	reg.Gauge("currents_in_flight", "Requests currently being served.", m.inFlight.Load)
	reg.Counter("currents_answer_coalesced_total", "Answer requests served by joining an identical in-flight request.", m.coalesced.Load)
	reg.Counter("currents_historical_requests_total", "Requests served against a retained (as_of) epoch rather than the current one.", m.historical.Load)
	byOp := []string{"op"}
	reg.Collect(metrics.KindCounter, "currents_requests_total", "Requests served, by operation.", byOp, func(emit metrics.Emit) {
		for _, op := range ops {
			emit(m.perOp[op].requests.Load(), op)
		}
	})
	reg.Collect(metrics.KindCounter, "currents_request_errors_total", "Requests answered with status >= 400, by operation.", byOp, func(emit metrics.Emit) {
		for _, op := range ops {
			emit(m.perOp[op].errors.Load(), op)
		}
	})
	reg.Histograms("currents_request_duration_seconds", "Request latency, by operation.", byOp, func(emit func(*metrics.Histogram, ...string)) {
		for _, op := range ops {
			emit(m.perOp[op].duration, op)
		}
	})
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

// registerRegistryMetrics registers the series read from the dataset
// registry at scrape time: the per-dataset lifecycle series.
func registerRegistryMetrics(reg *metrics.Registry, datasets *Registry) {
	perDataset := func(kind metrics.Kind, name, help string, value func(DatasetStat) int64) {
		reg.Collect(kind, name, help, []string{"dataset"}, func(emit metrics.Emit) {
			for _, st := range datasets.Stats() { // sorted by name
				emit(value(st), st.Name)
			}
		})
	}
	perDataset(metrics.KindGauge, "currents_dataset_epoch", "Serving epoch of each dataset: the number of batches its dataset has absorbed.",
		func(st DatasetStat) int64 { return int64(st.Epoch) })
	perDataset(metrics.KindCounter, "currents_dataset_swaps_total", "Session swaps per dataset since server start.",
		func(st DatasetStat) int64 { return st.Swaps })
	perDataset(metrics.KindCounter, "currents_dataset_appends_total", "Accepted append batches per dataset since server start.",
		func(st DatasetStat) int64 { return st.Appends })
	perDataset(metrics.KindCounter, "currents_dataset_delta_appends_total", "Accepted append batches per dataset applied from a primary's epoch delta instead of solved.",
		func(st DatasetStat) int64 { return st.DeltaAppends })
	perDataset(metrics.KindGauge, "currents_retained_epochs", "Historical epochs addressable behind the current one, per dataset.",
		func(st DatasetStat) int64 { return int64(st.RetainedEpochs) })
	perDataset(metrics.KindCounter, "currents_asof_materializations_total", "Historical sessions rebuilt on demand for as_of queries, per dataset.",
		func(st DatasetStat) int64 { return st.AsOfMaterializations })
}
