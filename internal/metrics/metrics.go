// Package metrics is the repo's one metrics layer: an ordered registry of
// counter, gauge and duration-histogram families, one writer for the
// Prometheus text exposition (Page.Text) and one parser for reading a
// page back (ParseText). No client library, no dependencies.
//
// Instruments belong to the code that records into them: a counter or gauge
// is a sync/atomic integer in the owner's struct, a histogram is a
// *Histogram, and an observation is a few atomic adds that never allocate
// or touch the registry. The registry holds only how to read them at scrape
// time — a func() int64 for an unlabelled family, a callback that emits one
// sample per label value for a labelled one — which is also how values that
// live elsewhere (a registry's residency, a breaker's state) get on the
// page. Families render in registration order, samples in emit order.
//
// To add a series, add the instrument to the process's instrument set
// (server/metrics.go, cluster/metrics.go) and register it where it should
// appear on the page.
package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Kind is a family's Prometheus type.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Page is a whole exposition — what a Registry gathers, Text renders
// and ParseText reads back.
type Page []Family

// Family is one metric family: its header and its sample lines in order.
type Family struct {
	Name, Help string
	Kind       Kind
	Samples    []Sample
}

// Sample is one line of a page. Name is the family's name plus, inside a
// histogram, one of _bucket / _sum / _count; a bucket's last label is le.
type Sample struct {
	Name   string
	Labels []Label // in render order; nil when unlabelled
	Value  float64
}

// Label is one name="value" pair.
type Label struct{ Name, Value string }

// Histogram is a duration histogram over fixed upper bounds (in seconds).
// Buckets are stored non-cumulatively — one observation is one bucket add
// and one sum add — and cumulated at scrape time, so a rendered histogram is
// always monotone and its +Inf bucket always equals its count.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; the last counts observations above every bound
	nanos  atomic.Int64
}

// NewHistogram returns a histogram with the given finite upper bounds in
// seconds (ascending).
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	secs := d.Seconds()
	i := 0
	for i < len(h.bounds) && secs > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.nanos.Add(int64(d))
}

// samples renders the histogram's bucket, sum and count lines.
func (h *Histogram) samples(name string, labels []Label) []Sample {
	bucket := func(le string, cum int64) Sample {
		return Sample{name + "_bucket", append(labels[:len(labels):len(labels)], Label{"le", le}), float64(cum)}
	}
	out := make([]Sample, 0, len(h.bounds)+3)
	var cum int64
	for i, le := range h.bounds {
		cum += h.counts[i].Load()
		out = append(out, bucket(formatFloat(le), cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	return append(out, bucket("+Inf", cum),
		Sample{name + "_sum", labels, float64(h.nanos.Load()) / 1e9},
		Sample{name + "_count", labels, float64(cum)})
}

// Registry is an ordered set of families. Register every family before the
// first scrape (instrument sets do, in their constructors); Gather is safe
// for concurrent use from then on.
type Registry struct {
	families []Family          // Samples unset; gather fills them per scrape
	gather   []func() []Sample // aligned with families
}

func (r *Registry) add(kind Kind, name, help string, gather func() []Sample) {
	for _, f := range r.families {
		if f.Name == name {
			panic(fmt.Sprintf("metrics: family %q registered twice", name))
		}
	}
	r.families = append(r.families, Family{Name: name, Help: help, Kind: kind})
	r.gather = append(r.gather, gather)
}

// zip pairs a family's label names with one sample's values.
func zip(family string, names, values []string) []Label {
	if len(values) != len(names) {
		panic(fmt.Sprintf("metrics: %s: %d label values for %d labels", family, len(values), len(names)))
	}
	var labels []Label
	for i, value := range values {
		labels = append(labels, Label{names[i], value})
	}
	return labels
}

// Counter registers an unlabelled counter read through value — typically an
// atomic.Int64's Load. One instrument may be registered under two names.
func (r *Registry) Counter(name, help string, value func() int64) {
	r.Collect(KindCounter, name, help, nil, func(emit Emit) { emit(value()) })
}

// Gauge registers an unlabelled gauge read through value.
func (r *Registry) Gauge(name, help string, value func() int64) {
	r.Collect(KindGauge, name, help, nil, func(emit Emit) { emit(value()) })
}

// Emit adds one sample to a family being collected; labelValues align with
// the family's label names.
type Emit func(v int64, labelValues ...string)

// Collect registers a counter or gauge family keyed by labels: collect runs
// once per scrape and emits the family's samples in render order.
func (r *Registry) Collect(kind Kind, name, help string, labels []string, collect func(emit Emit)) {
	r.add(kind, name, help, func() []Sample {
		var out []Sample
		collect(func(v int64, labelValues ...string) {
			out = append(out, Sample{name, zip(name, labels, labelValues), float64(v)})
		})
		return out
	})
}

// Histograms registers a histogram family keyed by labels: collect runs
// once per scrape and emits each labelled histogram in render order.
func (r *Registry) Histograms(name, help string, labels []string, collect func(emit func(h *Histogram, labelValues ...string))) {
	r.add(KindHistogram, name, help, func() []Sample {
		var out []Sample
		collect(func(h *Histogram, labelValues ...string) {
			out = append(out, h.samples(name, zip(name, labels, labelValues))...)
		})
		return out
	})
}

// Gather snapshots every family, in registration order.
func (r *Registry) Gather() Page {
	page := append(Page(nil), r.families...)
	for i := range page {
		page[i].Samples = r.gather[i]()
	}
	return page
}
