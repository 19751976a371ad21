// Package metrics is the repo's one metrics layer: a registry of counter,
// gauge and duration-histogram families on sync/atomic, one writer for the
// Prometheus text exposition (WriteText) and one parser for reading a page
// back (ParseText). No client library, no dependencies.
//
// A Registry renders its families in registration order, so a process's
// /metrics page is laid out by the order its instrument set is declared in.
// Three kinds of family cover every series the binaries export:
//
//   - Counter, Gauge: one unlabelled atomic integer.
//   - CounterVec, HistogramVec: children keyed by one label's value, created
//     on first use and rendered sorted by that value. With takes a read lock
//     on the fast path; callers on a request path with a fixed label set
//     resolve their handles once at construction and pay no lookup at all.
//   - Collect: a family whose series live elsewhere (a registry's residency,
//     a breaker's state) and are read by a callback at scrape time, rendered
//     in the order the callback emits them.
//
// An observation is a handful of atomic adds and never allocates. To add a
// series, declare it on the process's instrument set (server/metrics.go,
// cluster/metrics.go) at the position it should appear on the page and
// record into the returned handle; nothing else needs to know about it.
package metrics

import (
	"fmt"
	"sort"
	"sync"
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

// Family is one metric family as it appears on a page — the data model the
// writer renders and the parser returns.
type Family struct {
	Name, Help string
	Kind       Kind
	// Labels names the family's labels in render order (a histogram's "le"
	// is implied and not listed); nil for an unlabelled family.
	Labels []string
	Series []Series
}

// Series is one labelled member of a family: a number, or a histogram.
type Series struct {
	LabelValues []string // aligned with Family.Labels
	Value       float64
	Hist        *HistogramValue // set for KindHistogram families only
}

// Page is a whole exposition: what a Registry gathers and ParseText reads.
type Page []Family

// Counter is an atomic integer instrument. Counters only go up; the same
// type backs gauges, which move both ways.
type Counter struct{ n atomic.Int64 }

// Gauge is a Counter whose value may also decrease.
type Gauge = Counter

// Add adds delta to the instrument.
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.n.Load() }

// Histogram is a duration histogram over fixed upper bounds (in seconds).
// Buckets are stored non-cumulatively — one observation is one bucket add
// and one sum add — and cumulated at scrape time, so a rendered histogram is
// always monotone and its +Inf bucket always equals its count.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; the last counts observations above every bound
	nanos  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
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

// Value snapshots the histogram in cumulative form.
func (h *Histogram) Value() *HistogramValue {
	v := &HistogramValue{Bounds: h.bounds, Counts: make([]int64, len(h.bounds))}
	var cum int64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		v.Counts[i] = cum
	}
	v.Count = cum + h.counts[len(h.bounds)].Load()
	v.Sum = float64(h.nanos.Load()) / 1e9
	return v
}

// vec is a family's children keyed by one label value.
type vec[T any] struct {
	mu    sync.RWMutex
	m     map[string]*T
	newFn func() *T
}

// With returns the child for a label value, creating it on first use.
func (v *vec[T]) With(value string) *T {
	v.mu.RLock()
	c, ok := v.m[value]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.m[value]; ok {
		return c
	}
	c = v.newFn()
	v.m[value] = c
	return c
}

// gather renders every child, sorted by label value.
func (v *vec[T]) gather(series func(*T) Series) []Series {
	v.mu.RLock()
	values := make([]string, 0, len(v.m))
	for value := range v.m {
		values = append(values, value)
	}
	sort.Strings(values)
	children := make([]*T, len(values))
	for i, value := range values {
		children[i] = v.m[value]
	}
	v.mu.RUnlock()
	out := make([]Series, len(values))
	for i, c := range children {
		out[i] = series(c)
		out[i].LabelValues = []string{values[i]}
	}
	return out
}

// CounterVec is a counter (or gauge) family keyed by one label.
type CounterVec struct{ vec[Counter] }

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct{ vec[Histogram] }

// Registry is an ordered set of families. Register every family before the
// first scrape races an observation; instruments themselves are safe for
// concurrent use, and registering while scraping is safe too.
type Registry struct {
	mu       sync.Mutex
	families []registered
}

type registered struct {
	Family                 // Series unset; gather fills it per scrape
	gather func() []Series // runs without the registry lock
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(kind Kind, name, help string, labels []string, gather func() []Series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		if f.Name == name {
			panic(fmt.Sprintf("metrics: family %q registered twice", name))
		}
	}
	r.families = append(r.families, registered{
		Family: Family{Name: name, Help: help, Kind: kind, Labels: labels},
		gather: gather,
	})
}

func (r *Registry) scalar(kind Kind, name, help string) *Counter {
	c := &Counter{}
	r.add(kind, name, help, nil, func() []Series { return []Series{{Value: float64(c.Load())}} })
	return c
}

// Counter registers an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter { return r.scalar(KindCounter, name, help) }

// Gauge registers an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge { return r.scalar(KindGauge, name, help) }

// CounterVec registers a counter family keyed by one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{vec[Counter]{m: map[string]*Counter{}, newFn: func() *Counter { return &Counter{} }}}
	r.add(KindCounter, name, help, []string{label}, func() []Series {
		return v.gather(func(c *Counter) Series { return Series{Value: float64(c.Load())} })
	})
	return v
}

// HistogramVec registers a duration-histogram family keyed by one label,
// with the given finite upper bounds in seconds (ascending).
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	v := &HistogramVec{vec[Histogram]{m: map[string]*Histogram{}, newFn: func() *Histogram { return newHistogram(bounds) }}}
	r.add(KindHistogram, name, help, []string{label}, func() []Series {
		return v.gather(func(h *Histogram) Series { return Series{Hist: h.Value()} })
	})
	return v
}

// Emit adds one series to a collected family; labelValues align with the
// family's label names.
type Emit func(v int64, labelValues ...string)

// Collect registers a counter or gauge family whose series are produced at
// scrape time: collect is called once per scrape and emits the family's
// series in render order. It runs outside every metrics lock, so it may
// take the locks of whatever it reads.
func (r *Registry) Collect(kind Kind, name, help string, labels []string, collect func(emit Emit)) {
	r.add(kind, name, help, labels, func() []Series {
		var out []Series
		collect(func(v int64, labelValues ...string) {
			if len(labelValues) != len(labels) {
				panic(fmt.Sprintf("metrics: %s: %d label values for %d labels", name, len(labelValues), len(labels)))
			}
			out = append(out, Series{LabelValues: labelValues, Value: float64(v)})
		})
		return out
	})
}

// Gather snapshots every family, in registration order.
func (r *Registry) Gather() Page {
	r.mu.Lock()
	families := append([]registered(nil), r.families...)
	r.mu.Unlock()
	page := make(Page, len(families))
	for i, f := range families {
		page[i] = f.Family
		page[i].Series = f.gather()
	}
	return page
}
