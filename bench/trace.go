package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public function. The spans of one
// replayed request share req; parent is the id of the next-outer depth of
// the same request (0 for the outermost).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory until the run ends. With on == false it
// still runs the wrapped call, so the same loop replayed with the tracer off
// prices the tracing itself (trace.overhead_pct).
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// do times fn as one span and returns the span's id and duration.
func (t *tracer) do(req, parent int, layer, name string, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	if !t.on {
		return 0, end.Sub(start)
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Layer: layer, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	return id, end.Sub(start)
}

// adopt makes child a child of parent after the fact: onions replay the
// inner depths first (the planner alone, then the exec that contains it),
// so an inner span exists before the span that encloses it.
func (t *tracer) adopt(child, parent int) {
	if t.on && child > 0 && child <= len(t.spans) {
		t.spans[child-1].Parent = parent
	}
}

// selfTimes returns, per span id, the span's duration minus its children's.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// medianSelfNs groups self times by "layer.name" and takes the median over
// requests.
func medianSelfNs(spans []span) map[string]float64 {
	self := selfTimes(spans)
	groups := map[string][]float64{}
	for _, s := range spans {
		key := s.Layer + "." + s.Name
		groups[key] = append(groups[key], float64(self[s.ID]))
	}
	out := make(map[string]float64, len(groups))
	for k, v := range groups {
		out[k] = median(v)
	}
	return out
}

// unattributed is what an end-to-end figure leaves over once the layers'
// self times are taken out: total = sum(parts) + unattributed, by
// construction. It may be negative when the layers, measured one at a time,
// cost more than the pipeline that overlaps them.
func unattributed(total float64, parts ...float64) float64 {
	for _, p := range parts {
		total -= p
	}
	return total
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
