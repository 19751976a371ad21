package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// These tests cover the harness's own arithmetic. They open no socket and
// start no process, so they stay far under two seconds.

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {120, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {1200, 99}, {9999, 99}, {10000, 99.9}, {150000, 99.9},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 99.9: 100, 100: 100, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile([]float64{7, 8, 9}, 90); got != 9 {
		t.Errorf("p90 of three samples = %v, want the largest", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestReadSlicesAndBestDecile(t *testing.T) {
	// Twenty seconds at 1 ms a read. Two clients finish a read every 5 ms
	// between them, except that seconds 3 to 16 are a noisy spell: a read
	// every 10 ms, 3 ms each. 2600 reads make twenty slices of 130: the median
	// slice is a noisy one, the best decile is not.
	var samples []sample
	for ms := 20000 - 5; ms >= 0; ms -= 5 { // out of order, as merged clients are
		lat := time.Millisecond
		if ms >= 3000 && ms < 17000 {
			if ms%10 != 0 {
				continue
			}
			lat = 3 * time.Millisecond
		}
		samples = append(samples, sample{done: time.Duration(ms+5) * time.Millisecond, lat: lat})
	}
	rps, p50, p95 := readSlices(samples, 20, 1)
	if len(rps) != 20 || len(p50) != 20 || len(p95) != 20 {
		t.Fatalf("%d slices, want twenty", len(rps))
	}
	if !near(rps[0], 200) || !near(rps[10], 100) || p50[10] != 3 || p95[19] != 1 {
		t.Errorf("slices: rps %v p50 %v p95 %v", rps, p50, p95)
	}
	if got := median(rps); got > 150 {
		t.Errorf("median slice rate = %v, want a noisy slice's", got)
	}
	if got := bestDecile(rps, true); !near(got, 200) {
		t.Errorf("best-decile rate = %v, want 200", got)
	}
	if got := bestDecile(p50, false); got != 1 {
		t.Errorf("best-decile p50 = %v, want 1", got)
	}
	// The third best of twenty, not the best: one lucky slice does not count.
	rps[3], rps[4] = 900, 800
	if got := bestDecile(rps, true); !near(got, 200) {
		t.Errorf("best-decile rate with two flukes = %v, want 200", got)
	}
	// Too few reads for twenty slices of a hundred: 380 reads make three of
	// 126, and the last two reads are left out.
	var sparse []sample
	for i := 1; i <= 380; i++ {
		sparse = append(sparse, sample{done: time.Duration(i) * 50 * time.Millisecond, lat: time.Millisecond})
	}
	if rps, _, _ = readSlices(sparse, 20, 1); len(rps) != 3 || !near(rps[2], 20) {
		t.Errorf("380 reads: slices %v, want three at 20/s", rps)
	}
	// A periodic stream is cut at whole periods: 1000 reads, period 384, make
	// two slices of 384, and a stall between two reads counts against the
	// slice it falls in.
	var mixed []sample
	at := time.Duration(0)
	for i := 0; i < 1000; i++ {
		at += time.Millisecond
		if i == 400 {
			at += 616 * time.Millisecond
		}
		mixed = append(mixed, sample{done: at, lat: time.Millisecond})
	}
	if rps, _, _ = readSlices(mixed, 20, 384); len(rps) != 2 || !near(rps[0], 1000) || !near(rps[1], 384) {
		t.Errorf("periodic stream: slices %v, want 1000/s then 384/s", rps)
	}
	if rps, _, _ = readSlices(nil, 20, 1); rps != nil || bestDecile(rps, true) != 0 {
		t.Errorf("no reads: %v", rps)
	}
	if got := bestDecile([]float64{3, 1, 2}, false); got != 1 {
		t.Errorf("best of three (lower is better) = %v, want 1", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if !near(q1, 1) || !near(q2, 2) || !near(q3, 3) {
		t.Errorf("quartiles(1,2,3) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if !near(q1, 0.75) || !near(q2, 1.5) || !near(q3, 2.25) {
		t.Errorf("quartiles(1,2) = %v %v %v", q1, q2, q3)
	}
	if got := relativeSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(got, 1) {
		t.Errorf("relative spread of 1..10 = %v, want 5.5/5.5", got)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	at := func(id, parent, req int, layer, name string, start, end int64) span {
		return span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name, StartNs: start, EndNs: end}
	}
	// Request 1, replayed inner depth first: handler 20, HTTP 70, routed
	// 100. Request 2: a session append of 100 with two children, 10 and 70.
	spans := []span{
		at(1, 2, 1, "server", "handler_hit", 0, 20),
		at(2, 3, 1, "server", "http_hit", 100, 170),
		at(3, 0, 1, "cluster", "routed_hit", 200, 300),
		at(4, 6, 2, "dataset", "append", 0, 10),
		at(5, 6, 2, "depen", "refine", 20, 90),
		at(6, 0, 2, "session", "append", 100, 200),
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 20, 2: 50, 3: 30, 4: 10, 5: 70, 6: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	// The layers explain 100 of an end-to-end 150: the gap is the other 50,
	// and the parts plus the gap are the whole by construction.
	gap := unattributed(150, 20, 50, 30)
	if gap != 50 || 20+50+30+gap != 150 {
		t.Errorf("unattributed gap = %v, want 50", gap)
	}
	// Layers measured one at a time can cost more than the pipeline.
	if gap := unattributed(90, 20, 50, 30); gap != -10 {
		t.Errorf("gap = %v, want -10", gap)
	}
	// Median over requests, per layer.name.
	spans = append(spans,
		at(7, 8, 3, "server", "handler_hit", 0, 40),
		at(8, 0, 3, "server", "http_hit", 0, 100),
		at(9, 10, 4, "server", "handler_hit", 0, 30),
		at(10, 0, 4, "server", "http_hit", 0, 100),
	)
	med := medianSelfNs(spans)
	if med["server.handler_hit"] != 30 || med["server.http_hit"] != 60 {
		t.Errorf("median self times = %v", med)
	}
}

func TestTracerOffStillRunsAndAdoptLinks(t *testing.T) {
	ran := 0
	off := newTracer(false)
	if id, _ := off.do(1, 0, "l", "n", func() { ran++ }); id != 0 || ran != 1 || len(off.spans) != 0 {
		t.Errorf("tracer off: id %d, ran %d, %d spans", id, ran, len(off.spans))
	}
	on := newTracer(true)
	inner, _ := on.do(1, 0, "queryans", "plan", func() {})
	outer, _ := on.do(1, 0, "server", "exec", func() {})
	on.adopt(inner, outer)
	if on.spans[inner-1].Parent != outer || on.spans[outer-1].Parent != 0 {
		t.Errorf("adopt did not link %d under %d: %+v", inner, outer, on.spans)
	}
	if s := on.spans[0]; s.EndNs < s.StartNs || s.Req != 1 {
		t.Errorf("bad span %+v", s)
	}
}

func TestPromDelta(t *testing.T) {
	start := parseProm(`# HELP currents_answer_cache_hits_total hits
# TYPE currents_answer_cache_hits_total counter
currents_answer_cache_hits_total 10
currents_answer_cache_misses_total 5
currents_requests_total{op="answer"} 15
currents_requests_total{op="append"} 1
currents_request_duration_seconds_sum{op="answer"} 0.5
garbage line without a number x
`)
	end := parseProm(`currents_answer_cache_hits_total 1010
currents_answer_cache_misses_total 15
currents_requests_total{op="answer"} 1025
currents_requests_total{op="append"} 4
currents_request_duration_seconds_sum{op="answer"} 1.5
currents_router_requests_total{shard="127.0.0.1:9001"} 7
`)
	d := end.delta(start)
	if d["currents_answer_cache_hits_total"] != 1000 || d["currents_answer_cache_misses_total"] != 10 {
		t.Errorf("cache deltas = %v", d)
	}
	if got := ratio(d["currents_answer_cache_hits_total"], d["currents_answer_cache_hits_total"]+d["currents_answer_cache_misses_total"]); !near(got, 1000.0/1010) {
		t.Errorf("hit ratio = %v", got)
	}
	if got := d.sum("currents_requests_total"); got != 1013 {
		t.Errorf("sum over op labels = %v, want 1013", got)
	}
	if got := d[`currents_router_requests_total{shard="127.0.0.1:9001"}`]; got != 7 {
		t.Errorf("a series absent at the start counts from zero, got %v", got)
	}
	if _, ok := start["garbage line without a number"]; ok {
		t.Error("an unreadable line became a series")
	}
	two := promSample{}
	two.add(d)
	two.add(d)
	if two["currents_answer_cache_hits_total"] != 2000 {
		t.Errorf("adding two shards' scrapes = %v", two["currents_answer_cache_hits_total"])
	}
	if ratio(1, 0) != 0 {
		t.Error("ratio over zero must read 0, not NaN or Inf")
	}
}

// inputHashes generates every workload's inputs at quick size and returns
// their fingerprints.
func inputHashes(t *testing.T, seed int64) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, wd := range workloads {
		r := newRun(nil, wd.Name, seed, quickParams())
		in, err := r.genInputs(r.p.fleetPlan(wd.Name))
		if err != nil {
			t.Fatal(err)
		}
		out[wd.Name] = in.hash()
	}
	return out
}

func TestSameSeedSameStreams(t *testing.T) {
	a, b, c := inputHashes(t, 7), inputHashes(t, 7), inputHashes(t, 8)
	for _, wd := range workloads {
		if a[wd.Name] == "" || a[wd.Name] != b[wd.Name] {
			t.Errorf("%s: same seed gave %q then %q", wd.Name, a[wd.Name], b[wd.Name])
		}
		if a[wd.Name] == c[wd.Name] {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", wd.Name)
		}
	}
}

func TestBatchSchedule(t *testing.T) {
	w, err := genWorld(midWorld.quickened(), 3)
	if err != nil {
		t.Fatal(err)
	}
	r := newRun(nil, "ingest_mixed", 3, quickParams())
	batches, err := genBatches(w, r.rng("t"), 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	sources := w.spec.sources + w.spec.sources/10
	for i, b := range batches {
		srcs, objs := map[string]bool{}, map[string]bool{}
		for _, c := range b.claims {
			srcs[string(c.Source)] = true
			objs[c.Object.Entity] = true
		}
		if i%3 == 2 {
			if b.shape != objMajor || len(objs) != 1 || len(srcs) != sources {
				t.Errorf("batch %d: shape %s, %d objects, %d sources; want one held-out object from all %d", i, b.shape, len(objs), len(srcs), sources)
			}
			continue
		}
		if b.shape != srcMajor || len(srcs) > 4 || len(objs) < 2*len(srcs) {
			t.Errorf("batch %d: shape %s, %d sources, %d objects; want few sources, many objects", i, b.shape, len(srcs), len(objs))
		}
	}
	if _, err := genBatches(w, r.rng("t"), 3*heldOutObjects+3, 3); err == nil {
		t.Error("a schedule longer than the held-out objects allow must be refused, not wrapped")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractInSync holds BENCHMARK.json to the harness's own tables and
// to the limits the driver enforces before it runs anything.
func TestContractInSync(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got contract
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if want := theContract(got.RunSeconds); !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from the harness's tables; regenerate with `bash bench/run.sh -contract > BENCHMARK.json`")
	}
	if len(raw) > 64<<10 || got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("file is %d bytes, run_seconds %d", len(raw), got.RunSeconds)
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(got.EndToEnd) > 16 || len(got.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(got.EndToEnd), len(got.PerLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range got.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range got.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing")
	}
	for _, m := range got.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
}
