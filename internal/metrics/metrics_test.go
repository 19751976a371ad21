package metrics

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

var testBounds = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5}

// everyFamily builds a registry holding one family of each shape the
// binaries export, with state in all of them.
func everyFamily() *Registry {
	r := NewRegistry()
	r.Gauge("t_in_flight", "An unlabelled gauge.").Add(3)
	r.Counter("t_events_total", "An unlabelled counter.").Add(1 << 40)
	cv := r.CounterVec("t_requests_total", "A counter keyed by one label.", "op")
	cv.With("b").Add(2)
	cv.With("a").Add(1)
	cv.With(`quo"te\d`).Add(7)
	hv := r.HistogramVec("t_duration_seconds", "A histogram keyed by one label.", "shard", testBounds)
	hv.With("s2").Observe(200 * time.Microsecond)
	for _, d := range []time.Duration{500 * time.Microsecond, 3 * time.Millisecond, 3 * time.Second} {
		hv.With("s1").Observe(d)
	}
	r.Collect(KindGauge, "t_ring", "A collected gauge in emit order.", []string{"state"}, func(emit Emit) {
		emit(1, "ready")
		emit(0, "down")
	})
	r.Collect(KindGauge, "t_lag", "A collected gauge keyed by two labels.", []string{"dataset", "shard"}, func(emit Emit) {
		emit(0, "alpha", "s1")
		emit(2, "alpha", "s2")
	})
	r.Collect(KindCounter, "t_loads_total", "A collected unlabelled counter.", nil, func(emit Emit) { emit(9) })
	return r
}

func render(t *testing.T, p Page) string {
	t.Helper()
	var sb strings.Builder
	if err := p.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestWriteText pins the exposition: registration order between families,
// sorted children inside a vec, emit order inside a collected family,
// integers as integers, sums and bounds as %g, +Inf equal to the count.
func TestWriteText(t *testing.T) {
	got := render(t, everyFamily().Gather())
	for _, want := range []string{
		"# HELP t_in_flight An unlabelled gauge.\n# TYPE t_in_flight gauge\nt_in_flight 3\n",
		"t_events_total 1099511627776\n",
		"t_requests_total{op=\"a\"} 1\nt_requests_total{op=\"b\"} 2\nt_requests_total{op=\"quo\\\"te\\\\d\"} 7\n",
		"t_duration_seconds_bucket{shard=\"s1\",le=\"0.0005\"} 1\n",
		"t_duration_seconds_bucket{shard=\"s1\",le=\"2.5\"} 2\nt_duration_seconds_bucket{shard=\"s1\",le=\"+Inf\"} 3\n" +
			"t_duration_seconds_sum{shard=\"s1\"} 3.0035\nt_duration_seconds_count{shard=\"s1\"} 3\n" +
			"t_duration_seconds_bucket{shard=\"s2\",le=\"0.0005\"} 1\n",
		"t_ring{state=\"ready\"} 1\nt_ring{state=\"down\"} 0\n",
		"t_lag{dataset=\"alpha\",shard=\"s2\"} 2\n",
		"# TYPE t_loads_total counter\nt_loads_total 9\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("page missing %q:\n%s", want, got)
		}
	}
	if strings.Index(got, "t_in_flight") > strings.Index(got, "t_events_total") {
		t.Error("families not in registration order")
	}
}

// TestParseRoundTrip: ParseText(WriteText(x)) is x for every family shape,
// as data and as bytes.
func TestParseRoundTrip(t *testing.T) {
	page := everyFamily().Gather()
	text := render(t, page)
	parsed, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, page) {
		t.Fatalf("parsed page differs from the gathered one:\n got %+v\nwant %+v", parsed, page)
	}
	if again := render(t, parsed); again != text {
		t.Fatalf("re-rendered page differs:\n%s\n--- want ---\n%s", again, text)
	}

	if v, ok := parsed.Value("t_requests_total", "b"); !ok || v != 2 {
		t.Errorf("Value(t_requests_total, b) = %v, %v", v, ok)
	}
	if v, ok := parsed.Value("t_lag", "alpha", "s2"); !ok || v != 2 {
		t.Errorf("Value(t_lag, alpha, s2) = %v, %v", v, ok)
	}
	if _, ok := parsed.Value("t_requests_total", "nosuch"); ok {
		t.Error("Value found a series that is not on the page")
	}
	if h := parsed.Histogram("t_duration_seconds", "s1"); h == nil || h.Count != 3 || h.Counts[2] != 2 {
		t.Errorf("Histogram(s1) = %+v", h)
	}
	if parsed.Histogram("t_duration_seconds", "s9") != nil || parsed.Histogram("nosuch") != nil {
		t.Error("Histogram found a series that is not on the page")
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	for _, text := range []string{
		"novalue\n",
		"x{a=\"1\" 3\n",
		"x{a=1} 3\n",
		"x notanumber\n",
		"# TYPE h histogram\nh_bucket{shard=\"a\"} 3\n",
		"# TYPE h histogram\nh 3\n",
	} {
		if _, err := ParseText(strings.NewReader(text)); err == nil {
			t.Errorf("ParseText(%q) accepted a malformed page", text)
		}
	}
	page, err := ParseText(strings.NewReader("# a comment\n\nbare_total 4\n"))
	if err != nil || len(page) != 1 || page[0].Kind != "untyped" || page[0].Series[0].Value != 4 {
		t.Fatalf("untyped sample: %+v, %v", page, err)
	}
}

// TestHistogramSubQuantile carries over the cases loadgen's per-shard
// report was checked against: percentiles interpolate inside the containing
// bucket, Sub yields exactly the traffic between two scrapes, and a series
// absent from the first scrape counts from zero.
func TestHistogramSubQuantile(t *testing.T) {
	h := newHistogram(testBounds)
	for i := 0; i < 100; i++ {
		h.Observe(300 * time.Microsecond)
	}
	before := h.Value()
	for i := 0; i < 90; i++ {
		h.Observe(700 * time.Microsecond) // (0.0005, 0.001]
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Millisecond) // (0.005, 0.025]
	}
	d := h.Value().Sub(before)
	if d.Count != 100 || d.Counts[0] != 0 || d.Counts[1] != 90 || d.Counts[3] != 100 {
		t.Fatalf("delta = %+v", d)
	}
	if got := d.Sum; got < 0.1629 || got > 0.1631 {
		t.Fatalf("delta sum = %v, want 0.163", got)
	}
	// p50: target 50 of 90 in (0.0005, 0.001] -> 0.0005 + 0.0005*50/90.
	// p99: target 99 lands in (0.005, 0.025] at 9/10 of the span.
	for _, q := range []struct {
		p    float64
		want time.Duration
	}{{0.50, 777778 * time.Nanosecond}, {0.99, 23 * time.Millisecond}} {
		if got := d.Quantile(q.p); got < q.want-time.Microsecond || got > q.want+time.Microsecond {
			t.Errorf("p%v = %v, want %v", 100*q.p, got, q.want)
		}
	}
	if got := h.Value().Sub(nil); !reflect.DeepEqual(got, h.Value()) {
		t.Errorf("Sub(nil) = %+v, want the histogram itself", got)
	}
	if got := (&HistogramValue{Bounds: testBounds, Counts: make([]int64, len(testBounds))}).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", got)
	}
	// Everything above the top finite bound reports that bound.
	over := newHistogram(testBounds)
	over.Observe(10 * time.Second)
	if got := over.Value().Quantile(0.99); got != 2500*time.Millisecond {
		t.Errorf("overflow p99 = %v, want the top bound", got)
	}
}

// TestObserveDoesNotAllocate: the request path's contract.
func TestObserveDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("t_total", "", "op").With("answer")
	hv := r.HistogramVec("t_seconds", "", "shard", testBounds)
	hv.With("s1")
	if n := testing.AllocsPerRun(100, func() {
		c.Add(1)
		hv.With("s1").Observe(time.Millisecond)
	}); n != 0 {
		t.Fatalf("observation allocates %v times, want 0", n)
	}
}

// TestConcurrentRegisterObserveScrape is the -race test: new label values
// join a vec while 8 goroutines observe and one scrapes.
func TestConcurrentRegisterObserveScrape(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("t_requests_total", "", "shard")
	hv := r.HistogramVec("t_duration_seconds", "", "shard", testBounds)
	const observers, perObserver = 8, 2000
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			if err := r.Gather().WriteText(&sb); err != nil {
				t.Error(err)
				return
			}
			if _, err := ParseText(strings.NewReader(sb.String())); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < observers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perObserver; i++ {
				// Every 100th observation introduces a label no one has used.
				shard := fmt.Sprintf("s%d", i%4)
				if i%100 == 0 {
					shard = fmt.Sprintf("new-%d-%d", g, i)
				}
				cv.With(shard).Add(1)
				hv.With(shard).Observe(time.Duration(i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scraper.Wait()

	var requests float64
	var observed int64
	page := r.Gather()
	for _, s := range page.Family("t_requests_total").Series {
		requests += s.Value
	}
	for _, s := range page.Family("t_duration_seconds").Series {
		observed += s.Hist.Count
	}
	if requests != observers*perObserver || observed != observers*perObserver {
		t.Fatalf("counted %v requests and %d observations, want %d each", requests, observed, observers*perObserver)
	}
}

func TestDuplicateFamilyPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a family twice did not panic")
		}
	}()
	r.Gauge("t_total", "")
}

// TestGoldenPagesRoundTrip re-renders the server's and router's checked-in
// /metrics goldens through ParseText: the parser loses nothing the writer
// needs, on the real pages.
func TestGoldenPagesRoundTrip(t *testing.T) {
	for _, path := range []string{
		"../server/testdata/metrics_cache.golden",
		"../server/testdata/metrics_nocache.golden",
		"../cluster/testdata/router_metrics.golden",
	} {
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		page, err := ParseText(bytes.NewReader(golden))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got := render(t, page); got != string(golden) {
			t.Errorf("%s: re-rendered page differs:\n%s", path, got)
		}
	}
}
