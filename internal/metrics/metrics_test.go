package metrics

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var testBounds = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5}

// everyFamily builds a registry holding one family of each shape the
// binaries export, with state in all of them.
func everyFamily() *Registry {
	r := &Registry{}
	var inFlight, events atomic.Int64
	inFlight.Add(3)
	events.Add(1 << 40)
	r.Gauge("t_in_flight", "An unlabelled gauge.", inFlight.Load)
	r.Counter("t_events_total", "An unlabelled counter.", events.Load)
	r.Collect(KindCounter, "t_requests_total", "A counter keyed by one label.", []string{"op"}, func(emit Emit) {
		emit(1, "a")
		emit(2, "b")
		emit(7, `quo"te\d`)
	})
	s1, s2 := NewHistogram(testBounds), NewHistogram(testBounds)
	s2.Observe(200 * time.Microsecond)
	for _, d := range []time.Duration{500 * time.Microsecond, 3 * time.Millisecond, 3 * time.Second} {
		s1.Observe(d)
	}
	r.Histograms("t_duration_seconds", "A histogram keyed by one label.", []string{"shard"}, func(emit func(*Histogram, ...string)) {
		emit(s1, "s1")
		emit(s2, "s2")
	})
	r.Collect(KindGauge, "t_ring", "A gauge in emit order.", []string{"state"}, func(emit Emit) {
		emit(1, "ready")
		emit(0, "down")
	})
	r.Collect(KindGauge, "t_lag", "A gauge keyed by two labels.", []string{"dataset", "shard"}, func(emit Emit) {
		emit(0, "alpha", "s1")
		emit(2, "alpha", "s2")
	})
	r.Counter("t_alias_total", "The same instrument under a second name.", events.Load)
	return r
}

func render(t *testing.T, p Page) string {
	t.Helper()
	return string(p.Text())
}

// TestText pins the exposition: registration order between families,
// emit order inside one, integers as integers, sums and bounds as %g, +Inf
// equal to the count.
func TestText(t *testing.T) {
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
		"# TYPE t_alias_total counter\nt_alias_total 1099511627776\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("page missing %q:\n%s", want, got)
		}
	}
	if strings.Index(got, "t_in_flight") > strings.Index(got, "t_events_total") {
		t.Error("families not in registration order")
	}
}

// TestParseRoundTrip: ParseText(x.Text()) is x for every family shape,
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
	want := &HistogramValue{Bounds: testBounds, Counts: []int64{1, 1, 2, 2, 2, 2, 2}, Count: 3, Sum: 3.0035}
	if h := parsed.Histogram("t_duration_seconds", "s1"); !reflect.DeepEqual(h, want) {
		t.Errorf("Histogram(s1) = %+v, want %+v", h, want)
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
		"bare_total 4\n",
		"# TYPE c counter\nc_bucket{le=\"1\"} 3\n",
		"# TYPE a counter\nb 3\n",
	} {
		if _, err := ParseText(strings.NewReader(text)); err == nil {
			t.Errorf("ParseText(%q) accepted a malformed page", text)
		}
	}
	page, err := ParseText(strings.NewReader("# a comment\n\n# TYPE c counter\nc{a=\"x,y}\"} 4\n"))
	if err != nil || len(page) != 1 || page[0].Help != "" || page[0].Samples[0].Labels[0].Value != "x,y}" {
		t.Fatalf("comment, blank line, missing HELP, quoted delimiters: %+v, %v", page, err)
	}
}

// TestHistogramSubQuantile carries over the cases loadgen's per-shard
// report was checked against: percentiles interpolate inside the containing
// bucket, Sub yields exactly the traffic between two scrapes, and a series
// absent from the first scrape counts from zero.
func TestHistogramSubQuantile(t *testing.T) {
	r := &Registry{}
	h, h2 := NewHistogram(testBounds), NewHistogram(testBounds)
	r.Histograms("t_seconds", "", []string{"shard"}, func(emit func(*Histogram, ...string)) {
		emit(h, "s1")
		emit(h2, "s2")
	})
	scrape := func() *HistogramValue { return r.Gather().Histogram("t_seconds", "s1") }
	for i := 0; i < 100; i++ {
		h.Observe(300 * time.Microsecond)
	}
	before := scrape()
	for i := 0; i < 90; i++ {
		h.Observe(700 * time.Microsecond) // (0.0005, 0.001]
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Millisecond) // (0.005, 0.025]
	}
	d := scrape().Sub(before)
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
	if got := scrape().Sub(nil); !reflect.DeepEqual(got, scrape()) {
		t.Errorf("Sub(nil) = %+v, want the histogram itself", got)
	}
	if got := before.Sub(before).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", got)
	}
	// Everything above the top finite bound reports that bound.
	h2.Observe(10 * time.Second)
	if got := r.Gather().Histogram("t_seconds", "s2").Quantile(0.99); got != 2500*time.Millisecond {
		t.Errorf("overflow p99 = %v, want the top bound", got)
	}
}

// TestObserveDoesNotAllocate: the request path's contract.
func TestObserveDoesNotAllocate(t *testing.T) {
	h := NewHistogram(testBounds)
	if n := testing.AllocsPerRun(100, func() { h.Observe(time.Millisecond) }); n != 0 {
		t.Fatalf("Observe allocates %v times, want 0", n)
	}
}

// TestConcurrentObserveScrape is the -race test for the instruments: 8
// goroutines observe while one scrapes and parses the page back. (Label
// spaces that grow at run time belong to their owners; the router's is
// raced in internal/cluster.)
func TestConcurrentObserveScrape(t *testing.T) {
	r := &Registry{}
	var requests atomic.Int64
	h := NewHistogram(testBounds)
	r.Counter("t_requests_total", "", requests.Load)
	r.Histograms("t_duration_seconds", "", nil, func(emit func(*Histogram, ...string)) { emit(h) })
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
			page, err := ParseText(bytes.NewReader(r.Gather().Text()))
			if err != nil {
				t.Error(err)
				return
			}
			// A histogram scraped mid-observation is still self-consistent.
			if hv := page.Histogram("t_duration_seconds"); hv.Counts[len(hv.Counts)-1] > hv.Count {
				t.Errorf("cumulative bucket %d above count %d", hv.Counts[len(hv.Counts)-1], hv.Count)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < observers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perObserver; i++ {
				requests.Add(1)
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	close(stop)
	scraper.Wait()
	page := r.Gather()
	if v, _ := page.Value("t_requests_total"); v != observers*perObserver {
		t.Fatalf("counted %v requests, want %d", v, observers*perObserver)
	}
	if hv := page.Histogram("t_duration_seconds"); hv.Count != observers*perObserver {
		t.Fatalf("counted %d observations, want %d", hv.Count, observers*perObserver)
	}
}

func TestDuplicateFamilyPanics(t *testing.T) {
	r := &Registry{}
	zero := func() int64 { return 0 }
	r.Counter("t_total", "", zero)
	defer func() {
		if recover() == nil {
			t.Fatal("registering a family twice did not panic")
		}
	}()
	r.Gauge("t_total", "", zero)
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
