package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"sourcecurrents/internal/metrics"
)

// TestRouterMetricsConcurrentNewShards is the -race test for the dynamic
// shard label space: new shard addresses join the per-shard series while 8
// goroutines observe and one scrapes and parses the page back.
func TestRouterMetricsConcurrentNewShards(t *testing.T) {
	m := newRouterMetrics(func() []*shardState { return nil })
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
			if _, err := metrics.ParseText(bytes.NewReader(m.reg.Gather().Text())); err != nil {
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
				// Every 100th observation introduces a shard no one has seen.
				addr := fmt.Sprintf("10.0.0.%d:9000", i%4)
				if i%100 == 0 {
					addr = fmt.Sprintf("10.0.%d.%d:9000", g, i)
				}
				m.observe(addr, time.Duration(i)*time.Microsecond, i%7 == 0)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scraper.Wait()

	page := m.reg.Gather()
	var requests float64
	var observed int64
	for _, s := range page.Family("currents_router_requests_total").Samples {
		requests += s.Value
		observed += page.Histogram("currents_router_request_duration_seconds", s.Labels[0].Value).Count
	}
	if want := observers * perObserver; requests != float64(want) || observed != int64(want) {
		t.Fatalf("counted %v requests and %d observations, want %d each", requests, observed, want)
	}
	// A shard's four series always appear together.
	if n := len(page.Family("currents_router_shard_timeouts_total").Samples); n != len(m.perShard) {
		t.Fatalf("%d timeout series for %d shards", n, len(m.perShard))
	}
}
