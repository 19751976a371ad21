package main

import (
	"fmt"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// sample is one completed request: when it finished, as an offset from the
// phase start, and how long the caller waited for it.
type sample struct {
	done time.Duration
	lat  time.Duration
}

// tally is what one client saw.
type tally struct {
	samples   []sample
	attempted int64
	failed    int64
	firstErr  error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o *tally) {
	t.samples = append(t.samples, o.samples...)
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// request is one read the generator sends; check judges the reply's body.
// A non-2xx status, a transport error or a timeout fails without it.
type request struct {
	url   string
	body  []byte
	check func(body []byte) error
}

// closedLoop sends next(i) for i = 0, 1, … on one connection, each only
// after the previous reply: the callers this system has (integration
// pipelines) wait for an answer before asking again, so a slower program is
// offered less load. It stops at the deadline, or when next runs out.
func closedLoop(c *conn, start time.Time, until time.Time, next func(i int) (request, bool)) *tally {
	t := &tally{}
	for i := 0; time.Now().Before(until); i++ {
		req, ok := next(i)
		if !ok {
			break
		}
		t.attempted++
		sent := time.Now()
		status, body, err := c.post(req.url, req.body)
		now := time.Now()
		switch {
		case err != nil:
			t.fail(err)
			continue
		case status != http.StatusOK:
			t.fail(fmt.Errorf("POST %s: status %d: %.200s", req.url, status, body))
			continue
		}
		if req.check != nil {
			if err := req.check(body); err != nil {
				t.fail(err)
				continue
			}
		}
		t.samples = append(t.samples, sample{done: now.Sub(start), lat: now.Sub(sent)})
	}
	return t
}

// appendBatches sends the batches on one connection, each when the previous
// one is acknowledged, and returns each acknowledged append's latency. Feeds
// deliver on their own clock, but a schedule needs a fleet with headroom: on
// one core an object-major batch takes most of any interval a source-major
// one fits in, and an open loop then measures its own queue. onAck judges
// each reply.
func appendBatches(c *conn, url string, batches []batch, onAck func(body []byte) error) ([]time.Duration, *tally) {
	t := &tally{}
	out := make([]time.Duration, 0, len(batches))
	for i, b := range batches {
		t.attempted++
		sent := time.Now()
		status, body, err := c.post(url, b.body)
		lat := time.Since(sent)
		switch {
		case err != nil:
			t.fail(err)
			continue
		case status != http.StatusOK:
			t.fail(fmt.Errorf("append %d: status %d: %.200s", i, status, body))
			continue
		}
		if err := onAck(body); err != nil {
			t.fail(err)
			continue
		}
		out = append(out, lat)
	}
	return out, t
}

// runClients runs one function per client concurrently and merges what
// they saw. The generator is this one process; each client is one
// goroutine on one connection.
func runClients(fns ...func() *tally) *tally {
	results := make([]*tally, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func(i int, fn func() *tally) {
			defer wg.Done()
			results[i] = fn()
		}(i, fn)
	}
	wg.Wait()
	total := &tally{}
	for _, r := range results {
		total.merge(r)
	}
	return total
}

// cpuSeconds is the generator's own CPU time so far, user plus system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
