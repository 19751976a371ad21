// HTTP serving subcommands: server (host a registry of datasets over
// HTTP), snapshot (precompute a dataset into a binary session snapshot for
// fast server cold-start), and loadgen (hammer a running server and report
// throughput and latency percentiles).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sourcecurrents"
	"sourcecurrents/internal/cluster"
	"sourcecurrents/internal/metrics"
	"sourcecurrents/internal/profiling"
	"sourcecurrents/internal/server"
)

// runSnapshot precomputes a serving session from a claims CSV and writes
// the binary session snapshot: the artifact `currents server -load`
// cold-starts from without re-running truth discovery and dependence
// detection.
func runSnapshot(args []string) error {
	fs := flag.NewFlagSet("snapshot", flag.ExitOnError)
	out := fs.String("o", "", "output snapshot path (required)")
	prof := profiling.Register(fs)
	_ = fs.Parse(args)
	if fs.NArg() != 1 || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: currents snapshot -o out.snap file.csv")
		os.Exit(2)
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Finish()
	d, err := loadDataset(fs.Arg(0))
	if err != nil {
		return err
	}
	start := time.Now()
	s, err := sourcecurrents.NewSession(d, sourcecurrents.DefaultSessionConfig())
	if err != nil {
		return err
	}
	precompute := time.Since(start)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := s.WriteSnapshot(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "snapshot %s: %d claims, %d sources, %d objects, %d bytes (precompute %v)\n",
		*out, d.Len(), len(d.Sources()), len(d.Objects()), info.Size(),
		precompute.Round(time.Millisecond))
	return nil
}

// runServer boots the HTTP query service over a directory of datasets
// (*.snap session snapshots load instantly; *.csv claims pay the full
// precompute) and serves until SIGINT/SIGTERM, then drains gracefully.
func runServer(args []string) error {
	fs := flag.NewFlagSet("server", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	load := fs.String("load", "", "directory of datasets to serve (*.snap, *.csv; required)")
	maxBytes := fs.Int64("max-request-bytes", server.DefaultMaxRequestBytes, "request body cap")
	cacheSize := fs.Int("cache-size", 1024, "answer cache capacity in entries (0 disables)")
	cacheTTL := fs.Duration("cache-ttl", 0, "answer cache entry lifetime (0 = until evicted)")
	persist := fs.String("persist-appends", "", "directory for append-log segments (\"\" = memory-only appends; \"load\" = the -load directory)")
	compactEvery := fs.Int("compact-every", server.DefaultCompactEvery, "compact a dataset's log after this many segments (<0 disables)")
	maxResident := fs.Int("max-resident", 0, "max sessions resident at once; idle worlds are unmapped LRU-first (0 = unbounded)")
	retainEpochs := fs.Int("retain-epochs", 4, "historical epochs addressable via ?as_of= behind each dataset's current one (0 = none, -1 = all)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof profiling endpoints under /debug/pprof/")
	allowEmpty := fs.Bool("allow-empty", false, "boot with zero datasets (a fleet shard adopts its worlds from peers)")
	adoptDir := fs.String("adopt-dir", "", "directory adopted snapshots install into, enabling POST /v1/{ds}/adopt (\"load\" = the -load directory)")
	ringSpec := fs.String("ring", "", "comma-separated fleet shard addresses; unknown-dataset 404s then carry the ring owner's address")
	self := fs.String("self", "", "this shard's own address on the ring (suppresses self-referential owner hints)")
	rf := fs.Int("rf", 0, "fleet replication factor for owner hints (0 = router default)")
	prof := profiling.Register(fs)
	_ = fs.Parse(args)
	if *load == "" || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: currents server -addr :8080 -load DIR [-cache-size N] [-cache-ttl D] [-persist-appends DIR] [-compact-every N] [-max-resident N] [-retain-epochs N] [-allow-empty] [-adopt-dir DIR] [-ring host:port,...] [-self host:port] [-pprof]")
		os.Exit(2)
	}
	if *persist == "load" {
		*persist = *load
	}
	if *adoptDir == "load" {
		*adoptDir = *load
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Finish()

	cfg := sourcecurrents.DefaultSessionConfig()
	cfg.RetainEpochs = *retainEpochs
	start := time.Now()
	loadDir := server.LoadDir
	if *allowEmpty {
		loadDir = server.LoadDirAllowEmpty
	}
	reg, err := loadDir(*load, cfg, func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "server: "+format+"\n", a...)
	})
	if err != nil {
		return err
	}
	if *maxResident > 0 {
		reg.SetMaxResident(*maxResident)
		fmt.Fprintf(os.Stderr, "server: resident bound %d (idle worlds unmap LRU-first)\n", *maxResident)
	}
	fmt.Fprintf(os.Stderr, "server: %d dataset(s) ready in %v, listening on %s\n",
		reg.Len(), time.Since(start).Round(time.Millisecond), *addr)

	opt := server.Options{
		MaxRequestBytes: *maxBytes,
		AnswerCacheSize: *cacheSize,
		AnswerCacheTTL:  *cacheTTL,
		PersistDir:      *persist,
		CompactEvery:    *compactEvery,
		AdoptDir:        *adoptDir,
		SessionCfg:      cfg,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "server: "+format+"\n", a...)
		},
	}
	if *ringSpec != "" {
		// The shard derives ownership from the same pure ring function the
		// router uses, so its 404 owner hints always agree with routing. The
		// hint names the first placement shard that is not this process.
		ring := cluster.NewRing(strings.Split(*ringSpec, ","), 0)
		rfEff := *rf
		if rfEff <= 0 {
			rfEff = cluster.DefaultRF
		}
		selfAddr := *self
		opt.OwnerOf = func(ds string) (string, bool) {
			for _, owner := range ring.Place(ds, rfEff) {
				if owner != selfAddr {
					return owner, true
				}
			}
			return "", false
		}
		fmt.Fprintf(os.Stderr, "server: ring of %d shard(s), owner hints on unknown datasets\n", ring.Len())
	}
	var handler http.Handler = server.New(reg, opt)
	if *pprofOn {
		// Profiling endpoints are opt-in: they expose internals and cost
		// CPU while sampling, so production servers keep them off unless an
		// operator is actively investigating.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		fmt.Fprintln(os.Stderr, "server: pprof endpoints enabled at /debug/pprof/")
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, finish in-flight requests, bounded.
	fmt.Fprintln(os.Stderr, "server: shutting down (draining in-flight requests)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "server: stopped")
	return nil
}

// runLoadgen hammers a running server with identical-shaped requests from
// -concurrency workers for -duration and reports throughput plus latency
// percentiles — the measurement half of the serving story. With
// -append-file set it runs in mixed read/append mode: an appender
// goroutine posts claim batches at -append-interval while the readers keep
// hammering, and the report breaks out the p99 of reads that overlapped a
// swap. Mixed mode passes only with zero failed requests (reads and
// appends) — the zero-downtime invariant, measured from outside.
func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "server base URL")
	dsName := fs.String("dataset", "", "dataset name (required)")
	op := fs.String("op", "answer", "operation: answer|fuse|recommend|accuracy")
	query := fs.String("query", "", "query list entity,attribute;... (required for -op answer)")
	concurrency := fs.Int("concurrency", 8, "concurrent clients")
	duration := fs.Duration("duration", 5*time.Second, "run length")
	appendFile := fs.String("append-file", "", "claims CSV to append live during the run (enables mixed mode)")
	appendInterval := fs.Duration("append-interval", 500*time.Millisecond, "delay between append batches in mixed mode")
	appendBatch := fs.Int("append-batch", 10, "claims per append batch in mixed mode")
	asOfMix := fs.Float64("as-of-mix", 0, "fraction of reads sent against a retained historical epoch via ?as_of= (0..1; needs server -retain-epochs)")
	coldStart := fs.Bool("cold-start", false, "measure time-to-first-answer per dataset (-dataset takes a comma-separated list) instead of sustained load")
	routerMode := fs.Bool("router", false, "-addr points at a fleet router: report per-shard p50/p99 from router metrics and require zero failed reads")
	_ = fs.Parse(args)
	if *dsName == "" || fs.NArg() != 0 || *concurrency < 1 {
		fmt.Fprintln(os.Stderr, "usage: currents loadgen -addr URL -dataset NAME [-op answer] -query \"e,a;...\" [-concurrency N] [-duration 5s] [-as-of-mix P] [-cold-start] [-router] [-append-file claims.csv [-append-interval D] [-append-batch N]]")
		os.Exit(2)
	}
	if *asOfMix < 0 || *asOfMix > 1 {
		return fmt.Errorf("loadgen: -as-of-mix must be in [0, 1]")
	}
	if *coldStart {
		return runColdStart(strings.TrimRight(*addr, "/"), *dsName, *op, *query)
	}
	var appendClaims []sourcecurrents.Claim
	if *appendFile != "" {
		f, err := os.Open(*appendFile)
		if err != nil {
			return err
		}
		appendClaims, err = sourcecurrents.ReadClaimsCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		if len(appendClaims) == 0 {
			return fmt.Errorf("loadgen: %s has no claims", *appendFile)
		}
		if *appendBatch < 1 {
			return fmt.Errorf("loadgen: -append-batch must be >= 1")
		}
	}

	base := strings.TrimRight(*addr, "/")
	method, path, body, err := buildLoadRequest(*op, *dsName, *query)
	if err != nil {
		return err
	}
	url := base + path

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *concurrency * 2,
		MaxIdleConnsPerHost: *concurrency * 2,
	}}

	// Scrape /metrics before and after the run: the deltas yield the
	// server-observed answer-cache hit ratio (loadgen sends identical
	// requests, so the ratio tells an operator how much of the measured
	// throughput the cache absorbed) and, in router mode, the per-shard
	// latency histograms and retry/hedge totals over exactly the traffic
	// sent here.
	const shardDuration = "currents_router_request_duration_seconds"
	page0 := scrapeMetrics(client, base)
	if *routerMode && page0.Family(shardDuration) == nil {
		fmt.Fprintln(os.Stderr, "loadgen: -router: no per-shard metrics at "+base+"/metrics (is this a router?)")
	}

	// The historical-epoch pool drives -as-of-mix: readers pick a random
	// retained (non-current) epoch per historical request. The appender
	// refreshes the pool after each accepted batch, since every append
	// shifts both the current epoch and the retention floor.
	var poolMu sync.Mutex
	var epochPool []int
	refreshPool := func() {
		if *asOfMix == 0 {
			return
		}
		pool := scrapeEpochPool(client, base, *dsName)
		poolMu.Lock()
		epochPool = pool
		poolMu.Unlock()
	}
	refreshPool()
	if *asOfMix > 0 && len(epochPool) == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: -as-of-mix: no retained historical epochs yet; historical reads start once appends create some")
	}
	pickEpoch := func(rng *rand.Rand) (int, bool) {
		poolMu.Lock()
		defer poolMu.Unlock()
		if len(epochPool) == 0 {
			return 0, false
		}
		return epochPool[rng.Intn(len(epochPool))], true
	}

	type sample struct {
		start time.Time
		lat   time.Duration
		hist  bool
	}
	type workerStats struct {
		lat    []sample
		errors int
	}
	stats := make([]workerStats, *concurrency)
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &stats[w]
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			for time.Now().Before(deadline) {
				reqURL, hist := url, false
				if *asOfMix > 0 && rng.Float64() < *asOfMix {
					if e, ok := pickEpoch(rng); ok {
						reqURL = url + "?as_of=" + strconv.Itoa(e)
						hist = true
					}
				}
				t0 := time.Now()
				req, err := http.NewRequest(method, reqURL, strings.NewReader(body))
				if err != nil {
					st.errors++
					continue
				}
				if method == http.MethodPost {
					req.Header.Set("Content-Type", "application/json")
				}
				resp, err := client.Do(req)
				if err != nil {
					st.errors++
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					st.errors++
					continue
				}
				st.lat = append(st.lat, sample{start: t0, lat: time.Since(t0), hist: hist})
			}
		}(w)
	}

	// Mixed mode: one appender posts claim batches (cycling through the
	// file) at the configured interval while the readers hammer; every
	// append's [start, end] window is recorded so swap-overlapping reads
	// can be reported separately.
	type swapWindow struct{ start, end time.Time }
	var swaps []swapWindow
	var appendErrs, appendsSent int
	var lastEpoch uint64
	if len(appendClaims) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			off := 0
			for time.Now().Before(deadline) {
				end := off + *appendBatch
				if end > len(appendClaims) {
					end = len(appendClaims)
				}
				t0 := time.Now()
				ar, err := postAppend(client, base, *dsName, appendClaims[off:end])
				if err != nil {
					appendErrs++
					fmt.Fprintln(os.Stderr, "loadgen:", err)
				} else {
					swaps = append(swaps, swapWindow{start: t0, end: time.Now()})
					appendsSent++
					lastEpoch = ar.Epoch
					refreshPool()
				}
				off = end
				if off >= len(appendClaims) {
					off = 0
				}
				time.Sleep(*appendInterval)
			}
		}()
	}
	started := time.Now()
	wg.Wait()
	elapsed := time.Since(started)
	if elapsed > *duration {
		elapsed = *duration
	}

	var all []sample
	var nErr int
	for i := range stats {
		all = append(all, stats[i].lat...)
		nErr += stats[i].errors
	}
	if len(all) == 0 {
		return fmt.Errorf("loadgen: no successful requests (%d errors) against %s", nErr, url)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].lat < all[j].lat })
	pct := func(s []sample, p float64) time.Duration {
		idx := int(p * float64(len(s)-1))
		return s[idx].lat
	}
	fmt.Printf("loadgen %s %s: %d requests in %v (%.0f req/s), %d errors, %d clients\n",
		*op, url, len(all), elapsed.Round(time.Millisecond),
		float64(len(all))/elapsed.Seconds(), nErr, *concurrency)
	fmt.Printf("latency: p50 %v  p90 %v  p99 %v  max %v\n",
		pct(all, 0.50).Round(time.Microsecond), pct(all, 0.90).Round(time.Microsecond),
		pct(all, 0.99).Round(time.Microsecond), all[len(all)-1].lat.Round(time.Microsecond))
	if *asOfMix > 0 {
		// `all` is latency-sorted, so these filtered subsequences stay
		// sorted and pct works on them directly. A historical read that hit
		// a retained resident epoch should cost the same as a current read;
		// a gap between the two p99 columns is lazy materialization.
		var curReads, histReads []sample
		for _, s := range all {
			if s.hist {
				histReads = append(histReads, s)
			} else {
				curReads = append(curReads, s)
			}
		}
		if len(curReads) > 0 {
			fmt.Printf("current reads: %d, p50 %v  p99 %v\n", len(curReads),
				pct(curReads, 0.50).Round(time.Microsecond), pct(curReads, 0.99).Round(time.Microsecond))
		}
		if len(histReads) > 0 {
			fmt.Printf("historical reads (as_of): %d, p50 %v  p99 %v\n", len(histReads),
				pct(histReads, 0.50).Round(time.Microsecond), pct(histReads, 0.99).Round(time.Microsecond))
		} else {
			fmt.Println("historical reads (as_of): none sent (no retained epochs on the server?)")
		}
	}
	page1 := scrapeMetrics(client, base)
	// delta is a series' growth over the run; ok is false when the page
	// scraped after the run does not carry it.
	delta := func(name string, labelValues ...string) (int64, bool) {
		after, ok := page1.Value(name, labelValues...)
		before, _ := page0.Value(name, labelValues...)
		return int64(after - before), ok
	}
	if *op == "answer" {
		hits, okHits := delta("currents_answer_cache_hits_total")
		misses, okMisses := delta("currents_answer_cache_misses_total")
		switch lookups := hits + misses; {
		case !okHits || !okMisses:
			fmt.Println("server answer cache: /metrics counters unavailable")
		case lookups > 0:
			fmt.Printf("server answer cache: %d/%d lookups hit (%.1f%%)\n",
				hits, lookups, 100*float64(hits)/float64(lookups))
		default:
			fmt.Println("server answer cache: no lookups observed (cache disabled?)")
		}
	}
	if *routerMode {
		// Aggregate req/s is the loadgen-side number above; the per-shard
		// split comes from the router's own histograms, where failovers and
		// replica traffic land on the shard that actually served each try.
		if f := page1.Family("currents_router_requests_total"); f != nil && len(f.Samples) > 0 {
			fmt.Println("per-shard (router-side, this run):")
			for _, s := range f.Samples { // one per shard; the router renders them sorted
				shard := s.Labels[0].Value
				reqs, _ := delta("currents_router_requests_total", shard)
				errs, _ := delta("currents_router_request_errors_total", shard)
				h := page1.Histogram(shardDuration, shard)
				if reqs <= 0 || h == nil {
					fmt.Printf("  %-22s idle\n", shard)
					continue
				}
				d := h.Sub(page0.Histogram(shardDuration, shard))
				fmt.Printf("  %-22s %6d reqs  %3d errors  p50 %v  p99 %v\n",
					shard, reqs, errs,
					d.Quantile(0.50).Round(time.Microsecond), d.Quantile(0.99).Round(time.Microsecond))
			}
		}
		if retries, ok := delta("currents_router_retries_total"); ok {
			hedges, _ := delta("currents_router_hedged_requests_total")
			wins, _ := delta("currents_router_hedge_wins_total")
			reads := int64(len(all)) + int64(nErr)
			pc := func(n int64) float64 {
				if reads == 0 {
					return 0
				}
				return 100 * float64(n) / float64(reads)
			}
			fmt.Printf("router resilience: %d retries (%.1f%% of reads), %d hedged (%.1f%%), %d hedge wins\n",
				retries, pc(retries), hedges, pc(hedges), wins)
		}
		if nErr > 0 {
			return fmt.Errorf("loadgen: router mode FAILED: %d failed reads (zero required — failover must hide shard loss)", nErr)
		}
		fmt.Println("router mode PASS: zero failed reads")
	}
	if len(appendClaims) > 0 {
		// Reads whose lifetime overlapped an append's are the requests a
		// non-atomic swap would have broken; their p99 shows what an epoch
		// swap costs a concurrent reader.
		var during []sample
		for _, s := range all {
			rEnd := s.start.Add(s.lat)
			for _, w := range swaps {
				if !s.start.After(w.end) && !rEnd.Before(w.start) {
					during = append(during, s)
					break
				}
			}
		}
		sort.Slice(during, func(i, j int) bool { return during[i].lat < during[j].lat })
		fmt.Printf("mixed mode: %d appends (last epoch %d), %d append errors\n",
			appendsSent, lastEpoch, appendErrs)
		if len(during) > 0 {
			fmt.Printf("reads overlapping a swap: %d, p50 %v  p99 %v  max %v\n",
				len(during), pct(during, 0.50).Round(time.Microsecond),
				pct(during, 0.99).Round(time.Microsecond),
				during[len(during)-1].lat.Round(time.Microsecond))
		} else {
			fmt.Println("reads overlapping a swap: none observed")
		}
		if nErr > 0 || appendErrs > 0 {
			return fmt.Errorf("loadgen: mixed mode FAILED: %d read errors, %d append errors (zero required)", nErr, appendErrs)
		}
		fmt.Println("mixed mode PASS: zero failed requests during swaps")
	}
	return nil
}

// buildLoadRequest maps a loadgen operation onto its HTTP shape for one
// dataset.
func buildLoadRequest(op, dsName, query string) (method, path, body string, err error) {
	switch op {
	case "answer":
		if query == "" {
			return "", "", "", fmt.Errorf("loadgen: -op answer requires -query")
		}
		objs, err := parseQueryList(query)
		if err != nil {
			return "", "", "", err
		}
		var sb strings.Builder
		sb.WriteString(`{"query":[`)
		for i, o := range objs {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"entity":%q,"attribute":%q}`, o.Entity, o.Attribute)
		}
		sb.WriteString(`]}`)
		return http.MethodPost, "/v1/" + dsName + "/answer", sb.String(), nil
	case "fuse":
		return http.MethodPost, "/v1/" + dsName + "/fuse", "", nil
	case "recommend":
		return http.MethodPost, "/v1/" + dsName + "/recommend", `{"k":5}`, nil
	case "accuracy":
		return http.MethodGet, "/v1/" + dsName + "/accuracy", "", nil
	default:
		return "", "", "", fmt.Errorf("loadgen: unknown op %q", op)
	}
}

// runColdStart measures time-to-first-answer for each named dataset: one
// timed request against a freshly started lazy server pays the mmap on
// first touch, and a second request shows the resident
// steady state. The gap between the two columns is the cold-start cost the
// lazy registry defers until a world is actually queried.
func runColdStart(base, datasets, op, query string) error {
	client := &http.Client{}
	timedGet := func(method, url, body string) (time.Duration, error) {
		t0 := time.Now()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		if method == http.MethodPost {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("status %d: %s", resp.StatusCode, b)
		}
		return time.Since(t0), nil
	}
	fmt.Printf("%-20s %14s %14s\n", "dataset", "first-answer", "warm")
	var failed bool
	for _, name := range strings.Split(datasets, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		method, path, body, err := buildLoadRequest(op, name, query)
		if err != nil {
			return err
		}
		url := base + path
		cold, err := timedGet(method, url, body)
		if err != nil {
			fmt.Printf("%-20s %14s %14s  (%v)\n", name, "FAIL", "-", err)
			failed = true
			continue
		}
		warm, err := timedGet(method, url, body)
		if err != nil {
			fmt.Printf("%-20s %14v %14s  (%v)\n", name, cold.Round(time.Microsecond), "FAIL", err)
			failed = true
			continue
		}
		fmt.Printf("%-20s %14v %14v\n", name,
			cold.Round(time.Microsecond), warm.Round(time.Microsecond))
	}
	if failed {
		return fmt.Errorf("loadgen: cold-start had failing datasets")
	}
	return nil
}

// scrapeEpochPool lists a dataset's addressable historical epochs from
// GET /v1/{ds}/history: every retained epoch except the current one, and
// except the retention-floor epoch when others exist (the floor is what
// the next append prunes, and a read racing that prune would count as a
// failure the server didn't cause).
func scrapeEpochPool(client *http.Client, base, ds string) []int {
	resp, err := client.Get(base + "/v1/" + ds + "/history")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var hr struct {
		Epochs []struct {
			Epoch   int  `json:"epoch"`
			Current bool `json:"current"`
		} `json:"epochs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		return nil
	}
	var pool []int
	for _, e := range hr.Epochs {
		if !e.Current {
			pool = append(pool, e.Epoch)
		}
	}
	if len(pool) > 1 {
		pool = pool[1:]
	}
	return pool
}

// scrapeMetrics fetches and parses base's /metrics page; nil when the
// endpoint is unreachable or the page does not parse (a nil Page answers
// every lookup with "absent").
func scrapeMetrics(client *http.Client, base string) metrics.Page {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	page, err := metrics.ParseText(resp.Body)
	if err != nil {
		return nil
	}
	return page
}
