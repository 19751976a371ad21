// The fleet router subcommand: front N `currents server` shards with one
// address that speaks the same /v1/{dataset}/... API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sourcecurrents/internal/cluster"
)

// runRouter boots the consistent-hash fleet router over the given shards
// and serves until SIGINT/SIGTERM, then drains gracefully like the shard
// server does. Reads fail over across each dataset's replicas; appends hit
// the primary and fan out; POST /admin/ring rebalances by snapshot
// streaming.
func runRouter(args []string) error {
	fs := flag.NewFlagSet("router", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	shards := fs.String("shards", "", "comma-separated shard addresses host:port,... (required)")
	rf := fs.Int("rf", cluster.DefaultRF, "replication factor: shards per dataset")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per shard on the hash ring (0 = default)")
	healthEvery := fs.Duration("health-interval", cluster.DefaultHealthInterval, "delay between shard readiness probe rounds")
	probeTimeout := fs.Duration("probe-timeout", cluster.DefaultProbeTimeout, "timeout for one shard readiness probe")
	maxBytes := fs.Int64("max-request-bytes", 1<<20, "proxied request body cap")
	tryTimeout := fs.Duration("try-timeout", cluster.DefaultTryTimeout, "deadline for one proxied attempt against one shard (<0 disables)")
	hedgeDelay := fs.Duration("hedge-delay", 0, "fire a hedged read at the next replica after this delay (0 disables)")
	breakerThreshold := fs.Int("breaker-threshold", cluster.DefaultBreakerThreshold, "consecutive failures that trip a shard's circuit breaker (<0 disables)")
	breakerCooldown := fs.Duration("breaker-cooldown", cluster.DefaultBreakerCooldown, "how long a tripped breaker stays open before a half-open probe")
	retryBudget := fs.Float64("retry-budget", cluster.DefaultRetryRefill, "failover retries allowed per incoming request (token-bucket refill; <0 disables)")
	backoffBase := fs.Duration("backoff-base", cluster.DefaultBackoffBase, "base delay between failover tries (doubles per retry, jittered)")
	backoffMax := fs.Duration("backoff-max", cluster.DefaultBackoffMax, "cap on the failover backoff delay")
	seed := fs.Int64("seed", 1, "seed for deterministic backoff jitter")
	repairInterval := fs.Duration("repair-interval", cluster.DefaultRepairInterval, "anti-entropy scan period for replica repair (<0 disables)")
	repairTimeout := fs.Duration("repair-timeout", cluster.DefaultRepairTimeout, "deadline for one repair delta or one rebalance adoption")
	_ = fs.Parse(args)
	if *shards == "" || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: currents router -addr :8080 -shards host1:9001,host2:9002[,...] [-rf N] [-vnodes N] [-health-interval D] [-probe-timeout D] [-max-request-bytes N] [-try-timeout D] [-hedge-delay D] [-breaker-threshold N] [-breaker-cooldown D] [-retry-budget F] [-backoff-base D] [-backoff-max D] [-seed N] [-repair-interval D] [-repair-timeout D]")
		os.Exit(2)
	}

	rt, err := cluster.NewRouter(strings.Split(*shards, ","), cluster.Options{
		RF:               *rf,
		VNodes:           *vnodes,
		HealthInterval:   *healthEvery,
		ProbeTimeout:     *probeTimeout,
		MaxRequestBytes:  *maxBytes,
		TryTimeout:       *tryTimeout,
		HedgeDelay:       *hedgeDelay,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		RetryRefill:      *retryBudget,
		BackoffBase:      *backoffBase,
		BackoffMax:       *backoffMax,
		Seed:             *seed,
		RepairInterval:   *repairInterval,
		RepairTimeout:    *repairTimeout,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "router: "+format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	rt.Start()
	defer rt.Close()
	fmt.Fprintf(os.Stderr, "router: fronting %d shard(s) at rf=%d, listening on %s\n",
		len(strings.Split(*shards, ",")), *rf, *addr)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt,
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
	fmt.Fprintln(os.Stderr, "router: shutting down (draining in-flight requests)")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "router: stopped")
	return nil
}
