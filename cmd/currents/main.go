// Command currents runs source-dependence analysis over CSV claims.
//
// Claims CSV layout: source,entity,attribute,value[,time[,prob]] with an
// optional header row.
//
// Subcommands:
//
//	currents detect  [-min-shared N] [-threshold P] file.csv
//	    snapshot copy detection + copy-aware truth discovery
//	currents truth   [-method vote|accu|depen] file.csv
//	    truth discovery only
//	currents temporal [-window W] file.csv
//	    update-trace dependence detection (claims must carry timestamps)
//	currents dissim  file.csv
//	    dissimilarity-dependence on Good/Neutral/Bad ratings
//	currents recommend [-k N] file.csv
//	    trust-ranked source recommendation
//	currents serve  [-query "e,a;e,a"] [-repeat N] file.csv
//	    long-lived serving session: one truth+dependence precompute, then
//	    unlimited queries (stdin REPL, or -query for one-shot/batch mode)
//	currents snapshot -o out.snap file.csv
//	    precompute a session and write the binary snapshot the server
//	    boots from
//	currents server -addr :8080 -load DIR [-cache-size N] [-pprof]
//	    HTTP/JSON query service over a directory of datasets
//	    (*.snap snapshots, *.csv claims); LRU answer cache (1024 entries
//	    by default, 0 disables),
//	    optional net/http/pprof endpoints, graceful shutdown on SIGINT
//	currents router -addr :8080 -shards host1:9001,host2:9002[,...] [-rf N]
//	    fleet router: proxy the /v1 API across shards via a consistent-hash
//	    ring, health-check with /readyz, fail reads over to replicas, fan
//	    appends out from the primary, rebalance by snapshot streaming on
//	    POST /admin/ring
//	currents loadgen -addr URL -dataset NAME -query "e,a" [-concurrency N] [-duration 5s]
//	    hammer a running server, report throughput + latency percentiles
//	    and the server-observed answer-cache hit ratio (from /metrics);
//	    with -append-file claims.csv it runs mixed read/append traffic and
//	    passes only on zero failed requests during the epoch swaps; with
//	    -router it targets a fleet router and reports per-shard p50/p99
//	currents append -addr URL -dataset NAME [-batch N] claims.csv
//	    live ingest: POST a claims CSV to a served dataset; the server
//	    refines the batch into a successor session and epoch-swaps it in;
//	    a 404 from a non-owner shard is retried once at the owner address
//	    the error body names
//	currents chaos -listen host:port -upstream host:port -admin host:port [-seed N] [-faults JSON]
//	    fault-injection proxy for fleet drills: forwards HTTP to one shard
//	    while injecting latency, blackholes, connection resets, truncated
//	    bodies, or probabilistic 5xx; faults flip at runtime via GET/POST
//	    /faults on the admin port
//	currents ring -shards host1:9001,host2:9002[,...] [-rf N] [-vnodes N] dataset...
//	    print each dataset's ring placement (primary first), exactly as the
//	    router would compute it — lets scripts pick which shard to fault
//
// Every analysis subcommand also accepts -cpuprofile FILE and -memprofile
// FILE to write pprof evidence for performance work.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sourcecurrents"
	"sourcecurrents/internal/eval"
	"sourcecurrents/internal/profiling"
	"sourcecurrents/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	var err error
	switch cmd {
	case "detect":
		err = runDetect(args)
	case "truth":
		err = runTruth(args)
	case "temporal":
		err = runTemporal(args)
	case "dissim":
		err = runDissim(args)
	case "recommend":
		err = runRecommend(args)
	case "serve":
		err = runServe(args)
	case "snapshot":
		err = runSnapshot(args)
	case "server":
		err = runServer(args)
	case "router":
		err = runRouter(args)
	case "loadgen":
		err = runLoadgen(args)
	case "append":
		err = runAppend(args)
	case "chaos":
		err = runChaos(args)
	case "ring":
		err = runRing(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "currents:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: currents <detect|truth|temporal|dissim|recommend|serve|snapshot|server|router|loadgen|append|chaos|ring> [flags]")
	os.Exit(2)
}

func loadDataset(path string) (*sourcecurrents.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	claims, err := sourcecurrents.ReadClaimsCSV(f)
	if err != nil {
		return nil, err
	}
	return sourcecurrents.DatasetFromClaims(claims)
}

func runDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	minShared := fs.Int("min-shared", 2, "minimum shared objects per analyzed pair")
	threshold := fs.Float64("threshold", 0.5, "dependence posterior threshold")
	prof := profiling.Register(fs)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Finish()
	d, err := loadDataset(fs.Arg(0))
	if err != nil {
		return err
	}
	cfg := sourcecurrents.DefaultDependenceConfig()
	cfg.MinShared = *minShared
	cfg.DepThreshold = *threshold
	res, err := sourcecurrents.DetectDependence(d, cfg)
	if err != nil {
		return err
	}
	t := eval.NewTable("Dependent source pairs", "pair", "P(dep)", "shared", "same", "likely copier")
	for _, dep := range res.Dependences {
		copier, _ := dep.Copier()
		t.AddRowf(dep.Pair.String(), dep.Prob, dep.Shared, dep.Same, string(copier))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	t2 := eval.NewTable("Copy-aware truth", "object", "value", "p")
	for _, o := range d.Objects() {
		v := res.Truth.Chosen[o]
		t2.AddRowf(o.String(), v, res.Truth.Probs[o][v])
	}
	return t2.Render(os.Stdout)
}

func runTruth(args []string) error {
	fs := flag.NewFlagSet("truth", flag.ExitOnError)
	method := fs.String("method", "depen", "vote, accu or depen")
	prof := profiling.Register(fs)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Finish()
	d, err := loadDataset(fs.Arg(0))
	if err != nil {
		return err
	}
	var chosen map[sourcecurrents.ObjectID]string
	var probs map[sourcecurrents.ObjectID]map[string]float64
	switch *method {
	case "vote":
		r := sourcecurrents.VoteTruth(d)
		chosen, probs = r.Chosen, r.Probs
	case "accu":
		r, err := sourcecurrents.DiscoverTruth(d, sourcecurrents.DefaultTruthConfig())
		if err != nil {
			return err
		}
		chosen, probs = r.Chosen, r.Probs
	case "depen":
		r, err := sourcecurrents.DetectDependence(d, sourcecurrents.DefaultDependenceConfig())
		if err != nil {
			return err
		}
		chosen, probs = r.Truth.Chosen, r.Truth.Probs
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	t := eval.NewTable("Discovered truth ("+*method+")", "object", "value", "p")
	for _, o := range d.Objects() {
		t.AddRowf(o.String(), chosen[o], probs[o][chosen[o]])
	}
	return t.Render(os.Stdout)
}

func runTemporal(args []string) error {
	fs := flag.NewFlagSet("temporal", flag.ExitOnError)
	window := fs.Int64("window", 5, "maximum copy lag")
	prof := profiling.Register(fs)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Finish()
	d, err := loadDataset(fs.Arg(0))
	if err != nil {
		return err
	}
	cfg := sourcecurrents.DefaultTemporalConfig()
	cfg.Window = sourcecurrents.Time(*window)
	res, err := sourcecurrents.DetectTemporalDependence(d, cfg)
	if err != nil {
		return err
	}
	t := eval.NewTable("Temporal dependence", "pair", "P(dep)", "shared", "A-first", "B-first")
	for _, dep := range res.AllPairs {
		t.AddRowf(dep.Pair.String(), dep.Prob, dep.Shared, dep.AFirst, dep.BFirst)
	}
	return t.Render(os.Stdout)
}

func runDissim(args []string) error {
	fs := flag.NewFlagSet("dissim", flag.ExitOnError)
	prof := profiling.Register(fs)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Finish()
	d, err := loadDataset(fs.Arg(0))
	if err != nil {
		return err
	}
	res, err := sourcecurrents.DetectDissimilarity(d, sourcecurrents.DefaultDissimConfig())
	if err != nil {
		return err
	}
	t := eval.NewTable("Rater-pair analysis", "pair", "kind", "zAgree", "zOpp")
	for _, dep := range res.Pairs {
		t.AddRowf(dep.Pair.String(), dep.Kind.String(), dep.Z, dep.ZOpp)
	}
	return t.Render(os.Stdout)
}

func runRecommend(args []string) error {
	fs := flag.NewFlagSet("recommend", flag.ExitOnError)
	k := fs.Int("k", 5, "number of sources to recommend")
	prof := profiling.Register(fs)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Finish()
	d, err := loadDataset(fs.Arg(0))
	if err != nil {
		return err
	}
	dres, err := sourcecurrents.DetectDependence(d, sourcecurrents.DefaultDependenceConfig())
	if err != nil {
		return err
	}
	profiles := sourcecurrents.BuildSourceProfiles(d, dres, nil)
	top, err := sourcecurrents.RecommendSources(profiles, sourcecurrents.DefaultTrustWeights(), *k)
	if err != nil {
		return err
	}
	t := eval.NewTable("Recommended sources", "source", "trust", "accuracy", "coverage", "independence")
	for _, p := range top {
		t.AddRowf(string(p.Source), p.Trust, p.Accuracy, p.Coverage, p.Independence)
	}
	return t.Render(os.Stdout)
}

// parseQueryList parses "entity,attribute;entity,attribute" into object ids.
func parseQueryList(spec string) ([]sourcecurrents.ObjectID, error) {
	var out []sourcecurrents.ObjectID
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ea := strings.SplitN(part, ",", 2)
		if len(ea) != 2 {
			return nil, fmt.Errorf("bad query entry %q (want entity,attribute)", part)
		}
		out = append(out, sourcecurrents.Obj(strings.TrimSpace(ea[0]), strings.TrimSpace(ea[1])))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty query %q", spec)
	}
	return out, nil
}

func printAnswers(res *sourcecurrents.QueryResult) error {
	t := eval.NewTable(fmt.Sprintf("Answers (%d sources probed)", len(res.Probed)),
		"object", "value", "p")
	for _, a := range res.Final {
		t.AddRowf(a.Object.String(), a.Value, a.Prob)
	}
	return t.Render(os.Stdout)
}

// toRefs converts parsed query objects to the request core's transport
// form.
func toRefs(objs []sourcecurrents.ObjectID) []server.ObjectRef {
	refs := make([]server.ObjectRef, len(objs))
	for i, o := range objs {
		refs[i] = server.ObjectRef{Entity: o.Entity, Attribute: o.Attribute}
	}
	return refs
}

// runServe builds a serving session (one precompute) and then answers
// queries against it: either the -query list (repeated -repeat times for
// throughput runs), or an interactive stdin loop with the commands
//
//	answer e,a[;e,a...]   probe sources and answer the listed objects
//	fuse                  fused value per object
//	recommend K           top-K trusted sources
//	accuracy              discovered per-source accuracies
//	quit
//
// Every command dispatches through the same request-handling core as the
// HTTP server (internal/server.Exec*), so the two serving paths cannot
// drift; the REPL differs only in rendering tables instead of JSON.
// Timings go to stderr so stdout stays deterministic and diffable.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	query := fs.String("query", "", "answer this query list (entity,attribute;...) instead of reading stdin")
	repeat := fs.Int("repeat", 1, "with -query: answer it this many times (throughput demo)")
	prof := profiling.Register(fs)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
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
	fmt.Fprintf(os.Stderr, "session ready: %d claims, %d sources, %d objects, %d dependent pairs (precompute %v)\n",
		d.Len(), len(d.Sources()), len(d.Objects()), s.NumDependences(),
		time.Since(start).Round(time.Millisecond))

	if *query != "" {
		if *repeat < 1 {
			return fmt.Errorf("serve: -repeat must be >= 1 (got %d)", *repeat)
		}
		q, err := parseQueryList(*query)
		if err != nil {
			return err
		}
		qstart := time.Now()
		req := server.AnswerRequest{Query: toRefs(q)}
		var res *sourcecurrents.QueryResult
		for i := 0; i < *repeat; i++ {
			if res, err = server.ExecAnswer(s, req); err != nil {
				return err
			}
		}
		if err := printAnswers(res); err != nil {
			return err
		}
		if *repeat > 1 {
			el := time.Since(qstart)
			fmt.Fprintf(os.Stderr, "%d queries in %v (%.0f queries/sec)\n",
				*repeat, el.Round(time.Millisecond), float64(*repeat)/el.Seconds())
		}
		return nil
	}

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		switch cmd {
		case "quit", "exit":
			return nil
		case "answer":
			q, err := parseQueryList(rest)
			if err != nil {
				fmt.Fprintln(os.Stderr, "serve:", err)
				continue
			}
			res, err := server.ExecAnswer(s, server.AnswerRequest{Query: toRefs(q)})
			if err != nil {
				fmt.Fprintln(os.Stderr, "serve:", err)
				continue
			}
			if err := printAnswers(res); err != nil {
				return err
			}
		case "fuse":
			res, err := server.ExecFuse(s)
			if err != nil {
				fmt.Fprintln(os.Stderr, "serve:", err)
				continue
			}
			t := eval.NewTable("Fused view", "object", "value", "p")
			for _, o := range d.Objects() {
				v := res.Chosen[o]
				t.AddRowf(o.String(), v, res.Relation.Tuples[o].Prob(v))
			}
			if err := t.Render(os.Stdout); err != nil {
				return err
			}
		case "recommend":
			k := 5
			if rest != "" {
				if _, err := fmt.Sscanf(rest, "%d", &k); err != nil {
					fmt.Fprintln(os.Stderr, "serve: bad k:", err)
					continue
				}
			}
			top, err := server.ExecRecommend(s, server.RecommendRequest{K: &k})
			if err != nil {
				fmt.Fprintln(os.Stderr, "serve:", err)
				continue
			}
			t := eval.NewTable("Recommended sources", "source", "trust", "accuracy", "independence")
			for _, p := range top {
				t.AddRowf(string(p.Source), p.Trust, p.Accuracy, p.Independence)
			}
			if err := t.Render(os.Stdout); err != nil {
				return err
			}
		case "accuracy":
			t := eval.NewTable("Discovered accuracies", "source", "accuracy")
			for _, e := range server.ExecAccuracy(s) {
				t.AddRowf(string(e.Source), e.Accuracy)
			}
			if err := t.Render(os.Stdout); err != nil {
				return err
			}
		default:
			fmt.Fprintf(os.Stderr, "serve: unknown command %q (answer|fuse|recommend|accuracy|quit)\n", cmd)
		}
	}
	return sc.Err()
}
