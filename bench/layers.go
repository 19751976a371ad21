package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	sc "sourcecurrents"
	"sourcecurrents/internal/cluster"
	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/server"
	"sourcecurrents/internal/session"
)

// The traced run. The harness, in this process and on one goroutine, wraps a
// span around each of its own calls into a layer's public functions; tracing
// inside the program is a later change. Requests are replayed as onions: the
// same request at successive depths (planner alone, then the exec that
// contains it, then the handler that contains that, …), each depth a span
// whose child is the next-inner depth, so a layer's self time is its span
// minus its child's. Every workload's traced run replays the same layers
// over all three worlds; only the read onion's world and the figures
// scraped from the real fleet differ by workload.

const (
	onionBatches = 9  // appends of the write onion: 6 source-major, 3 object-major
	stallBatches = 12 // appends of the compaction-stall loop (8 source-major used)
	hitRequests  = 400
	placeCalls   = 200000
	asOfCalls    = 20000
)

// buildReps is how many times a world's build chain runs; metrics are the
// median. The tall world's chain takes seconds, and gets fewer.
func buildReps(spec worldSpec) int {
	if spec.objects >= 5000 {
		return 3
	}
	return 5
}

func planRequests(spec worldSpec) int {
	if spec.name == "wide" {
		return 30 // ~50 ms each, four times over
	}
	return 120
}

// sessionCfg is the configuration `currents server` runs its worlds under.
func sessionCfg() session.Config {
	cfg := sc.DefaultSessionConfig()
	cfg.RetainEpochs = 4
	return cfg
}

// layerRun holds the traced run's state.
type layerRun struct {
	r   *run
	tr  *tracer
	dir string
	req int
	// per world: the claims, the snapshot file and a served session
	worlds map[string]*world
	snaps  map[string]string
	ms     map[string][]float64 // metric → samples, median reported
}

func (l *layerRun) nextReq() int { l.req++; return l.req }

func (l *layerRun) add(metric string, v float64) { l.ms[metric] = append(l.ms[metric], v) }

// runLayers runs the traced in-process suite and fills r.layer.
func (r *run) runLayers() error {
	dir, err := os.MkdirTemp(r.h.runDir, "layers-")
	if err != nil {
		return err
	}
	l := &layerRun{r: r, tr: newTracer(true), dir: dir,
		worlds: map[string]*world{}, snaps: map[string]string{}, ms: map[string][]float64{}}
	t := time.Now()
	for _, spec := range []worldSpec{wideWorld, midWorld, tallWorld} {
		if err := l.buildChain(r.p.world(spec)); err != nil {
			return fmt.Errorf("traced build of %s: %w", spec.name, err)
		}
	}
	r.lap("traced build chains", t)
	t = time.Now()
	if err := l.writeOnion(); err != nil {
		return fmt.Errorf("traced write onion: %w", err)
	}
	r.lap("traced write onion", t)
	t = time.Now()
	readWorld := "wide"
	if r.wl == "ingest_mixed" {
		readWorld = "mid"
	}
	if err := l.readOnion(readWorld); err != nil {
		return fmt.Errorf("traced read onion: %w", err)
	}
	r.lap("traced read onion", t)
	l.place()

	for k, v := range l.ms {
		r.layer[k] = median(v)
	}
	self := medianSelfNs(l.tr.spans)
	for _, s := range shapeNames {
		r.layer["dataset.append_ms."+s] = self["dataset.append."+s] / 1e6
		r.layer["depen.refine_ms."+s] = self["depen.refine."+s] / 1e6
		r.layer["session.append_self_ms."+s] = self["session.append."+s] / 1e6
		r.layer["server.append_handler_self_ms."+s] = self["server.append_handler."+s] / 1e6
		r.layer["cluster.append_fanout_self_ms."+s] = self["cluster.append_routed."+s] / 1e6
	}
	for _, w := range worldNames {
		r.layer["session.build_self_ms."+w] = self["session.build."+w] / 1e6
	}
	plan := self["queryans.plan"] / 1e3
	r.layer["server.exec_self_us"] = self["server.exec"] / 1e3
	r.layer["server.handler_miss_self_us"] = self["server.handler_miss"] / 1e3
	r.layer["server.handler_hit_us"] = self["server.handler_hit"] / 1e3
	r.layer["server.http_self_us"] = self["server.http_hit"] / 1e3
	r.layer["cluster.hop_self_us"] = self["cluster.routed_hit"] / 1e3

	// What the in-process layers explain of the fleet's median read, on the
	// path this workload's reads take; the rest is the process boundary —
	// two or three OS processes, their schedulers, the generator's own
	// client — and is reported so the stages visibly sum to the end-to-end
	// figure.
	var explained []float64
	switch r.wl {
	case "hot_read", "ingest_mixed": // routed, served from the answer cache
		explained = []float64{r.layer["server.handler_hit_us"], r.layer["server.http_self_us"], r.layer["cluster.hop_self_us"]}
	default: // direct, planned
		explained = []float64{plan, r.layer["server.exec_self_us"], r.layer["server.handler_miss_self_us"], r.layer["server.http_self_us"]}
	}
	r.layer["currents.process_gap_us"] = unattributed(r.gapReadP50us, explained...)
	return l.tr.write(filepath.Join(outDir(r.h), "trace.json"))
}

// buildChain replays what `currents snapshot` and a cold `currents server`
// do to one world, one public function per span.
func (l *layerRun) buildChain(spec worldSpec) error {
	w, err := genWorld(spec, l.r.seed)
	if err != nil {
		return err
	}
	name := spec.name
	l.worlds[name] = w
	var csv bytes.Buffer
	if err := sc.WriteClaimsCSV(&csv, w.base); err != nil {
		return err
	}
	cfg := sessionCfg()
	snap := filepath.Join(l.dir, name+".snap")
	l.snaps[name] = snap
	var sess *sc.Session
	for rep := 0; rep < buildReps(spec); rep++ {
		req := l.nextReq()
		var (
			claims []sc.Claim
			d      *sc.Dataset
			tr     *sc.TruthResult
			dep    *sc.DependenceResult
			err    error
		)
		_, dur := l.tr.do(req, 0, "dataset", "csv_parse."+name, func() { claims, err = sc.ReadClaimsCSV(bytes.NewReader(csv.Bytes())) })
		if err != nil {
			return err
		}
		l.add("dataset.csv_parse_ms."+name, msOf(dur))
		_, dur = l.tr.do(req, 0, "dataset", "compile."+name, func() {
			if d, err = sc.DatasetFromClaims(claims); err == nil {
				d.Compiled()
			}
		})
		if err != nil {
			return err
		}
		l.add("dataset.compile_ms."+name, msOf(dur))
		_, dur = l.tr.do(req, 0, "truth", "accu."+name, func() { tr, err = sc.DiscoverTruth(d, sc.DefaultTruthConfig()) })
		if err != nil {
			return err
		}
		l.add("truth.accu_ms."+name, msOf(dur))
		l.add("truth.rounds."+name, float64(tr.Rounds))
		// NewSession runs the same detection inside, so a standalone detect
		// span stands in as its child and the session's self time is what it
		// adds on top. Each call gets a dataset of its own, compiled alike, so
		// neither finds the other's work cached; and the two swap places from
		// one rep to the next, because whichever runs second meets a larger
		// live heap and so fewer collections.
		d2, err := sc.DatasetFromClaims(claims)
		if err != nil {
			return err
		}
		d2.Compiled()
		var detectID, buildID int
		detect := func() {
			detectID, dur = l.quiet(req, "depen", "detect."+name, func() { dep, err = sc.DetectDependence(d, cfg.Depen) })
		}
		build := func() {
			buildID, _ = l.quiet(req, "session", "build."+name, func() { sess, err = sc.NewSession(d2, cfg) })
		}
		steps := []func(){detect, build}
		if rep%2 == 1 {
			steps = []func(){build, detect}
		}
		for _, step := range steps {
			if step(); err != nil {
				return err
			}
		}
		l.tr.adopt(detectID, buildID)
		l.add("depen.detect_ms."+name, msOf(dur))
		l.add("depen.pairs."+name, float64(len(dep.AllPairs)))
		l.add("depen.ns_per_pair."+name, ratio(float64(dur.Nanoseconds()), float64(len(dep.AllPairs))))
		l.add("depen.rounds."+name, float64(dep.Rounds))
		_, dur = l.tr.do(req, 0, "session", "snapshot_write."+name, func() { err = writeSnapshotV2(sess, snap) })
		if err != nil {
			return err
		}
		l.add("session.snapshot_write_ms."+name, msOf(dur))
		st, err := os.Stat(snap)
		if err != nil {
			return err
		}
		l.add("session.snapshot_bytes_per_claim."+name, float64(st.Size())/float64(len(claims)))

		var mapped *sc.Session
		_, dur = l.tr.do(req, 0, "session", "snapshot_load."+name, func() { mapped, err = sc.LoadSessionFile(snap, cfg) })
		if err != nil {
			return err
		}
		l.add("session.snapshot_load_us."+name, usOf(dur))
		_, dur = l.tr.do(req, 0, "session", "materialize."+name, func() { mapped.Dataset() })
		l.add("session.materialize_ms."+name, msOf(dur))
		mapped.Close()
	}

	// Planner and fusion over the built session: one span per request.
	queries := genQueries(w, l.r.rng("trace/"+name), planRequests(spec))
	var plans []time.Duration
	probes := 0
	for _, q := range queries {
		var res *sc.QueryResult
		var err error
		_, dur := l.tr.do(l.nextReq(), 0, "queryans", "plan."+name, func() { res, err = sess.AnswerObjects(q.objects) })
		if err != nil {
			return err
		}
		plans = append(plans, dur)
		probes += len(res.Probed)
	}
	l.add("queryans.plan_ms."+name, percentile(durationsMs(plans), 50))
	l.add("queryans.probes_per_query."+name, float64(probes)/float64(len(queries)))
	for i := 0; i < buildReps(spec); i++ {
		var err error
		_, dur := l.tr.do(l.nextReq(), 0, "fusion", "fuse."+name, func() { _, err = sess.Fuse() })
		if err != nil {
			return err
		}
		l.add("fusion.fuse_ms."+name, msOf(dur))
	}
	if name == "mid" {
		// What a shard that has compacted reboots through today: the v1
		// stream compaction writes, decoded rather than mapped.
		var v1 bytes.Buffer
		if err := sess.WriteSnapshot(&v1); err != nil {
			return err
		}
		for i := 0; i < buildReps(spec); i++ {
			var err error
			_, dur := l.tr.do(l.nextReq(), 0, "session", "snapshot_load_v1.mid", func() {
				_, err = sc.LoadSession(bytes.NewReader(v1.Bytes()), cfg)
			})
			if err != nil {
				return err
			}
			l.add("session.snapshot_load_v1_ms.mid", msOf(dur))
		}
	}
	return nil
}

func writeSnapshotV2(s *sc.Session, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteSnapshotV2(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shardDir makes a directory holding the world's snapshot, as a shard has.
func (l *layerRun) shardDir(name, label string) (string, error) {
	d := filepath.Join(l.dir, label)
	if err := os.Mkdir(d, 0o755); err != nil {
		return "", err
	}
	return d, copyFile(l.snaps[name], filepath.Join(d, name+".snap"))
}

// inProc is an in-process shard: the registry LoadDir builds from a shard
// directory and the server package's handler over it.
type inProc struct {
	dir string
	reg *server.Registry
	srv *server.Server
	ts  *httptest.Server // nil unless it listens on loopback
}

// shardOpt is how an in-process shard is configured.
type shardOpt struct {
	persist      bool // durable appends, into the shard's own directory
	compactEvery int  // with persist; negative disables compaction
	cache        int  // answer cache entries; 0 disables
	listen       bool // serve on a loopback port as well as on recorders
}

func (l *layerRun) newInProc(name, label string, o shardOpt) (*inProc, error) {
	dir, err := l.shardDir(name, label)
	if err != nil {
		return nil, err
	}
	reg, err := server.LoadDir(dir, sessionCfg(), nil)
	if err != nil {
		return nil, err
	}
	opt := server.Options{AnswerCacheSize: o.cache, CompactEvery: o.compactEvery, SessionCfg: sessionCfg()}
	if o.persist {
		opt.PersistDir = dir
	}
	p := &inProc{dir: dir, reg: reg, srv: server.New(reg, opt)}
	if o.listen {
		p.ts = httptest.NewServer(p.srv)
	}
	return p, nil
}

func (p *inProc) close() {
	if p.ts != nil {
		p.ts.Close()
	}
}

func (p *inProc) addr() string { return strings.TrimPrefix(p.ts.URL, "http://") }

// serve runs one request through the handler on a recorder: the handler's
// whole cost and no socket.
func (p *inProc) serve(path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	p.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// newRouter fronts in-process shards with an in-process router on loopback.
// No background prober or repair loop runs: the shards are up before the
// constructor's own probe round.
func newRouter(shards ...*inProc) (*cluster.Router, *httptest.Server, error) {
	addrs := make([]string, len(shards))
	for i, s := range shards {
		addrs[i] = s.addr()
	}
	rt, err := cluster.NewRouter(addrs, cluster.Options{RF: 2, RepairInterval: -1})
	if err != nil {
		return nil, nil, err
	}
	return rt, httptest.NewServer(rt), nil
}

// writeOnion replays the ingest on the mid world, each batch at every depth
// from Dataset.Append out to a routed rf=2 append. The depths run one after
// the other, each over its own chain of states from the same base — the
// program is deterministic, so batch i meets the same epoch at every depth —
// because seven live copies of the world at once make the collector, not the
// layer, the largest term in every span.
func (l *layerRun) writeOnion() error {
	const name = "mid"
	w := l.worlds[name]
	cfg := sessionCfg()
	batches, err := genBatches(w, l.r.rng("trace/batches"), onionBatches, 3)
	if err != nil {
		return err
	}
	reqs := make([]int, len(batches))
	for i := range reqs {
		reqs[i] = l.nextReq()
	}
	path := "/v1/" + name + "/append"
	persist := shardOpt{persist: true, compactEvery: -1}
	listening := shardOpt{persist: true, compactEvery: -1, listen: true}

	// Depth 1: the session layer and, as its children, the two calls it is
	// made of.
	cur, err := sc.LoadSessionFile(l.snaps[name], cfg)
	if err != nil {
		return err
	}
	sessIDs := make([]int, len(batches))
	lastOf := map[string]*sc.Dataset{}
	refineNs := map[string][]float64{}
	for i, b := range batches {
		var (
			d2   *sc.Dataset
			next *sc.Session
			err  error
		)
		dsID, _ := l.quiet(reqs[i], "dataset", "append."+b.shape, func() { d2, err = cur.Dataset().Append(b.claims) })
		if err != nil {
			return err
		}
		refID, refine := l.quiet(reqs[i], "depen", "refine."+b.shape, func() { _, err = depen.Refine(d2, cur.Dependence(), cfg.Depen) })
		if err != nil {
			return err
		}
		refineNs[b.shape] = append(refineNs[b.shape], float64(refine.Nanoseconds()))
		lastOf[b.shape] = d2
		sessIDs[i], _ = l.quiet(reqs[i], "session", "append."+b.shape, func() { next, err = cur.Append(b.claims) })
		if err != nil {
			return err
		}
		l.tr.adopt(dsID, sessIDs[i])
		l.tr.adopt(refID, sessIDs[i])
		cur = next
	}
	// Refine against a rebuild of the same successor: above 1 the
	// incremental path loses to starting over.
	for _, shape := range shapeNames {
		flat, err := sc.DatasetFromClaims(lastOf[shape].Claims())
		if err != nil {
			return err
		}
		flat.Compiled()
		_, rebuild := l.quiet(l.nextReq(), "depen", "rebuild."+shape, func() { _, err = sc.DetectDependence(flat, cfg.Depen) })
		if err != nil {
			return err
		}
		l.add("depen.refine_vs_rebuild."+shape, ratio(median(refineNs[shape]), float64(rebuild.Nanoseconds())))
	}
	if err := l.asOf(cur); err != nil {
		return err
	}
	cur = nil

	// Depth 2: the handler, on a recorder, persisting each batch.
	handler, err := l.newInProc(name, "w-handler", persist)
	if err != nil {
		return err
	}
	handlerIDs := make([]int, len(batches))
	for i, b := range batches {
		var status int
		handlerIDs[i], _ = l.quiet(reqs[i], "server", "append_handler."+b.shape, func() { status, _ = handler.serve(path, b.body) })
		if status != http.StatusOK {
			return fmt.Errorf("handler append %d: status %d", i, status)
		}
		l.tr.adopt(sessIDs[i], handlerIDs[i])
	}

	// Depth 3: the same handler behind loopback HTTP.
	cn := newConn()
	defer cn.close()
	direct, err := l.newInProc(name, "w-direct", listening)
	if err != nil {
		return err
	}
	httpIDs := make([]int, len(batches))
	for i, b := range batches {
		var status int
		var err error
		httpIDs[i], _ = l.quiet(reqs[i], "server", "append_http."+b.shape, func() { status, _, err = cn.post(direct.ts.URL+path, b.body) })
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("direct append %d: status %d, err %v", i, status, err)
		}
		l.tr.adopt(handlerIDs[i], httpIDs[i])
	}
	direct.close()

	// Replay: boot a registry on the directory that shard left behind
	// (snapshot + one segment per append) and touch the world.
	_, dur := l.quiet(l.nextReq(), "server", "replay", func() {
		var reg *server.Registry
		if reg, err = server.LoadDir(direct.dir, cfg, nil); err == nil {
			var release func()
			if _, _, release, err = reg.Acquire(name); err == nil {
				release()
			}
		}
	})
	if err != nil {
		return err
	}
	l.add("server.replay_ms_per_segment", msOf(dur)/float64(len(batches)))

	// Depth 4: two such shards behind a router at rf=2.
	rep1, err := l.newInProc(name, "w-rep1", listening)
	if err != nil {
		return err
	}
	defer rep1.close()
	rep2, err := l.newInProc(name, "w-rep2", listening)
	if err != nil {
		return err
	}
	defer rep2.close()
	rt, front, err := newRouter(rep1, rep2)
	if err != nil {
		return err
	}
	defer rt.Close()
	defer front.Close()
	for i, b := range batches {
		var status int
		var err error
		routedID, _ := l.quiet(reqs[i], "cluster", "append_routed."+b.shape, func() { status, _, err = cn.post(front.URL+path, b.body) })
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("routed append %d: status %d, err %v", i, status, err)
		}
		l.tr.adopt(httpIDs[i], routedID)
	}
	return l.compactStall()
}

// quiet is tracer.do for the long, allocation-heavy spans: it collects
// first, so a span pays for its own garbage and not its predecessor's.
func (l *layerRun) quiet(req int, layer, name string, fn func()) (int, time.Duration) {
	runtime.GC()
	return l.tr.do(req, 0, layer, name, fn)
}

// asOf prices time travel on a session that has just ingested: a retained
// epoch is a lookup; an epoch behind a compacted snapshot (no retained
// predecessor in this process) is rebuilt from the log on first touch.
func (l *layerRun) asOf(cur *sc.Session) error {
	epoch := cur.DatasetEpoch()
	t0 := time.Now()
	for i := 0; i < asOfCalls; i++ {
		if _, err := cur.AsOf(epoch - 1); err != nil {
			return err
		}
	}
	l.add("session.asof_retained_ns", float64(time.Since(t0).Nanoseconds())/asOfCalls)
	var v1 bytes.Buffer
	if err := cur.WriteSnapshot(&v1); err != nil {
		return err
	}
	rebooted, err := sc.LoadSession(bytes.NewReader(v1.Bytes()), sessionCfg())
	if err != nil {
		return err
	}
	_, dur := l.quiet(l.nextReq(), "session", "asof_materialize", func() { _, err = rebooted.AsOf(epoch - 1) })
	if err != nil {
		return err
	}
	l.add("session.asof_materialize_ms", msOf(dur))
	return nil
}

// compactStall prices compaction as the appender sees it: the same
// source-major appends against one handler that compacts on every second
// segment; the stall is what the compacting appends take beyond the others.
func (l *layerRun) compactStall() error {
	const name = "mid"
	batches, err := genBatches(l.worlds[name], l.r.rng("trace/stall"), stallBatches, 3)
	if err != nil {
		return err
	}
	p, err := l.newInProc(name, "w-compact", shardOpt{persist: true, compactEvery: 2})
	if err != nil {
		return err
	}
	var plain, compacting []float64
	n := 0
	for _, b := range batches {
		if b.shape != srcMajor {
			continue
		}
		n++
		var status int
		_, dur := l.quiet(l.nextReq(), "server", "append_compacting", func() { status, _ = p.serve("/v1/"+name+"/append", b.body) })
		if status != http.StatusOK {
			return fmt.Errorf("compaction loop append: status %d", status)
		}
		if n%2 == 0 {
			compacting = append(compacting, msOf(dur))
		} else {
			plain = append(plain, msOf(dur))
		}
	}
	l.add("server.compact_stall_ms", median(compacting)-median(plain))
	return nil
}

// readOnion replays answer requests on one world at every depth. The miss
// onion runs against a handler with no cache, so each depth plans; the hit
// onion against a warmed one, out through loopback HTTP and a router.
func (l *layerRun) readOnion(name string) error {
	w := l.worlds[name]
	miss, err := l.newInProc(name, "r-miss", shardOpt{})
	if err != nil {
		return err
	}
	hit, err := l.newInProc(name, "r-hit", shardOpt{cache: 1024, listen: true})
	if err != nil {
		return err
	}
	defer hit.close()
	replica, err := l.newInProc(name, "r-replica", shardOpt{cache: 1024, listen: true})
	if err != nil {
		return err
	}
	defer replica.close()
	rt, front, err := newRouter(hit, replica)
	if err != nil {
		return err
	}
	defer rt.Close()
	defer front.Close()
	cn := newConn()
	defer cn.close()
	path := "/v1/" + name + "/answer"

	sess, _, release, err := miss.reg.Acquire(name)
	if err != nil {
		return err
	}
	defer release()
	queries := genQueries(w, l.r.rng("trace/onion"), planRequests(w.spec))
	for n, q := range queries {
		req := l.nextReq()
		var areq server.AnswerRequest
		if err := json.Unmarshal(q.body, &areq); err != nil {
			return err
		}
		// The three depths differ by microseconds on top of a plan that
		// takes milliseconds, so anything that favours one depth swamps the
		// difference: plan once untimed to warm what the query touches,
		// then take the depths in an order that rotates with the request.
		if _, err := sess.AnswerObjects(q.objects); err != nil {
			return err
		}
		var (
			ids    [3]int
			err    error
			status = http.StatusOK
		)
		depths := [3]func(){
			func() {
				ids[0], _ = l.tr.do(req, 0, "queryans", "plan", func() { _, err = sess.AnswerObjects(q.objects) })
			},
			func() {
				ids[1], _ = l.tr.do(req, 0, "server", "exec", func() {
					var res *sc.QueryResult
					if res, err = server.ExecAnswer(sess, areq); err == nil {
						_, err = json.Marshal(server.BuildAnswerResponse(res, false))
					}
				})
			},
			func() {
				ids[2], _ = l.tr.do(req, 0, "server", "handler_miss", func() { status, _ = miss.serve(path, q.body) })
			},
		}
		for k := range depths {
			depths[(n+k)%len(depths)]()
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("miss onion, request %d: status %d, err %v", n, status, err)
			}
		}
		l.tr.adopt(ids[0], ids[1])
		l.tr.adopt(ids[1], ids[2])
	}

	// Warm the pool on both in-process shards, then replay hits.
	pool := queries[:min(len(queries), hotPool)]
	for _, q := range pool {
		for _, p := range []*inProc{hit, replica} {
			if status, _ := p.serve(path, q.body); status != http.StatusOK {
				return fmt.Errorf("warming the hit onion: status %d", status)
			}
		}
	}
	draws := zipfDraws(l.r.rng("trace/hits"), len(pool), hitRequests)
	var want []byte
	hitLoop := func(tr *tracer) error {
		for _, idx := range draws {
			q := pool[idx]
			req := l.nextReq()
			var status int
			var body []byte
			var err error
			hitID, _ := tr.do(req, 0, "server", "handler_hit", func() { status, want = hit.serve(path, q.body) })
			if status != http.StatusOK {
				return fmt.Errorf("handler (hit): status %d", status)
			}
			httpID, _ := tr.do(req, 0, "server", "http_hit", func() { status, body, err = cn.post(hit.ts.URL+path, q.body) })
			if err != nil || status != http.StatusOK || !bytes.Equal(body, want) {
				return fmt.Errorf("loopback hit: status %d, err %v, same bytes %v", status, err, bytes.Equal(body, want))
			}
			tr.adopt(hitID, httpID)
			routedID, _ := tr.do(req, 0, "cluster", "routed_hit", func() { status, body, err = cn.post(front.URL+path, q.body) })
			if err != nil || status != http.StatusOK || !bytes.Equal(body, want) {
				return fmt.Errorf("routed hit: status %d, err %v, same bytes %v", status, err, bytes.Equal(body, want))
			}
			tr.adopt(httpID, routedID)
		}
		return nil
	}
	// The same loop with the tracer off prices the tracing: alternate the
	// two and compare medians.
	var traced, untraced []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := hitLoop(l.tr); err != nil {
			return err
		}
		traced = append(traced, time.Since(t0).Seconds())
		t0 = time.Now()
		if err := hitLoop(newTracer(false)); err != nil {
			return err
		}
		untraced = append(untraced, time.Since(t0).Seconds())
	}
	l.add("trace.overhead_pct", 100*(median(traced)-median(untraced))/median(untraced))
	return nil
}

// place times ring placement alone.
func (l *layerRun) place() {
	ring := cluster.NewRing([]string{"127.0.0.1:9001", "127.0.0.1:9002"}, 0)
	t0 := time.Now()
	for i := 0; i < placeCalls; i++ {
		ring.Place("wide", 2)
	}
	l.add("cluster.place_ns", float64(time.Since(t0).Nanoseconds())/placeCalls)
}
