package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	sc "sourcecurrents"
	"sourcecurrents/internal/cluster"
	"sourcecurrents/internal/eval"
	"sourcecurrents/internal/server"
)

// params sizes a run. Everything but seconds is fixed for measured runs;
// -quick shrinks all of it so the whole suite smoke-tests in seconds.
type params struct {
	seconds      int
	setupReps    int // set-ups per run; setup_s is their median
	probeBatches int // appends of the write probe
	quick        bool
	trace        bool
}

func defaultParams(seconds int) params {
	return params{seconds: seconds, setupReps: 3, probeBatches: 32}
}

func quickParams() params {
	return params{seconds: 2, setupReps: 1, probeBatches: 16, quick: true}
}

func (p params) world(s worldSpec) worldSpec {
	if p.quick {
		return s.quickened()
	}
	return s
}

const (
	hotPool    = 32
	ingestPool = 16
	// drawsPerClient bounds a client's pre-drawn Zipf sequence; a client
	// that outruns it wraps around, which changes no hit ratio.
	drawsPerClient = 1 << 16
	uniqueQueries  = 1 << 13
	asOfShare      = 0.10
	// readsPerAppend is ingest_mixed's traffic mix: after each append, this
	// many reads.
	readsPerAppend = 128
	// ingestObjEvery and probeObjEvery place the object-major batches: every
	// third append of ingest_mixed (its 2:1 mix), every sixteenth of the
	// write probe, whose world pays a second for each.
	ingestObjEvery = 3
	probeObjEvery  = 16
	// ingestBatchesPerSecond sizes ingest_mixed's schedule beyond what the
	// fleet can take in the time; held-out objects cap it.
	ingestBatchesPerSecond = 8
	// gateQueries caps the byte-agreement checks that cost a fresh plan per
	// shard (anything asked right after an append, or of a cold replica).
	gateQueries = 4
)

// run carries one workload run's inputs and everything it measured.
type run struct {
	h    *harness
	wl   string
	seed int64
	p    params

	e2e       map[string]float64
	layer     map[string]float64
	samples   map[string]int
	hashes    map[string]string
	attempted int64
	failed    int64
	gates     []string // correctness gates that failed
	notes     []string

	// gapReadP50us is the fleet's median read on the world the traced read
	// onion replays, for currents.process_gap_us.
	gapReadP50us float64
}

func newRun(h *harness, wl string, seed int64, p params) *run {
	return &run{h: h, wl: wl, seed: seed, p: p,
		e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}, hashes: map[string]string{}}
}

// gate records a correctness condition; a run with a failed gate is not
// correct, whatever its timings.
func (r *run) gate(ok bool, format string, args ...any) {
	if !ok {
		r.gates = append(r.gates, fmt.Sprintf(format, args...))
	}
}

// lap notes how long a step of the run took, for the stderr report.
func (r *run) lap(what string, since time.Time) {
	r.notes = append(r.notes, fmt.Sprintf("%s took %.2fs", what, time.Since(since).Seconds()))
}

func (r *run) count(what string, t *tally) {
	r.attempted += t.attempted
	r.failed += t.failed
	if t.firstErr != nil {
		r.notes = append(r.notes, fmt.Sprintf("%s: first failure: %v", what, t.firstErr))
	}
}

func (r *run) rng(stream string) *rand.Rand {
	return rand.New(rand.NewSource(worldSeed(r.seed, r.wl+"/"+stream)))
}

// inputs is everything a fleet run sends, generated from the seed.
type inputs struct {
	w       *world
	pool    []query
	golden  [][]byte // pool answers at epoch 0, as first served
	unique  []query
	draws   [2][]int
	lags    []int
	batches []batch // the main phase's appends (ingest_mixed) or the write probe's
}

// plan is what distinguishes one fleet workload from another.
type plan struct {
	spec     worldSpec
	routed   bool
	pool     int
	unique   bool
	ingest   bool // the measured phase is the ingest; no write probe follows
	batches  int
	objEvery int
	main     func(r *run, f *fleet, in *inputs) (*phase, error)
}

func (r *run) genInputs(pl plan) (*inputs, error) {
	w, err := genWorld(r.p.world(pl.spec), r.seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w}
	rng := r.rng("streams")
	in.pool = genQueries(w, rng, pl.pool)
	if pl.unique {
		in.unique = genQueries(w, rng, uniqueQueries)
	}
	for c := range in.draws {
		in.draws[c] = zipfDraws(rng, len(in.pool), drawsPerClient)
	}
	in.lags = make([]int, drawsPerClient)
	for i := range in.lags {
		if rng.Float64() < asOfShare {
			in.lags[i] = 1 + rng.Intn(2)
		}
	}
	if in.batches, err = genBatches(w, rng, pl.batches, pl.objEvery); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *inputs) hash() string {
	h := newStreamHash()
	h.claims(in.w.base)
	h.queries(in.pool)
	h.queries(in.unique)
	h.ints(in.draws[0])
	h.ints(in.draws[1])
	h.ints(in.lags)
	h.batches(in.batches)
	return h.sum()
}

// setupSample is one set-up, timed.
type setupSample struct{ total, build, boot, ready time.Duration }

// setupFleet is the whole of a fleet workload's set-up: generate the world
// from the seed, write it as claims CSV, build the snapshot with the
// binary, boot the processes, take the first answer, warm the pool. It runs
// several times per run and setup_s is the median, so work a later change
// moves out of the measured phase into any of these steps shows.
func (r *run) setupFleet(pl plan) (*fleet, *inputs, setupSample, error) {
	var ss setupSample
	t0 := time.Now()
	in, err := r.genInputs(pl)
	if err != nil {
		return nil, nil, ss, err
	}
	name := in.w.spec.name
	dir, err := os.MkdirTemp(r.h.runDir, "fleet-")
	if err != nil {
		return nil, nil, ss, err
	}
	csv := filepath.Join(dir, name+".csv")
	if err := in.w.writeCSV(csv); err != nil {
		return nil, nil, ss, err
	}
	dirs := []string{filepath.Join(dir, "s0")}
	if pl.routed {
		dirs = append(dirs, filepath.Join(dir, "s1"))
	}
	for _, d := range dirs {
		if err := os.Mkdir(d, 0o755); err != nil {
			return nil, nil, ss, err
		}
	}
	snap := filepath.Join(dirs[0], name+".snap")
	if ss.build, err = r.h.runTool("snapshot "+name, "snapshot", "-o", snap, csv); err != nil {
		return nil, nil, ss, err
	}
	for _, d := range dirs[1:] {
		if err := copyFile(snap, filepath.Join(d, name+".snap")); err != nil {
			return nil, nil, ss, err
		}
	}
	f, err := r.h.bootFleet(name, dirs, pl.routed)
	if err != nil {
		return nil, nil, ss, err
	}
	ctl := newConn()
	defer ctl.close()
	if ss.ready, ss.boot, _, err = firstAnswer(ctl, f, f.shards[0], in.pool[0].body, nil); err != nil {
		return f, nil, ss, err
	}
	for _, s := range f.shards[1:] {
		if err := waitReady(ctl, s.p, "/readyz", 30*time.Second); err != nil {
			return f, nil, ss, err
		}
	}
	if pl.routed {
		if err := f.startRouter(ctl); err != nil {
			return f, nil, ss, err
		}
	}
	// Warm-up doubles as the routed == direct gate: each pool query is asked
	// once through the front door and once at the primary directly, and the
	// bytes must agree. Fault-free, the router reads from the primary only,
	// so the replica need not be warm; it answers the first gateQueries
	// directly too, which pins replica == primary without planning the whole
	// pool a second time.
	primary := cluster.NewRing(f.addrs(), 0).Primary(name)
	in.golden = make([][]byte, len(in.pool))
	// Two lanes, as in the measured phase: the planner's workers leave part
	// of the second core idle, and set-up runs three times per run.
	lane := func(c int) func() *tally {
		cn := newConn()
		return func() *tally {
			defer cn.close()
			t := &tally{}
			for i := c; i < len(in.pool); i += 2 {
				q := in.pool[i]
				status, body, err := cn.post(f.answerURL(f.base), q.body)
				if err != nil || status != http.StatusOK {
					t.fail(fmt.Errorf("warm-up query %d: status %d, err %v: %.200s", i, status, err, body))
					return t
				}
				in.golden[i] = append([]byte(nil), body...)
				for _, s := range f.shards {
					if s.addr != primary && i >= gateQueries {
						continue
					}
					_, direct, err := cn.post(f.answerURL(s.url()), q.body)
					if err != nil || !bytes.Equal(direct, in.golden[i]) {
						t.fail(fmt.Errorf("pool query %d: bytes through %s differ from shard %s directly (err %v)", i, f.base, s.addr, err))
					}
				}
			}
			return t
		}
	}
	if warm := runClients(lane(0), lane(1)); warm.firstErr != nil {
		return f, nil, ss, warm.firstErr
	}
	ss.total = time.Since(t0)
	return f, in, ss, nil
}

// firstAnswer waits for a freshly started shard to turn ready and takes one
// answer from it, returning exec→ready, exec→answer and the answer. With
// want set the answer must match it byte for byte.
func firstAnswer(ctl *conn, f *fleet, s *shard, body, want []byte) (ready, answered time.Duration, got []byte, err error) {
	if err := waitReady(ctl, s.p, "/readyz", 60*time.Second); err != nil {
		return 0, 0, nil, err
	}
	ready = time.Since(s.p.started)
	status, reply, err := ctl.post(f.answerURL(s.url()), body)
	answered = time.Since(s.p.started)
	if err != nil || status != http.StatusOK {
		return ready, answered, nil, fmt.Errorf("first answer from %s: status %d, err %v: %.200s", s.addr, status, err, reply)
	}
	if want != nil && !bytes.Equal(reply, want) {
		return ready, answered, nil, fmt.Errorf("first answer from %s differs from the answer it gave before it was killed", s.addr)
	}
	return ready, answered, append([]byte(nil), reply...), nil
}

// startRouter boots the router once the shards are ready — the order an
// operator uses, so the router's first probe round already sees them — and
// waits until its own health page lists every shard ready.
func (f *fleet) startRouter(ctl *conn) error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	if f.router, err = f.h.start("router "+addr, addr, "router", "-addr", addr, "-shards", f.ring(), "-rf", "2"); err != nil {
		return err
	}
	f.base = "http://" + addr
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := waitReady(ctl, f.router, "/healthz", 30*time.Second); err != nil {
			return err
		}
		_, body, err := ctl.get(f.base + "/healthz")
		var h struct {
			Shards []struct {
				Ready bool `json:"ready"`
			} `json:"shards"`
		}
		ready := err == nil && json.Unmarshal(body, &h) == nil && len(h.Shards) == len(f.shards)
		for _, s := range h.Shards {
			ready = ready && s.Ready
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router %s never saw every shard ready: %s", addr, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// phase is what a measured phase hands back for scoring.
type phase struct {
	length  time.Duration
	reads   *tally
	appends []time.Duration
	shards  promSample // start→end delta, summed over the shards
	router  promSample // start→end delta of the router, nil without one
	cpu     float64    // generator CPU seconds over the phase
	claims  int        // claims the dataset holds after the last append
	epoch   int        // epochs appended so far
}

// scrapeFleet reads the shards' pages (summed) and the router's.
func scrapeFleet(ctl *conn, f *fleet) (shards, router promSample, err error) {
	shards = promSample{}
	for _, s := range f.shards {
		one, err := scrape(ctl, s.addr)
		if err != nil {
			return nil, nil, err
		}
		shards.add(one)
	}
	if f.router != nil {
		if router, err = scrape(ctl, f.router.addr); err != nil {
			return nil, nil, err
		}
	}
	return shards, router, nil
}

// measured wraps a phase body with the start and end scrapes and the
// generator's CPU meter. Scrapes run on a control connection that is closed
// again before the body starts, so the phase itself sees two connections.
func measured(f *fleet, body func(start time.Time, ph *phase) error) (*phase, error) {
	ctl := newConn()
	s0, r0, err := scrapeFleet(ctl, f)
	ctl.close()
	if err != nil {
		return nil, err
	}
	ph := &phase{}
	cpu0, start := cpuSeconds(), time.Now()
	if err := body(start, ph); err != nil {
		return nil, err
	}
	ph.length = time.Since(start)
	ph.cpu = cpuSeconds() - cpu0
	s1, r1, err := scrapeFleet(ctl, f)
	ctl.close()
	if err != nil {
		return nil, err
	}
	ph.shards = s1.delta(s0)
	if r1 != nil {
		ph.router = r1.delta(r0)
	}
	return ph, nil
}

// answerShape is the structural check for a reply nothing else can vouch
// for byte by byte (a query asked once): it must decode, have probed at
// least one source, and answer every object asked.
func answerShape(body []byte, objects int) error {
	var resp server.AnswerResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("answer does not decode: %v", err)
	}
	if len(resp.Probed) == 0 || len(resp.Final) != objects {
		return fmt.Errorf("answer has %d probes and %d of %d objects", len(resp.Probed), len(resp.Final), objects)
	}
	return nil
}

// hotReadMain: two closed-loop clients draw from the warmed pool through
// the router. Every reply must equal the bytes the warm-up saw.
func hotReadMain(r *run, f *fleet, in *inputs) (*phase, error) {
	url := f.answerURL(f.base)
	return measured(f, func(start time.Time, ph *phase) error {
		until := start.Add(time.Duration(r.p.seconds) * time.Second)
		client := func(c int) func() *tally {
			cn, draws := newConn(), in.draws[c]
			return func() *tally {
				defer cn.close()
				return closedLoop(cn, start, until, func(i int) (request, bool) {
					idx := draws[i%len(draws)]
					want := in.golden[idx]
					return request{url: url, body: in.pool[idx].body, check: func(got []byte) error {
						if !bytes.Equal(got, want) {
							return fmt.Errorf("pool query %d: repeat differs from its first answer", idx)
						}
						return nil
					}}, true
				})
			}
		}
		ph.reads = runClients(client(0), client(1))
		return nil
	})
}

// coldPlanMain: one closed-loop client, every query asked exactly once, so
// every read misses the cache and plans. One client, because a plan is one
// core's work from start to finish: a second client on this one core would
// double every latency and add nothing to the rate, and the read's median
// would stop being the planner's.
func coldPlanMain(r *run, f *fleet, in *inputs) (*phase, error) {
	url := f.answerURL(f.base)
	return measured(f, func(start time.Time, ph *phase) error {
		until := start.Add(time.Duration(r.p.seconds) * time.Second)
		cn := newConn()
		defer cn.close()
		ph.reads = closedLoop(cn, start, until, func(i int) (request, bool) {
			if i >= len(in.unique) {
				return request{}, false
			}
			q := in.unique[i]
			return request{url: url, body: q.body, check: func(got []byte) error {
				return answerShape(got, len(q.objects))
			}}, true
		})
		return nil
	})
}

// appendAck decodes what an append reply must carry.
type appendAck struct {
	Epoch    int `json:"epoch"`
	Claims   int `json:"claims"`
	Replicas []struct {
		OK bool `json:"ok"`
	} `json:"replicas"`
}

// ackChecker verifies each acknowledgement: epochs advance by exactly one
// per batch, and every replica took the batch.
func ackChecker(ph *phase, replicas int) func(body []byte) error {
	return func(body []byte) error {
		var ack appendAck
		if err := json.Unmarshal(body, &ack); err != nil {
			return fmt.Errorf("append reply does not decode: %v", err)
		}
		if ack.Epoch != ph.epoch+1 {
			return fmt.Errorf("append acknowledged epoch %d, want %d", ack.Epoch, ph.epoch+1)
		}
		if len(ack.Replicas) != replicas {
			return fmt.Errorf("append to epoch %d: %d replica statuses, want %d", ack.Epoch, len(ack.Replicas), replicas)
		}
		for _, rep := range ack.Replicas {
			if !rep.OK {
				return fmt.Errorf("append to epoch %d: a replica refused the batch: %s", ack.Epoch, body)
			}
		}
		ph.epoch, ph.claims = ack.Epoch, ack.Claims
		return nil
	}
}

// ingestMain: one client sends a mixed stream through the router — an append
// batch, then readsPerAppend reads of the pool, a tenth of them aimed one or
// two epochs behind the append just acknowledged — for the measured seconds.
// Every swap re-keys the answer cache, so the first read of each pool query
// after an append plans again, and so does the first as-of read of a query at
// an epoch; an as-of read's bytes must repeat exactly, because an epoch is
// immutable. One request is in flight at a time: with an appender and a
// reader side by side on this box, what either saw was the kernel's split of
// one core between them (the median append and read_rps spread over 40 % and 25 %
// run to run).
func ingestMain(r *run, f *fleet, in *inputs) (*phase, error) {
	url := f.answerURL(f.base)
	return measured(f, func(start time.Time, ph *phase) error {
		until := start.Add(time.Duration(r.p.seconds) * time.Second)
		cn := newConn()
		defer cn.close()
		onAck := ackChecker(ph, len(f.shards)-1)
		appends := &tally{}
		ph.reads = &tally{}
		seen := map[string][]byte{}
		sent := 0
		next := func(i int) (request, bool) {
			if i == readsPerAppend {
				return request{}, false
			}
			k := sent % drawsPerClient
			sent++
			idx := in.draws[0][k]
			q := in.pool[idx]
			epoch := ph.epoch - in.lags[k]
			if in.lags[k] == 0 || epoch < 0 {
				return request{url: url, body: q.body, check: func(got []byte) error {
					return answerShape(got, len(q.objects))
				}}, true
			}
			key := strconv.Itoa(idx) + "@" + strconv.Itoa(epoch)
			return request{url: url + "?as_of=" + strconv.Itoa(epoch), body: q.body, check: func(got []byte) error {
				if first, ok := seen[key]; ok {
					if !bytes.Equal(first, got) {
						return fmt.Errorf("pool query %d as of epoch %d: repeat differs from its first answer", idx, epoch)
					}
					return nil
				}
				seen[key] = append([]byte(nil), got...)
				return answerShape(got, len(q.objects))
			}}, true
		}
		// Reads are stamped on a clock that stands still while an append is in
		// flight, so read_rps is reads per second of reading. An object-major
		// append costs anything from 0.25 s to 1.5 s depending on the epoch and
		// the object, and a rate that included them followed the cheapest few
		// of the run; what appends cost is append_p10_ms's to say.
		var appending time.Duration
		for b := 0; b < len(in.batches) && time.Now().Before(until); b++ {
			t0 := time.Now()
			lat, t := appendBatches(cn, f.appendURL(), in.batches[b:b+1], onAck)
			appending += time.Since(t0)
			ph.appends = append(ph.appends, lat...)
			appends.merge(t)
			ph.reads.merge(closedLoop(cn, start.Add(appending), until, next))
		}
		r.count("appends", appends)
		return nil
	})
}

// writeProbe is the short ingest every workload that is not itself about
// ingest ends with: source-major batches with an object-major one every
// sixteenth, one at a time. It puts append cost on this workload's world and
// topology on the record and leaves segments for the restart to replay.
func (r *run) writeProbe(f *fleet, batches []batch) (*phase, error) {
	return measured(f, func(start time.Time, ph *phase) error {
		cn := newConn()
		defer cn.close()
		var t *tally
		ph.appends, t = appendBatches(cn, f.appendURL(), batches, ackChecker(ph, len(f.shards)-1))
		ph.reads = &tally{}
		r.count("write probe", t)
		return nil
	})
}

// restartProbe crashes every shard and reboots it on its directory: the
// first answer must equal, byte for byte, the answer the shard gave before
// it was killed. Returns the exec→answer times.
func (r *run) restartProbe(f *fleet, q query) ([]time.Duration, error) {
	if f.router != nil {
		f.router.stop()
	}
	ctl := newConn()
	defer ctl.close()
	var out []time.Duration
	for _, s := range f.shards {
		status, body, err := ctl.post(f.answerURL(s.url()), q.body)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("pre-kill answer from %s: status %d, err %v", s.addr, status, err)
		}
		want := append([]byte(nil), body...)
		s.p.kill()
		ctl.close()
		if err := r.h.startShard(s, f.ring()); err != nil {
			return nil, err
		}
		r.attempted++
		_, answered, _, err := firstAnswer(ctl, f, s, q.body, want)
		if err != nil {
			r.failed++
			r.gate(false, "restart of shard %s: %v", s.addr, err)
		} else {
			out = append(out, answered)
		}
		s.p.kill()
		ctl.close()
	}
	return out, nil
}

// quality scores what the program serves against the generator's ground
// truth: the share of objects whose served fused value is the true one, and
// the F1 of the copier pairs the snapshot records against the planted ones.
func quality(ctl *conn, f *fleet, s *shard, w *world, snap string) (truthAcc, copyF1 float64, err error) {
	status, body, err := ctl.post(s.url()+"/v1/"+f.dataset+"/fuse", nil)
	if err != nil || status != http.StatusOK {
		return 0, 0, fmt.Errorf("fuse on %s: status %d, err %v", s.addr, status, err)
	}
	var fr server.FuseResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		return 0, 0, err
	}
	right := 0
	for _, o := range fr.Objects {
		if v, ok := w.truth.TrueNow(sc.Obj(o.Entity, o.Attribute)); ok && v == o.Value {
			right++
		}
	}
	if len(fr.Objects) != len(w.objects) {
		return 0, 0, fmt.Errorf("fuse served %d objects, the world has %d", len(fr.Objects), len(w.objects))
	}
	truthAcc = float64(right) / float64(len(fr.Objects))

	sess, err := sc.LoadSessionFile(snap, sc.DefaultSessionConfig())
	if err != nil {
		return 0, 0, err
	}
	defer sess.Close()
	dep := sess.Dependence()
	if dep == nil {
		return 0, 0, errors.New("snapshot carries no dependence result")
	}
	detected := make([]sc.SourcePair, len(dep.Dependences))
	for i, d := range dep.Dependences {
		detected[i] = d.Pair
	}
	return truthAcc, eval.PairPRF(detected, w.copies).F1, nil
}

// readScores turns a phase's reads into the three read metrics.
func (r *run) readScores(reads *tally, period int) {
	rps, p50, p95 := readSlices(reads.samples, r.p.seconds, period)
	r.e2e["read_rps"] = bestDecile(rps, true)
	r.e2e["read_p50_ms"] = bestDecile(p50, false)
	r.e2e["read_p95_ms"] = bestDecile(p95, false)
	r.samples["read"] = len(reads.samples)
}

func (r *run) appendScores(appends []time.Duration) {
	lat := durationsMs(appends)
	r.e2e["append_p10_ms"] = bestDecile(lat, false)
	r.layer["currents.append_p95_ms"] = percentile(lat, 95)
	r.samples["append"] = len(lat)
}

// medianMs is the median of a sample of durations, in milliseconds.
func medianMs(ds []time.Duration) float64 { return median(durationsMs(ds)) }

// scrapedLayers records the per-layer figures that come from the programs'
// own counters over the measured phase.
func (r *run) scrapedLayers(ph *phase) {
	hits := ph.shards.sum("currents_answer_cache_hits_total")
	misses := ph.shards.sum("currents_answer_cache_misses_total")
	r.layer["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	r.layer["server.cache_evictions"] = ph.shards.sum("currents_answer_cache_evictions_total")
	r.layer["server.cache_flushes"] = ph.shards.sum("currents_answer_cache_flushes_total")
	r.layer["server.coalesced"] = ph.shards.sum("currents_answer_coalesced_total")
	r.layer["server.answer_mean_us"] = 1e6 * ratio(
		ph.shards[`currents_request_duration_seconds_sum{op="answer"}`],
		ph.shards[`currents_request_duration_seconds_count{op="answer"}`])
	for _, k := range []string{"retries", "failovers", "hedges", "replica_append_errors", "repairs", "shard_mean_us"} {
		r.layer["cluster."+k] = 0 // no router, nothing routed
	}
	if ph.router != nil {
		r.layer["cluster.retries"] = ph.router.sum("currents_router_retries_total")
		r.layer["cluster.failovers"] = ph.router.sum("currents_router_failovers_total")
		r.layer["cluster.hedges"] = ph.router.sum("currents_router_hedged_requests_total")
		r.layer["cluster.replica_append_errors"] = ph.router.sum("currents_router_replica_append_errors_total")
		r.layer["cluster.repairs"] = ph.router.sum("currents_router_repairs_total")
		r.layer["cluster.shard_mean_us"] = 1e6 * ratio(
			ph.router.sum("currents_router_request_duration_seconds_sum"),
			ph.router.sum("currents_router_request_duration_seconds_count"))
	}
	r.layer["gen.cpu_share"] = ratio(ph.cpu, ph.length.Seconds())
}

// finish is the second half of every run's life: ingest (the write probe,
// unless the main phase already was the ingest), the agreement gates, then
// crash and restart. It sets the append and restart metrics and returns the
// shard directory's bytes per claim held.
func (r *run) finish(f *fleet, pool []query, ph *phase, probe []batch) (float64, error) {
	if probe != nil {
		t := time.Now()
		var err error
		if ph, err = r.writeProbe(f, probe); err != nil {
			return 0, err
		}
		r.lap("write probe", t)
	}
	r.appendScores(ph.appends)
	epoch := ph.epoch

	// After the last acknowledgement every replica must stand at the same
	// epoch and serve the same bytes, through the front door and directly,
	// for the current epoch and for the same epoch addressed as-of.
	ctl := newConn()
	defer ctl.close()
	// Lag is read off the shards themselves. The router's own lag gauge is
	// as old as its last anti-entropy scan, and a scan that lands between a
	// primary's append and its replica's sees a lag that is already gone.
	for _, s := range f.shards {
		page, err := scrape(ctl, s.addr)
		if err != nil {
			return 0, err
		}
		got := page[fmt.Sprintf("currents_dataset_epoch{dataset=%q}", f.dataset)]
		r.gate(got == float64(epoch), "after %d appends shard %s reports epoch %v", epoch, s.addr, got)
	}
	for i, q := range pool {
		_, front, err := ctl.post(f.answerURL(f.base), q.body)
		if err != nil {
			return 0, err
		}
		final := append([]byte(nil), front...)
		r.gate(answerShape(final, len(q.objects)) == nil, "pool query %d: malformed answer at epoch %d", i, epoch)
		for _, s := range f.shards {
			for _, suffix := range []string{"", "?as_of=" + strconv.Itoa(epoch)} {
				_, direct, err := ctl.post(f.answerURL(s.url())+suffix, q.body)
				r.gate(err == nil && bytes.Equal(direct, final),
					"pool query %d at epoch %d: shard %s%s differs from the front door's answer (err %v)", i, epoch, s.addr, suffix, err)
			}
		}
	}
	ctl.close()

	t := time.Now()
	restarts, err := r.restartProbe(f, pool[0])
	if err != nil {
		return 0, err
	}
	r.lap("restarts", t)
	r.layer["currents.restart_to_answer_ms"] = medianMs(restarts)
	r.samples["restart"] = len(restarts)

	var disk int64
	for _, s := range f.shards {
		n, err := dirBytes(s.dir)
		if err != nil {
			return 0, err
		}
		disk += n
	}
	return float64(disk) / float64(len(f.shards)) / float64(ph.claims), nil
}

// runFleet is the life every fleet workload takes its fleet through: set up
// (several times, keeping the last), run the measured phase, ingest, crash,
// restart, and check at each step that the program's outputs are right.
func (r *run) runFleet(pl plan) error {
	var (
		f       *fleet
		in      *inputs
		setups  []float64
		builds  []time.Duration
		boots   []time.Duration
		readies []time.Duration
		last    setupSample
	)
	t := time.Now()
	for rep := 0; rep < r.p.setupReps; rep++ {
		if f != nil {
			f.stop()
			if err := os.RemoveAll(filepath.Dir(f.shards[0].dir)); err != nil {
				return err
			}
		}
		var err error
		if f, in, last, err = r.setupFleet(pl); err != nil {
			return fmt.Errorf("set-up %d: %w", rep, err)
		}
		setups = append(setups, last.total.Seconds())
		builds = append(builds, last.build)
		boots = append(boots, last.boot)
		readies = append(readies, last.ready)
	}
	defer f.stop()
	r.lap("set-ups", t)
	r.hashes["inputs"] = in.hash()
	r.e2e["setup_s"] = median(setups)
	r.samples["setup"] = len(setups)

	// One sample per set-up: too few for a bound, enough for a per-layer row.
	r.layer["currents.build_s"] = medianMs(builds) / 1000
	r.layer["currents.boot_to_answer_ms"] = medianMs(boots)
	r.layer["currents.exec_to_ready_ms"] = medianMs(readies)

	ctl := newConn()
	defer ctl.close()
	snap := filepath.Join(f.shards[0].dir, f.dataset+".snap")
	var err error
	if r.e2e["truth_accuracy"], r.e2e["copy_f1"], err = quality(ctl, f, f.shards[0], in.w, snap); err != nil {
		return err
	}
	ctl.close()

	t = time.Now()
	ph, err := pl.main(r, f, in)
	if err != nil {
		return err
	}
	r.lap("measured phase", t)
	r.count("reads", ph.reads)
	period := 1
	if pl.ingest {
		period = ingestObjEvery * readsPerAppend // one round of the batch mix
	}
	r.readScores(ph.reads, period)
	r.scrapedLayers(ph)
	r.gapReadP50us = 1000 * r.e2e["read_p50_ms"]

	probe := in.batches
	if pl.ingest {
		probe = nil // the main phase was the ingest
	}
	disk, err := r.finish(f, in.pool[:min(len(in.pool), gateQueries)], ph, probe)
	if err != nil {
		return err
	}
	r.e2e["disk_bytes_per_claim"] = disk

	switch r.wl {
	case "hot_read":
		r.gate(r.layer["server.cache_hit_ratio"] >= 0.99, "hot_read hit ratio %.4f < 0.99: the workload is not exercising the cache", r.layer["server.cache_hit_ratio"])
	case "cold_plan":
		r.gate(r.layer["server.cache_hit_ratio"] <= 0.01, "cold_plan hit ratio %.4f > 0.01: the workload is not bypassing the cache", r.layer["server.cache_hit_ratio"])
	}
	return nil
}

func (p params) fleetPlan(wl string) plan {
	switch wl {
	case "hot_read":
		return plan{spec: wideWorld, routed: true, pool: hotPool, batches: p.probeBatches, objEvery: probeObjEvery, main: hotReadMain}
	case "cold_plan":
		return plan{spec: wideWorld, pool: 8, unique: true, batches: p.probeBatches, objEvery: probeObjEvery, main: coldPlanMain}
	case "ingest_mixed":
		return plan{spec: midWorld, routed: true, pool: ingestPool, ingest: true,
			batches: min(ingestBatchesPerSecond*p.seconds, ingestObjEvery*heldOutObjects), objEvery: ingestObjEvery, main: ingestMain}
	}
	panic("no fleet plan for " + wl)
}

// runWorkload runs one workload once and scores it.
func (r *run) runWorkload() error {
	if err := r.runFleet(r.p.fleetPlan(r.wl)); err != nil {
		return err
	}
	r.layer["currents.peak_rss_mb"] = float64(r.h.peakRSS()) / 1024 // Linux reports max RSS in KiB
	return nil
}
