package queryans

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
)

// benchWorld is goldenQueryWorld scaled to nSrc sources for the planner
// benchmark.
func benchWorld(tb testing.TB, nSrc int) (*dataset.Dataset, Config) {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(nSrc)))
	d := dataset.New()
	nObj := 40
	objs := make([]model.ObjectID, nObj)
	for i := range objs {
		objs[i] = model.Obj(fmt.Sprintf("o%02d", i), "v")
	}
	acc := map[model.SourceID]float64{}
	inClique := map[model.SourceID]bool{}
	for s := 0; s < nSrc; s++ {
		id := model.SourceID(fmt.Sprintf("S%03d", s))
		acc[id] = 0.55 + 0.1*float64(s%5)
		for i := 0; i < nObj; i++ {
			v := fmt.Sprintf("T%d", i)
			if rng.Intn(4) == 0 {
				v = fmt.Sprintf("F%d_%d", i, rng.Intn(3))
			}
			_ = d.Add(model.NewClaim(id, objs[i], v))
		}
		if s%4 == 0 {
			inClique[id] = true
		}
	}
	d.Freeze()
	cfg := DefaultConfig()
	cfg.Accuracy = acc
	cfg.Dependence = func(a, b model.SourceID) float64 {
		if inClique[a] && inClique[b] {
			return 0.9
		}
		return 0
	}
	return d, cfg
}

// Edge-case coverage for probe selection on the Planner.Answer path (the
// tests keep the name of the lazy-greedy selection they were written
// against): each case is pinned reflect.DeepEqual against the map-based
// reference, so the selection, the dense slot state and
// the incremental group scores reproduce the reference bit-for-bit at the
// boundaries (no candidates, duplicate coverage mass, a probe cap tighter
// than the candidate pool, early stop). These worlds have 12 sources and
// never settle their coverage; TestSelectionSaturation has the ones that do.

func TestLazyGreedyEdgeCases(t *testing.T) {
	d, base := goldenQueryWorld(t, 42)
	objs := d.Objects()
	ghost := []model.ObjectID{model.Obj("ghost1", "v"), model.Obj("ghost2", "v")}

	cases := []struct {
		name  string
		query []model.ObjectID
		mut   func(*Config)
	}{
		{"all-unknown objects", ghost, func(c *Config) {}},
		{"duplicate query objects",
			[]model.ObjectID{objs[2], objs[2], objs[5], objs[2], objs[5]},
			func(c *Config) {}},
		{"duplicates with unknowns",
			[]model.ObjectID{objs[2], ghost[0], objs[2], ghost[0]},
			func(c *Config) {}},
		{"MaxSources below candidate count", objs[:6],
			func(c *Config) { c.MaxSources = 2 }},
		{"MaxSources of one", objs[:6],
			func(c *Config) { c.MaxSources = 1 }},
		{"MaxSources above candidate count", objs[:6],
			func(c *Config) { c.MaxSources = 10000 }},
		{"StopProb early exit", objs[:6],
			func(c *Config) { c.StopProb = 0.5 }},
		{"StopProb unreachable", objs[:6],
			func(c *Config) { c.StopProb = 0.999999 }},
		{"single object", objs[3:4], func(c *Config) {}},
	}
	for _, tc := range cases {
		for _, pol := range []Policy{GreedyGain, AccuracyCoverage, ByID} {
			cfg := base
			cfg.Policy = pol
			tc.mut(&cfg)
			want, err := answerObjectsMaps(d, tc.query, cfg)
			if err != nil {
				t.Fatalf("%s/%v: reference: %v", tc.name, pol, err)
			}
			got, err := AnswerObjects(d, tc.query, cfg)
			if err != nil {
				t.Fatalf("%s/%v: %v", tc.name, pol, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%v: compiled trace differs from map reference", tc.name, pol)
			}
		}
	}
}

// satSource is one source of a saturationWorld: its accuracy, the value it
// claims for the contested object o0, whether it also claims the extra object
// o6, and whether it claims nothing else (not o1..o5).
type satSource struct {
	acc    float64
	split  int
	extra  bool
	narrow bool
}

// saturationWorld is a world of nSrc sources that (but for the narrow ones)
// all claim objects o0..o5. o0 is contested between "split0" and "split1";
// on the rest the sources mostly agree. Dependence is a clique of every fourth source plus a thin
// scatter of small values — sparse enough that the independent mass is still
// there to round the coverage to 1.
func saturationWorld(t *testing.T, nSrc int, spec func(s int) satSource) (*dataset.Dataset, map[model.SourceID]float64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(nSrc)))
	d := dataset.New()
	acc := map[model.SourceID]float64{}
	for s := 0; s < nSrc; s++ {
		id, src := model.SourceID(fmt.Sprintf("S%03d", s)), spec(s)
		acc[id] = src.acc
		_ = d.Add(model.NewClaim(id, model.Obj("o0", "v"), fmt.Sprintf("split%d", src.split)))
		for i := 1; i < 6 && !src.narrow; i++ {
			v := fmt.Sprintf("T%d", i)
			if rng.Intn(4) == 0 {
				v = fmt.Sprintf("F%d_%d", i, rng.Intn(3))
			}
			_ = d.Add(model.NewClaim(id, model.Obj(fmt.Sprintf("o%d", i), "v"), v))
		}
		if src.extra {
			_ = d.Add(model.NewClaim(id, model.Obj("o6", "v"), "T6"))
		}
	}
	d.Freeze()
	depTab := make([]float64, nSrc*nSrc)
	for a := 0; a < nSrc; a++ {
		for b := a + 1; b < nSrc; b++ {
			var v float64
			switch {
			case a%4 == 0 && b%4 == 0:
				v = 0.9
			case rng.Intn(10) == 0:
				v = 0.2 * rng.Float64()
			case rng.Intn(60) == 0:
				// A session's table sums two directions' posteriors, and the
				// sum can round over 1: the factor 1−v, and every product it
				// enters, goes negative — gains that settle to −0, not +0.
				v = 1 + 0x1p-52
			}
			depTab[a*nSrc+b], depTab[b*nSrc+a] = v, v
		}
	}
	return d, acc, depTab
}

// settledAfter returns the number of leading steps of an uncapped GreedyGain
// trace chosen at a positive gain: the probe that settles the last slot's
// coverage is the last of them.
func settledAfter(res *Result) int {
	n := 0
	for n < len(res.Steps) && res.Steps[n].Gain > 0 {
		n++
	}
	return n
}

// tailStop returns a StopProb first met after more than from+1 probes — for
// from = settledAfter, not before the second probe of the id-order tail: the
// least answer probability of such a step that exceeds every earlier step's
// and is below 1. ok is false when the trace has no such step.
func tailStop(res *Result, from int) (stop float64, ok bool) {
	best := 0.0
	for i, st := range res.Steps {
		least := 1.0
		for _, a := range st.Answers {
			if a.Value == "" {
				least = 0
			}
			least = min(least, a.Prob)
		}
		if i > from && least > best && least < 1 {
			return least, true
		}
		best = max(best, least)
	}
	return 0, false
}

// TestSelectionSaturation pins selection against the map oracle on worlds
// where GreedyGain's coverage settles mid-plan and the planner stops
// choosing: the full trace, reflect.DeepEqual, under all three policies, the
// three dependence forms, with the probe cap one
// below, at and one above the settling probe and an early stop that only the
// tail can reach; Final is held to the trace on every configuration.
func TestSelectionSaturation(t *testing.T) {
	// Five accuracy levels that collide, o0 split by id parity.
	levels := func(s int) satSource { return satSource{acc: 0.55 + 0.1*float64(s%5), split: s % 2} }
	midPlan := func(n, nSrc int) bool { return n >= 5 && n <= nSrc-20 }
	worlds := []struct {
		name string
		nSrc int
		spec func(s int) satSource
		// settles reports whether n, the number of probes chosen at a
		// positive gain, is what the world was built to show.
		settles func(n, nSrc int) bool
		// stops: the world must have an early stop only the tail reaches.
		stops bool
	}{
		{"mid-plan", 72, levels, midPlan, false},
		{"certain source", 64, func(s int) satSource {
			src := levels(s)
			switch {
			case s == 40:
				src.acc = 1 // settles every slot in one probe
			case s%9 == 0:
				src.acc = 0 // gain 0 from the first round
			}
			return src
		}, func(n, nSrc int) bool { return n == 1 }, false},
		{"all accuracy zero", 60, func(s int) satSource { return satSource{split: s % 2} },
			func(n, nSrc int) bool { return n == 0 }, false},
		// o6 has four claimants of accuracy 0.3: its coverage never rounds to
		// 1, so there is no tail — once the other slots settle every gain is
		// +0 and the scan, still running, takes the first unprobed candidate.
		{"thin slot never settles", 68, func(s int) satSource {
			src := levels(s)
			if s >= 17 && s < 21 {
				src.acc, src.extra = 0.3, true
			}
			return src
		}, midPlan, false},
		// Two certain sources settle everything in two probes — S010 covers
		// o0..o5, then S050, o6's only claimant — and disagree about o0, which
		// sits at one half when the tail begins; everyone else sides with
		// S050, one tail probe at a time.
		{"stop inside the tail", 64, func(s int) satSource {
			switch s {
			case 10:
				return satSource{acc: 1, split: 0}
			case 50:
				return satSource{acc: 1, split: 1, extra: true, narrow: true}
			}
			return satSource{acc: levels(s).acc, split: 1}
		}, func(n, nSrc int) bool { return n == 2 }, true},
	}
	for _, w := range worlds {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			d, accOf, depTab := saturationWorld(t, w.nSrc, w.spec)
			planners, oracleCfg := plannersOver(t, d, accOf, depTab)
			objs := d.Objects()
			ghost := model.Obj("ghost", "v")
			queries := map[string][]model.ObjectID{
				"all":  objs,
				"dups": {objs[2], objs[0], ghost, objs[2], objs[len(objs)-1], objs[2], objs[0]},
			}
			for depName, base := range planners {
				for qName, q := range queries {
					ref := oracleCfg
					if depName == "nil" {
						ref.Dependence = nil
					}
					full, err := answerObjectsMaps(d, q, ref)
					if err != nil {
						t.Fatal(err)
					}
					n := settledAfter(full)
					if !w.settles(n, w.nSrc) {
						t.Fatalf("dep=%s query=%s: %d of %d probes were chosen at a positive gain; the world was built for another count",
							depName, qName, n, len(full.Steps))
					}
					stops := []float64{0}
					if stop, ok := tailStop(full, n); ok {
						stops = append(stops, stop)
					} else if w.stops && qName == "all" { // the ghost in "dups" is never answered
						t.Fatalf("dep=%s query=%s: no early stop is reachable only after probe %d", depName, qName, n)
					}
					for _, pol := range []Policy{GreedyGain, AccuracyCoverage, ByID} {
						for _, maxSrc := range []int{0, n - 1, n, n + 1} {
							if maxSrc < 0 || (maxSrc == 0 && n <= 1 && pol != GreedyGain) {
								continue
							}
							for _, stop := range stops {
								ref.Policy, ref.MaxSources, ref.StopProb = pol, maxSrc, stop
								want, err := answerObjectsMaps(d, q, ref)
								if err != nil {
									t.Fatal(err)
								}
								if stop > 0 && pol == GreedyGain && maxSrc == 0 && len(want.Steps) < n+2 {
									t.Fatalf("dep=%s query=%s: StopProb %v stopped at probe %d, not inside the tail after %d",
										depName, qName, stop, len(want.Steps), n)
								}
								cfg := DefaultConfig()
								cfg.Policy, cfg.MaxSources, cfg.StopProb = pol, maxSrc, stop
								p, err := base.Derive(cfg)
								if err != nil {
									t.Fatal(err)
								}
								where := fmt.Sprintf("dep=%s query=%s policy=%v max=%d stop=%v (settles after %d)",
									depName, qName, pol, maxSrc, stop, n)
								got, err := p.Answer(q)
								if err != nil {
									t.Fatalf("%s: %v", where, err)
								}
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("%s: compiled trace differs from the map reference", where)
								}
								for i, st := range got.Steps { // DeepEqual holds −0 equal to +0; JSON does not
									if math.Signbit(st.Gain) != math.Signbit(want.Steps[i].Gain) {
										t.Fatalf("%s: step %d gain is %v, the reference's %v", where, i, st.Gain, want.Steps[i].Gain)
									}
								}
								assertFinalMatchesTrace(t, p, q, where)
							}
						}
					}
				}
			}
		})
	}
}

// TestLazyGreedyEmptyQuery pins that both paths reject an empty query.
func TestLazyGreedyEmptyQuery(t *testing.T) {
	d, cfg := goldenQueryWorld(t, 42)
	if _, err := answerObjectsMaps(d, nil, cfg); err == nil {
		t.Fatal("reference accepted an empty query")
	}
	if _, err := AnswerObjects(d, nil, cfg); err == nil {
		t.Fatal("compiled path accepted an empty query")
	}
	p, err := NewPlanner(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Answer(nil); err == nil {
		t.Fatal("planner accepted an empty query")
	}
}

// TestPlannerScratchReuseAcrossQueries pins that a recycled scratch cannot
// leak state between requests: interleaved queries of different shapes
// through one planner match fresh one-shot runs every time.
func TestPlannerScratchReuseAcrossQueries(t *testing.T) {
	d, cfg := goldenQueryWorld(t, 7)
	objs := d.Objects()
	p, err := NewPlanner(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := objs[len(objs)-1]
	queries := [][]model.ObjectID{
		objs,
		objs[:3],
		{objs[1], objs[1], objs[9]},
		{model.Obj("ghost", "v")},
		objs[:17],
		{last, model.Obj("ghost", "v"), last},
	}
	for round := 0; round < 3; round++ {
		for qi, q := range queries {
			want, err := AnswerObjects(d, q, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d query %d: reused planner differs from one-shot", round, qi)
			}
		}
	}
}

// TestDeriveMatchesDense pins that a derived planner answers identically to
// a fresh dense planner under the same overridden configuration.
func TestDeriveMatchesDense(t *testing.T) {
	d, cfg := goldenQueryWorld(t, 21)
	c := d.Compiled()
	nS := c.NumSources()
	acc := make([]float64, nS)
	for i := range acc {
		acc[i] = cfg.Accuracy[c.Source(i)]
	}
	depTab := make([]float64, nS*nS)
	for i := 0; i < nS; i++ {
		for j := 0; j < nS; j++ {
			depTab[i*nS+j] = cfg.Dependence(c.Source(i), c.Source(j))
		}
	}
	base := cfg
	base.Accuracy = nil
	base.Dependence = nil
	parent, err := NewPlannerDense(d, base, acc, depTab)
	if err != nil {
		t.Fatal(err)
	}
	objs := d.Objects()
	for _, mut := range []func(*Config){
		func(c *Config) { c.Policy = AccuracyCoverage },
		func(c *Config) { c.MaxSources = 3 },
		func(c *Config) { c.StopProb = 0.6 },
		func(c *Config) { c.N = 50 }, // forces a weight recompute
	} {
		over := base
		mut(&over)
		derived, err := parent.Derive(over)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewPlannerDense(d, over, acc, depTab)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Answer(objs[:8])
		if err != nil {
			t.Fatal(err)
		}
		got, err := derived.Answer(objs[:8])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("derived planner differs from fresh dense planner")
		}
	}
	// Invalid overrides surface Validate errors.
	bad := base
	bad.MaxSources = -1
	if _, err := parent.Derive(bad); err == nil {
		t.Fatal("Derive accepted an invalid config")
	}
}

// BenchmarkPlannerAnswerMicro is the in-package micro form of the root
// BenchmarkPlannerAnswer: one precompiled planner answering a 5-object
// query over small map-configured worlds, cheap enough for -benchtime
// sweeps while iterating on the planner.
func BenchmarkPlannerAnswerMicro(b *testing.B) {
	for _, n := range []int{12, 48} {
		b.Run(fmt.Sprintf("sources=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			d, cfg := benchWorld(b, n)
			p, err := NewPlanner(d, cfg)
			if err != nil {
				b.Fatal(err)
			}
			query := d.Objects()[:5]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Answer(query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
