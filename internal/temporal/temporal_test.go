package temporal

import (
	"fmt"
	"math/rand"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
)

func obj(e string) model.ObjectID { return model.Obj(e, dataset.AffAttr) }

func TestValueClassString(t *testing.T) {
	for cl, want := range map[ValueClass]string{
		ClassCurrent: "current", ClassOutdated: "outdated",
		ClassEarly: "early", ClassFalse: "false",
	} {
		if cl.String() != want {
			t.Errorf("%d.String() = %q", int(cl), cl.String())
		}
	}
	if ValueClass(99).String() == "" {
		t.Error("unknown class should still render")
	}
}

func TestClassifyValue(t *testing.T) {
	w := dataset.Table3Truth()
	dong := obj("Dong")
	cases := []struct {
		v    string
		t    model.Time
		want ValueClass
	}{
		{"UW", 2003, ClassCurrent},
		{"UW", 2006, ClassOutdated},
		{"Google", 2006, ClassCurrent},
		{"Google", 2007, ClassOutdated},
		{"AT&T", 2007, ClassCurrent},
		{"AT&T", 2005, ClassEarly},
		{"MSR", 2006, ClassFalse},
	}
	for _, c := range cases {
		if got := ClassifyValue(w, dong, c.v, c.t); got != c.want {
			t.Errorf("ClassifyValue(Dong,%q,%d) = %v, want %v", c.v, c.t, got, c.want)
		}
	}
	if got := ClassifyValue(w, obj("nobody"), "x", 2000); got != ClassFalse {
		t.Errorf("unknown object = %v", got)
	}
}

func TestTable3NoFalseValues(t *testing.T) {
	// Example 3.2: "the availability of temporal information lets us infer
	// that S2 and S3 only provide out-of-date information, not false
	// information."
	d := dataset.Table3()
	w := dataset.Table3Truth()
	reports := ComputeMetrics(d, w)
	for _, s := range []model.SourceID{"S1", "S2", "S3"} {
		rep := reports[s]
		if rep.Census[ClassFalse] != 0 {
			t.Errorf("%s has %d false values: %v", s, rep.Census[ClassFalse], rep.ByClass[ClassFalse])
		}
	}
}

func TestTable3Metrics(t *testing.T) {
	d := dataset.Table3()
	w := dataset.Table3Truth()
	reports := ComputeMetrics(d, w)
	m1 := reports["S1"].Metrics
	m2 := reports["S2"].Metrics
	m3 := reports["S3"].Metrics
	if m1.Coverage != 1 {
		t.Errorf("S1 coverage = %v, want 1 (it is the up-to-date source)", m1.Coverage)
	}
	if m1.Exactness != 1 {
		t.Errorf("S1 exactness = %v", m1.Exactness)
	}
	if !(m2.Coverage < m1.Coverage) || !(m3.Coverage < m2.Coverage) {
		t.Errorf("coverage order wrong: S1=%v S2=%v S3=%v", m1.Coverage, m2.Coverage, m3.Coverage)
	}
	// The lazy copier has the largest mean capture lag.
	if !(m3.MeanLag > m1.MeanLag) || !(m3.MeanLag > m2.MeanLag) {
		t.Errorf("lag order wrong: S1=%v S2=%v S3=%v", m1.MeanLag, m2.MeanLag, m3.MeanLag)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*Config){
		func(c *Config) { c.Window = -1 },
		func(c *Config) { c.CopyRate = 0 },
		func(c *Config) { c.Alpha = 1 },
		func(c *Config) { c.OrderRho = 0.4 },
		func(c *Config) { c.OrderRho = 1 },
		func(c *Config) { c.MinSharedUpdates = 0 },
		func(c *Config) { c.DepThreshold = -0.1 },
	} {
		c := DefaultConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Fatalf("invalid config accepted: %+v", c)
		}
	}
}

func TestDetectRequiresFrozen(t *testing.T) {
	d := dataset.New()
	_ = d.Add(model.NewTemporalClaim("S1", obj("x"), "1", 1))
	if _, err := DetectPairs(d, DefaultConfig()); err == nil {
		t.Fatal("unfrozen dataset accepted")
	}
}

func TestTable3LazyCopierDetected(t *testing.T) {
	// Example 3.2: S3 is dependent on S1 (lazy copier); S2 is independent
	// of S1 because many of its updates precede or coincide with S1's.
	res, err := DetectPairs(dataset.Table3(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p13 := res.DependenceProb("S1", "S3")
	p12 := res.DependenceProb("S1", "S2")
	if p13 <= p12 {
		t.Fatalf("P(S1~S3)=%v should exceed P(S1~S2)=%v", p13, p12)
	}
	if p13 < 0.7 {
		t.Errorf("lazy copier posterior %v below threshold", p13)
	}
	if p12 >= 0.7 {
		t.Errorf("independent pair S1~S2 flagged: %v", p12)
	}
	// Direction: S3 is the copier of the S1~S3 pair.
	for _, dep := range res.AllPairs {
		if dep.Pair == model.NewSourcePair("S1", "S3") {
			copier, _ := dep.Copier()
			if copier != "S3" {
				t.Errorf("copier = %v, want S3", copier)
			}
		}
	}
}

func TestDependenceProbUnanalyzed(t *testing.T) {
	res := &Result{}
	if res.DependenceProb("A", "B") != 0 {
		t.Fatal("empty result should report 0")
	}
}

// synthTemporal generates a temporal world with independent publishers and
// one lazy copier of publisher P0.
func synthTemporal(seed int64, nObjects, horizon int, changeRate float64,
	copierLag int) (*dataset.Dataset, *model.World) {
	rng := rand.New(rand.NewSource(seed))
	w := model.NewWorld()
	d := dataset.New()
	type pub struct {
		id       model.SourceID
		maxDelay int // publication delay is uniform in [0, maxDelay]
		pCap     float64
	}
	pubs := []pub{
		{"P0", 2, 0.95},
		{"P1", 3, 0.9},
		{"P2", 4, 0.8},
	}
	for i := 0; i < nObjects; i++ {
		o := model.Obj(fmt.Sprintf("o%03d", i), "v")
		tr := model.Truth{Object: o}
		val := 0
		tr.Periods = append(tr.Periods, model.TruthPeriod{Start: 0, Value: fmt.Sprintf("v%d_0", i)})
		for t := 1; t < horizon; t++ {
			if rng.Float64() < changeRate {
				val++
				tr.Periods = append(tr.Periods,
					model.TruthPeriod{Start: model.Time(t), Value: fmt.Sprintf("v%d_%d", i, val)})
			}
		}
		w.Set(tr)
		// Independent publishers capture transitions with jittered delay:
		// they react to the real-world event, not to each other, so any of
		// them can lead on any given transition.
		p0Published := map[string]model.Time{}
		for _, p := range pubs {
			for _, per := range tr.Periods {
				if rng.Float64() > p.pCap {
					continue
				}
				t := per.Start + model.Time(rng.Intn(p.maxDelay+1))
				if p.id == "P0" {
					p0Published[per.Value] = t
				}
				_ = d.Add(model.NewTemporalClaim(p.id, o, per.Value, t))
			}
		}
		// Lazy copier C republishes P0's published updates with copierLag
		// after P0's publication (it reacts to P0, not to the event).
		for _, per := range tr.Periods {
			t0, ok := p0Published[per.Value]
			if !ok || rng.Float64() > 0.85 {
				continue
			}
			t := t0 + model.Time(1+rng.Intn(copierLag))
			_ = d.Add(model.NewTemporalClaim("C", o, per.Value, t))
		}
	}
	d.Freeze()
	return d, w
}

func TestSyntheticLazyCopier(t *testing.T) {
	d, _ := synthTemporal(31, 60, 20, 0.15, 3)
	res, err := DetectPairs(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// C~P0 must rank above every fully independent pair.
	pC := res.DependenceProb("C", "P0")
	for _, pair := range [][2]model.SourceID{{"P0", "P1"}, {"P0", "P2"}, {"P1", "P2"}} {
		if p := res.DependenceProb(pair[0], pair[1]); p >= pC {
			t.Errorf("independent pair %v prob %v >= copier prob %v", pair, p, pC)
		}
	}
	if pC < 0.7 {
		t.Errorf("copier posterior %v too low", pC)
	}
}

func TestEstimateWorldTable3(t *testing.T) {
	d := dataset.Table3()
	est := EstimateWorld(d, 2)
	// The estimate should recover S1's current values for the objects
	// where S1 leads (the weighted vote favors the exact source).
	want := dataset.Table3Truth()
	match := 0
	for _, o := range d.Objects() {
		got, ok1 := est.TrueNow(o)
		exp, ok2 := want.TrueNow(o)
		if ok1 && ok2 && got == exp {
			match++
		}
	}
	if match < 4 {
		t.Errorf("estimated world matches truth on %d/5 current values", match)
	}
}

func TestEstimateWorldEmptyAndRounds(t *testing.T) {
	d := dataset.New()
	d.Freeze()
	if w := EstimateWorld(d, 0); len(w.Truths) != 0 {
		t.Fatal("empty dataset should estimate empty world")
	}
}

func TestMatchUpdatesWindow(t *testing.T) {
	ta := []update{{o: obj("x"), v: "a", t: 0}}
	tb := []update{{o: obj("x"), v: "a", t: 10}}
	pop := map[model.ObjectID]map[string]int{obj("x"): {"a": 2}}
	got, misses := matchUpdates(ta, tb, pop, 2, 5)
	if len(got) != 0 {
		t.Fatalf("match outside window accepted: %v", got)
	}
	if misses != 1 {
		t.Fatalf("out-of-window shared value should count as a miss: %d", misses)
	}
	got, misses = matchUpdates(ta, tb, pop, 2, 15)
	if len(got) != 1 || got[0].lag != 10 {
		t.Fatalf("match = %+v", got)
	}
	if misses != 0 {
		t.Fatalf("misses = %d, want 0", misses)
	}
}

func TestMatchUpdatesLazyReassertionTrails(t *testing.T) {
	// A publishes v at 2; B asserts v at 1 and re-asserts at 3. The lag
	// must use B's LAST assertion, marking B as trailing.
	ta := []update{{o: obj("x"), v: "v", t: 2}}
	tb := []update{{o: obj("x"), v: "v", t: 1}, {o: obj("x"), v: "v", t: 3}}
	pop := map[model.ObjectID]map[string]int{obj("x"): {"v": 2}}
	got, _ := matchUpdates(ta, tb, pop, 3, 5)
	if len(got) != 1 || got[0].lag != 1 {
		t.Fatalf("lazy reassertion lag = %+v, want +1", got)
	}
}

func TestMatchUpdatesRarity(t *testing.T) {
	ta := []update{{o: obj("x"), v: "a", t: 0}}
	tb := []update{{o: obj("x"), v: "a", t: 1}}
	// 10 sources, nobody else makes this update: rarity 1.
	pop := map[model.ObjectID]map[string]int{obj("x"): {"a": 2}}
	got, _ := matchUpdates(ta, tb, pop, 10, 5)
	if len(got) != 1 || got[0].rarity != 1 {
		t.Fatalf("rare update weight = %+v", got)
	}
	// Everyone makes it: rarity small.
	pop[obj("x")]["a"] = 10
	got, _ = matchUpdates(ta, tb, pop, 10, 5)
	if len(got) != 1 || got[0].rarity >= 0.2 {
		t.Fatalf("popular update weight = %+v", got)
	}
}

func TestSlowIndependentNotFlagged(t *testing.T) {
	// Lazy-copier vs slow-provider challenge: a slow independent source
	// publishes AFTER the leader sometimes but BEFORE it other times
	// (because the leader also misses transitions). A copier never leads.
	rng := rand.New(rand.NewSource(77))
	d := dataset.New()
	w := model.NewWorld()
	for i := 0; i < 50; i++ {
		o := model.Obj(fmt.Sprintf("o%02d", i), "v")
		tr := model.Truth{Object: o, Periods: []model.TruthPeriod{{Start: 0, Value: fmt.Sprintf("u%d", i)}}}
		for t := 5; t < 40; t += 5 + rng.Intn(10) {
			tr.Periods = append(tr.Periods, model.TruthPeriod{Start: model.Time(t), Value: fmt.Sprintf("u%d_%d", i, t)})
		}
		w.Set(tr)
		for _, p := range tr.Periods {
			// Leader L: fast (delay 0-1) but misses 30%.
			captured := rng.Float64() < 0.7
			var lTime model.Time
			if captured {
				lTime = p.Start + model.Time(rng.Intn(2))
				_ = d.Add(model.NewTemporalClaim("L", o, p.Value, lTime))
			}
			// Slow independent S: captures 90% with delay 0-3 measured
			// from the EVENT — it leads L whenever L is slower or absent.
			if rng.Float64() < 0.9 {
				_ = d.Add(model.NewTemporalClaim("S", o, p.Value, p.Start+model.Time(rng.Intn(4))))
			}
			// Copier C: republishes L's updates 1-2 ticks after L.
			if captured && rng.Float64() < 0.9 {
				_ = d.Add(model.NewTemporalClaim("C", o, p.Value, lTime+model.Time(1+rng.Intn(2))))
			}
		}
	}
	d.Freeze()
	res, err := DetectPairs(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pLS := res.DependenceProb("L", "S")
	pLC := res.DependenceProb("L", "C")
	if pLC <= pLS {
		t.Errorf("copier pair %v should exceed slow-independent pair %v", pLC, pLS)
	}
}
