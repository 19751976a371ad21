package depen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/truth"
)

func obj(e string) model.ObjectID { return model.Obj(e, dataset.AffAttr) }

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*Config){
		func(c *Config) { c.CopyRate = 0 },
		func(c *Config) { c.CopyRate = 1 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.MinShared = 0 },
		func(c *Config) { c.DepThreshold = 1.5 },
		func(c *Config) { c.MaxRounds = 0 },
		func(c *Config) { c.Tol = 0 },
		func(c *Config) { c.Truth.N = 0 },
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
	_ = d.Add(model.NewClaim("S1", obj("x"), "1"))
	if _, err := Detect(d, DefaultConfig()); err == nil {
		t.Fatal("unfrozen dataset accepted")
	}
}

// knownTwo is the Example 3.1 side information: truth for two of the five
// researchers.
func knownTwo() map[model.ObjectID]string {
	return map[model.ObjectID]string{
		obj("Halevy"): "Google",
		obj("Dalvi"):  "Yahoo!",
	}
}

func TestTable1WithLabelsRecoversAllTruth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Truth.Known = knownTwo()
	res, err := Detect(dataset.Table1(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := dataset.Table1Truth()
	for o, v := range res.Truth.Chosen {
		want, _ := w.TrueNow(o)
		if v != want {
			t.Errorf("%v chosen %q, want %q", o, v, want)
		}
	}
	if !res.Converged {
		t.Error("expected convergence")
	}
}

func TestTable1WithLabelsFindsCopierClique(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Truth.Known = knownTwo()
	res, err := Detect(dataset.Table1(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[model.SourcePair]bool{
		model.NewSourcePair("S3", "S4"): true,
		model.NewSourcePair("S3", "S5"): true,
		model.NewSourcePair("S4", "S5"): true,
	}
	got := map[model.SourcePair]bool{}
	for _, dep := range res.Dependences {
		got[dep.Pair] = true
	}
	for p := range want {
		if !got[p] {
			t.Errorf("clique pair %v not detected", p)
		}
	}
	// The independent accurate pair must NOT be flagged (the "accurate
	// sources" challenge of §3.1).
	if got[model.NewSourcePair("S1", "S2")] {
		t.Error("independent pair S1~S2 wrongly flagged")
	}
	// Sanity on the probability accessors.
	if p := res.DependenceProb("S3", "S4"); p < 0.9 {
		t.Errorf("P(S3~S4) = %v, want near 1", p)
	}
	if p := res.DependenceProb("S1", "S2"); p > 0.5 {
		t.Errorf("P(S1~S2) = %v, want low", p)
	}
	if res.DependenceProb("S3", "S4") != res.DependenceProb("S4", "S3") {
		t.Error("DependenceProb not symmetric")
	}
}

func TestTable1ColdStartIsAmbiguous(t *testing.T) {
	// Without side information the 5-object toy is genuinely ambiguous:
	// the copier bloc is a majority that agrees with itself everywhere, so
	// the loop settles in the majority basin. Pin that documented
	// behaviour: truth equals naive voting and the independent pair's
	// shared minority values make it LOOK dependent.
	res, err := Detect(dataset.Table1(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	naive := truth.Vote(dataset.Table1())
	agree := 0
	for o, v := range res.Truth.Chosen {
		if naive.Chosen[o] == v {
			agree++
		}
	}
	if agree != len(res.Truth.Chosen) {
		t.Errorf("cold start diverged from majority basin on %d objects", len(res.Truth.Chosen)-agree)
	}
	if len(res.Dependences) == 0 {
		t.Error("cold start should still flag some dependence")
	}
}

func TestDependenceProbBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Truth.Known = knownTwo()
	res, err := Detect(dataset.Table1(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.AllPairs {
		if p.Prob < 0 || p.Prob > 1+1e-9 {
			t.Errorf("pair %v prob %v out of range", p.Pair, p.Prob)
		}
		if math.Abs(p.ProbAB+p.ProbBA-p.Prob) > 1e-9 {
			t.Errorf("pair %v: directions %v+%v != total %v", p.Pair, p.ProbAB, p.ProbBA, p.Prob)
		}
		if p.KT < -1e-9 || p.KF < -1e-9 || p.KD < -1e-9 {
			t.Errorf("pair %v negative evidence", p.Pair)
		}
		if got := p.KT + p.KF + p.KD; math.Abs(got-float64(p.Shared)) > 1e-6 {
			t.Errorf("pair %v evidence sums to %v, want %d", p.Pair, got, p.Shared)
		}
	}
}

func TestCopierMargin(t *testing.T) {
	dep := Dependence{Pair: model.NewSourcePair("A", "B"), ProbAB: 0.7, ProbBA: 0.2}
	who, margin := dep.Copier()
	if who != "A" || math.Abs(margin-0.5) > 1e-12 {
		t.Fatalf("Copier = %v, %v", who, margin)
	}
	dep.ProbAB, dep.ProbBA = 0.1, 0.6
	who, _ = dep.Copier()
	if who != "B" {
		t.Fatalf("Copier = %v, want B", who)
	}
}

// synthWorld builds a larger snapshot world: nObjects objects, independent
// sources with given accuracies, plus a copier that copies `copyRate` of
// master's values and answers independently otherwise.
func synthWorld(t *testing.T, seed int64, nObjects int, indAcc []float64,
	copierOwnAcc, copyRate float64) (*dataset.Dataset, *model.World) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := model.NewWorld()
	d := dataset.New()
	falseVal := func(i int) string { return fmt.Sprintf("F%d_%d", i, rng.Intn(10)) }
	type srcSpec struct {
		id  model.SourceID
		acc float64
	}
	var specs []srcSpec
	for i, a := range indAcc {
		specs = append(specs, srcSpec{model.SourceID(fmt.Sprintf("I%d", i)), a})
	}
	master := specs[0].id
	for i := 0; i < nObjects; i++ {
		o := model.Obj(fmt.Sprintf("o%03d", i), "v")
		truthV := fmt.Sprintf("T%d", i)
		w.SetSnapshot(o, truthV)
		masterVal := ""
		for _, sp := range specs {
			v := truthV
			if rng.Float64() > sp.acc {
				v = falseVal(i)
			}
			if sp.id == master {
				masterVal = v
			}
			if err := d.Add(model.NewClaim(sp.id, o, v)); err != nil {
				t.Fatal(err)
			}
		}
		// Copier C copies the master's value with prob copyRate.
		v := masterVal
		if rng.Float64() > copyRate {
			v = truthV
			if rng.Float64() > copierOwnAcc {
				v = falseVal(i)
			}
		}
		if err := d.Add(model.NewClaim("C", o, v)); err != nil {
			t.Fatal(err)
		}
	}
	d.Freeze()
	return d, w
}

func TestColdStartDetectsCopierAtScale(t *testing.T) {
	// At realistic scale the cold start works: independent sources agree
	// mostly on true values, the copier shares the master's false values.
	d, w := synthWorld(t, 42, 120, []float64{0.85, 0.8, 0.75, 0.7}, 0.7, 0.8)
	cfg := DefaultConfig()
	res, err := Detect(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The copier pair must be the top-ranked dependence.
	if len(res.Dependences) == 0 {
		t.Fatal("no dependence detected")
	}
	top := res.Dependences[0]
	wantPair := model.NewSourcePair("I0", "C")
	if top.Pair != wantPair {
		t.Fatalf("top pair = %v (p=%.3f), want %v", top.Pair, top.Prob, wantPair)
	}
	if top.Prob < 0.9 {
		t.Fatalf("copier pair posterior %v too low", top.Prob)
	}
	// No independent pair above the copier pair; ideally none flagged.
	for _, dep := range res.Dependences[1:] {
		if dep.Prob > top.Prob {
			t.Errorf("independent pair %v ranked above copier", dep.Pair)
		}
	}
	// Direction: C should be the likelier copier.
	copier, _ := top.Copier()
	if copier != "C" {
		t.Errorf("direction wrong: copier = %v", copier)
	}
	// Truth quality: dependence-aware beats naive voting.
	naive := truth.Vote(d)
	var depRight, naiveRight int
	for _, o := range d.Objects() {
		want, _ := w.TrueNow(o)
		if res.Truth.Chosen[o] == want {
			depRight++
		}
		if naive.Chosen[o] == want {
			naiveRight++
		}
	}
	if depRight < naiveRight {
		t.Errorf("DEPEN %d correct < naive %d", depRight, naiveRight)
	}
	if depRight < 100 {
		t.Errorf("DEPEN only %d/120 correct", depRight)
	}
}

func TestColdStartNoFalsePositivesAmongIndependents(t *testing.T) {
	// Accurate-independent-sources challenge: high-accuracy independent
	// sources share many (true) values; they must not be flagged.
	rng := rand.New(rand.NewSource(9))
	d := dataset.New()
	for i := 0; i < 150; i++ {
		o := model.Obj(fmt.Sprintf("o%03d", i), "v")
		truthV := fmt.Sprintf("T%d", i)
		for s := 0; s < 5; s++ {
			v := truthV
			if rng.Float64() > 0.9 {
				v = fmt.Sprintf("F%d_%d", i, rng.Intn(20))
			}
			_ = d.Add(model.NewClaim(model.SourceID(fmt.Sprintf("I%d", s)), o, v))
		}
	}
	d.Freeze()
	res, err := Detect(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, dep := range res.Dependences {
		t.Errorf("independent pair %v flagged with p=%.3f", dep.Pair, dep.Prob)
	}
}

func TestPairHypothesesSharedFalseIsStrongestEvidence(t *testing.T) {
	// A unit of shared-false evidence should move the posterior toward
	// dependence much more than a unit of shared-true evidence.
	li1, lab1, _ := pairHypotheses(1, 0, 0, 0.8, 0.8, 0.8, 100)
	li2, lab2, _ := pairHypotheses(0, 1, 0, 0.8, 0.8, 0.8, 100)
	gainTrue := lab1 - li1
	gainFalse := lab2 - li2
	if gainFalse <= gainTrue {
		t.Fatalf("shared-false gain %v should exceed shared-true gain %v", gainFalse, gainTrue)
	}
	// Disagreement is evidence against dependence.
	li3, lab3, _ := pairHypotheses(0, 0, 1, 0.8, 0.8, 0.8, 100)
	if lab3 >= li3 {
		t.Fatalf("disagreement should penalize dependence: %v >= %v", lab3, li3)
	}
}

func TestDiscountMonotoneInDependence(t *testing.T) {
	d := dataset.New()
	o := obj("x")
	_ = d.Add(model.NewClaim("A", o, "v"))
	_ = d.Add(model.NewClaim("B", o, "v"))
	d.Freeze()
	acc := map[model.SourceID]float64{"A": 0.9, "B": 0.8}
	mk := func(dep float64) float64 {
		dir := map[model.SourceID]map[model.SourceID]float64{
			"B": {"A": dep},
		}
		tab := makeDiscount(d, acc, dir, 0.8)
		return discountFor(tab, o)("B", "v")
	}
	prev := 1.1
	for _, dep := range []float64{0, 0.25, 0.5, 0.75, 1} {
		f := mk(dep)
		if f >= prev {
			t.Fatalf("discount not strictly decreasing at dep=%v: %v >= %v", dep, f, prev)
		}
		if f < 0 || f > 1 {
			t.Fatalf("factor %v out of range", f)
		}
		prev = f
	}
	// Highest-accuracy source always keeps the full vote.
	dir := map[model.SourceID]map[model.SourceID]float64{"B": {"A": 1}, "A": {"B": 1}}
	tab := makeDiscount(d, acc, dir, 0.8)
	if got := discountFor(tab, o)("A", "v"); got != 1 {
		t.Fatalf("top-ranked factor = %v, want 1", got)
	}
}

func TestDetectDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Truth.Known = knownTwo()
	r1, err := Detect(dataset.Table1(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := Detect(dataset.Table1(), cfg)
	if len(r1.AllPairs) != len(r2.AllPairs) {
		t.Fatal("pair count differs between runs")
	}
	for i := range r1.AllPairs {
		if r1.AllPairs[i] != r2.AllPairs[i] {
			t.Fatalf("pair %d differs: %+v vs %+v", i, r1.AllPairs[i], r2.AllPairs[i])
		}
	}
}

func TestMinSharedFiltersPairs(t *testing.T) {
	d := dataset.New()
	_ = d.Add(model.NewClaim("A", obj("x"), "1"))
	_ = d.Add(model.NewClaim("B", obj("x"), "1"))
	_ = d.Add(model.NewClaim("B", obj("y"), "2"))
	_ = d.Add(model.NewClaim("C", obj("y"), "2"))
	d.Freeze()
	cfg := DefaultConfig()
	cfg.MinShared = 2
	res, err := Detect(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AllPairs) != 0 {
		t.Fatalf("pairs below MinShared analyzed: %v", res.AllPairs)
	}
	if res.DependenceProb("A", "B") != 0 {
		t.Fatal("unanalyzed pair should have prob 0")
	}
}
