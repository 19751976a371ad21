package fusion

import (
	"math"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
)

// Accuracy scores a fused result against a ground-truth world: the fraction
// of objects whose chosen value equals the current true value.
func Accuracy(res *Result, w *model.World) float64 {
	if len(res.Chosen) == 0 {
		return 0
	}
	var right, total int
	for o, v := range res.Chosen {
		want, ok := w.TrueNow(o)
		if !ok {
			continue
		}
		total++
		if v == want {
			right++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(right) / float64(total)
}
func knownTwo() map[model.ObjectID]string {
	return map[model.ObjectID]string{
		model.Obj("Halevy", dataset.AffAttr): "Google",
		model.Obj("Dalvi", dataset.AffAttr):  "Yahoo!",
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		KeepFirst: "keep-first", Majority: "majority",
		Weighted: "weighted", DependenceAware: "dependence-aware",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
	if Strategy(42).String() == "" {
		t.Error("unknown strategy should render")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	c := DefaultConfig()
	c.MinProb = 1
	if c.Validate() == nil {
		t.Fatal("MinProb=1 accepted")
	}
	c = DefaultConfig()
	c.Strategy = Strategy(42)
	if c.Validate() == nil {
		t.Fatal("unknown strategy accepted")
	}
	c = DefaultConfig()
	c.Strategy = Weighted
	c.Truth.N = 0
	if c.Validate() == nil {
		t.Fatal("bad truth config accepted")
	}
}

func TestFuseRequiresFrozen(t *testing.T) {
	d := dataset.New()
	_ = d.Add(model.NewClaim("S1", model.Obj("a", "x"), "1"))
	if _, err := Fuse(d, DefaultConfig()); err == nil {
		t.Fatal("unfrozen dataset accepted")
	}
}

func TestKeepFirst(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = KeepFirst
	res, err := Fuse(dataset.Table1(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// S1 is lexicographically first everywhere, so KeepFirst happens to be
	// perfect on Table 1.
	if got := Accuracy(res, dataset.Table1Truth()); got != 1 {
		t.Fatalf("KeepFirst accuracy = %v", got)
	}
	x, ok := res.Relation.Tuples[model.Obj("Dong", dataset.AffAttr)]
	if !ok || x.Prob("AT&T") != 1 {
		t.Fatalf("KeepFirst relation = %+v", x)
	}
}

func TestMajorityMatchesNaiveVoting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = Majority
	res, err := Fuse(dataset.Table1(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Naive voting is wrong on 3 of 5 (Example 2.1).
	if got := Accuracy(res, dataset.Table1Truth()); math.Abs(got-0.4) > 1e-9 {
		t.Fatalf("Majority accuracy = %v, want 0.4", got)
	}
	if res.Truth == nil {
		t.Fatal("Majority should carry a truth result")
	}
}

func TestDependenceAwareWithLabels(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Depen.Truth.Known = knownTwo()
	res, err := Fuse(dataset.Table1(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := Accuracy(res, dataset.Table1Truth()); got != 1 {
		t.Fatalf("DependenceAware accuracy = %v, want 1", got)
	}
	if res.Depen == nil || len(res.Depen.Dependences) == 0 {
		t.Fatal("dependence result missing")
	}
	// The probabilistic output must be a valid relation.
	for _, x := range res.Relation.Tuples {
		if err := x.Validate(); err != nil {
			t.Errorf("invalid fused tuple: %v", err)
		}
	}
}

func TestWeightedStrategy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = Weighted
	res, err := Fuse(dataset.Table1(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truth == nil || res.Truth.Accuracy == nil {
		t.Fatal("Weighted should carry accuracies")
	}
}

func TestMinProbFilters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = Majority
	cfg.MinProb = 0.5
	res, err := Fuse(dataset.Table1(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Dong splits 3/5-1/5-1/5 under naive voting; only UW survives 0.5.
	x := res.Relation.Tuples[model.Obj("Dong", dataset.AffAttr)]
	if len(x.Alternatives) != 1 || x.Alternatives[0].Value != "UW" {
		t.Fatalf("MinProb filter left %+v", x.Alternatives)
	}
}

func TestCompareOrdering(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Depen.Truth.Known = knownTwo()
	cfg.Truth.Known = knownTwo()
	var acc []float64 // naive, weighted, dependence-aware
	for _, st := range []Strategy{Majority, Weighted, DependenceAware} {
		c := cfg
		c.Strategy = st
		res, err := Fuse(dataset.Table1(), c)
		if err != nil {
			t.Fatal(err)
		}
		acc = append(acc, Accuracy(res, dataset.Table1Truth()))
	}
	// The paper's headline shape: dependence-aware >= weighted >= naive.
	if acc[2] < acc[1] || acc[1] < acc[0] {
		t.Fatalf("accuracy order violated: naive=%.2f weighted=%.2f depen=%.2f",
			acc[0], acc[1], acc[2])
	}
	if acc[2] != 1 {
		t.Fatalf("dependence-aware should be perfect with labels: %v", acc[2])
	}
}

func TestAccuracyEdgeCases(t *testing.T) {
	if Accuracy(&Result{}, model.NewWorld()) != 0 {
		t.Fatal("empty result accuracy should be 0")
	}
	res := &Result{Chosen: map[model.ObjectID]string{model.Obj("x", "y"): "v"}}
	if Accuracy(res, model.NewWorld()) != 0 {
		t.Fatal("no overlapping truth should be 0")
	}
}

func TestFuseEmptyDataset(t *testing.T) {
	empty := dataset.New()
	empty.Freeze()
	if _, err := Fuse(empty, DefaultConfig()); err == nil {
		t.Fatal("empty dataset accepted")
	}
}
