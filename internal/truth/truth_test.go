package truth

import (
	"math"
	"testing"
	"testing/quick"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
)

func obj(e string) model.ObjectID { return model.Obj(e, dataset.AffAttr) }

func TestVoteTable1WithCopiers(t *testing.T) {
	// Example 2.1: with S4, S5 copying S3, naive voting is wrong on
	// Halevy, Dalvi and Dong (it picks UW everywhere UW has 3 votes).
	res := Vote(dataset.Table1())
	truthW := dataset.Table1Truth()
	wrong := 0
	for o, v := range res.Chosen {
		want, _ := truthW.TrueNow(o)
		if v != want {
			wrong++
		}
	}
	if wrong != 3 {
		t.Fatalf("naive voting wrong on %d objects, paper says 3", wrong)
	}
	// And specifically picks UW for Halevy.
	if res.Chosen[obj("Halevy")] != "UW" {
		t.Fatalf("Halevy chosen = %q", res.Chosen[obj("Halevy")])
	}
}

func TestVoteThreeIndependentSources(t *testing.T) {
	// Example 2.1 first half: with only S1..S3, voting gets the first four
	// right and is unsure about Dong (1/1/1 split).
	d := dataset.New()
	for _, c := range dataset.Table1().Claims() {
		if c.Source <= "S3" {
			if err := d.Add(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.Freeze()
	res := Vote(d)
	truthW := dataset.Table1Truth()
	for _, e := range []string{"Suciu", "Halevy", "Balazinska", "Dalvi"} {
		want, _ := truthW.TrueNow(obj(e))
		if res.Chosen[obj(e)] != want {
			t.Errorf("%s chosen %q, want %q", e, res.Chosen[obj(e)], want)
		}
	}
	pv := res.Probs[obj("Dong")]
	for v, p := range pv {
		if math.Abs(p-1.0/3.0) > 1e-9 {
			t.Errorf("Dong %q prob = %v, want 1/3", v, p)
		}
	}
}

func TestVoteProbsSumToOne(t *testing.T) {
	res := Vote(dataset.Table1())
	for o, pv := range res.Probs {
		var sum float64
		for _, p := range pv {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%v probs sum to %v", o, sum)
		}
	}
}

func TestWeightOfMonotone(t *testing.T) {
	if WeightOf(0.9, 100) <= WeightOf(0.5, 100) {
		t.Fatal("higher accuracy must mean higher weight")
	}
	// Extreme accuracies stay finite thanks to clamping.
	if math.IsInf(WeightOf(1, 100), 1) || math.IsInf(WeightOf(0, 100), -1) {
		t.Fatal("weights must be finite")
	}
}

func TestSoftmaxScores(t *testing.T) {
	p := SoftmaxScores(map[string]float64{"a": 0, "b": 0})
	if math.Abs(p["a"]-0.5) > 1e-12 {
		t.Fatalf("equal scores should halve: %v", p)
	}
	p = SoftmaxScores(map[string]float64{"a": 10, "b": 0})
	if p["a"] <= p["b"] || math.Abs(p["a"]+p["b"]-1) > 1e-9 {
		t.Fatalf("softmax wrong: %v", p)
	}
	if len(SoftmaxScores(nil)) != 0 {
		t.Fatal("empty scores should give empty probs")
	}
}

func TestAccuConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*Config){
		func(c *Config) { c.N = 0 },
		func(c *Config) { c.InitialAccuracy = 0 },
		func(c *Config) { c.InitialAccuracy = 1 },
		func(c *Config) { c.MaxRounds = 0 },
		func(c *Config) { c.Tol = 0 },
		func(c *Config) { c.PriorA = -1 },
		func(c *Config) { c.ValueSimWeight = -1 },
	} {
		c := DefaultConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Fatalf("invalid config accepted: %+v", c)
		}
	}
}

func TestAccuRequiresFrozen(t *testing.T) {
	d := dataset.New()
	_ = d.Add(model.NewClaim("S1", obj("x"), "1"))
	if _, err := Accu(d, DefaultConfig()); err == nil {
		t.Fatal("unfrozen dataset accepted")
	}
}

func TestAccuRewardsAccurateSource(t *testing.T) {
	// Four sources over ten objects. S1 is always right; S2, S3, S4 are
	// each wrong on a disjoint block of three objects (unique false
	// values), so the majority backs the truth everywhere but S1 alone is
	// never in the minority. Accuracy iteration must rank S1 on top and
	// keep choosing T everywhere.
	d := dataset.New()
	for i := 0; i < 10; i++ {
		o := model.Obj(string(rune('a'+i)), "v")
		_ = d.Add(model.NewClaim("S1", o, "T"))
		for j, s := range []model.SourceID{"S2", "S3", "S4"} {
			v := "T"
			if i >= j*3 && i < (j+1)*3 {
				v = "F" + string(s) // unique wrong value per source
			}
			_ = d.Add(model.NewClaim(s, o, v))
		}
	}
	d.Freeze()
	res, err := Accu(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy["S1"] <= res.Accuracy["S2"] {
		t.Fatalf("S1 accuracy %v should exceed S2 %v", res.Accuracy["S1"], res.Accuracy["S2"])
	}
	for i := 0; i < 10; i++ {
		o := model.Obj(string(rune('a'+i)), "v")
		if res.Chosen[o] != "T" {
			t.Errorf("object %v chosen %q, want T", o, res.Chosen[o])
		}
	}
	if !res.Converged {
		t.Error("expected convergence")
	}
}

func TestAccuProbsNormalizedProperty(t *testing.T) {
	res, err := Accu(dataset.Table1(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for o, pv := range res.Probs {
		var sum float64
		for _, p := range pv {
			if p < 0 {
				t.Fatalf("negative prob for %v", o)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("%v probs sum %v", o, sum)
		}
	}
	for _, a := range res.Accuracy {
		if a <= 0 || a >= 1 {
			t.Fatalf("accuracy %v escapes (0,1)", a)
		}
	}
}

func TestAccuCannotFixCopierTable(t *testing.T) {
	// Accuracy weighting alone cannot undo the copier block on Table 1:
	// the copied UW votes inflate S3/S4/S5 accuracy. The paper's point is
	// that dependence detection is necessary; pin that ACCU alone stays
	// wrong on at least two of the three corrupted objects.
	res, err := Accu(dataset.Table1(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	truthW := dataset.Table1Truth()
	wrong := 0
	for o, v := range res.Chosen {
		want, _ := truthW.TrueNow(o)
		if v != want {
			wrong++
		}
	}
	if wrong < 2 {
		t.Fatalf("ACCU wrong on %d objects; expected the copier block to still win", wrong)
	}
}

func TestApplySimilarity(t *testing.T) {
	scores := map[string]float64{"UW": 2, "Univ of Washington": 1.9, "MSR": 1}
	// The two spellings of one affiliation are half alike; MSR is like neither.
	sim := func(a, b string) float64 {
		if a == "MSR" || b == "MSR" {
			return 0
		}
		return 0.5
	}
	adj := ApplySimilarity(scores, sim, 0.5)
	// Dissimilar value gains nothing from the others beyond zero overlap.
	if adj["MSR"] != scores["MSR"] {
		t.Fatalf("MSR changed: %v", adj["MSR"])
	}
	if adj["UW"] != scores["UW"]+0.5*0.5*scores["Univ of Washington"] {
		t.Fatalf("UW = %v, want its score plus the leaked half of its alias's", adj["UW"])
	}
	// nil sim is identity.
	same := ApplySimilarity(scores, nil, 0.5)
	for k, v := range scores {
		if same[k] != v {
			t.Fatal("nil sim should be identity")
		}
	}
}

func TestMaxAccuracyDelta(t *testing.T) {
	a := map[model.SourceID]float64{"S1": 0.5, "S2": 0.9}
	b := map[model.SourceID]float64{"S1": 0.6, "S2": 0.85}
	if got := MaxAccuracyDelta(a, b); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("delta = %v", got)
	}
}

func TestAccuDeterministic(t *testing.T) {
	r1, err := Accu(dataset.Table1(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := Accu(dataset.Table1(), DefaultConfig())
	for o, v := range r1.Chosen {
		if r2.Chosen[o] != v {
			t.Fatalf("nondeterministic choice for %v", o)
		}
	}
	for s, a := range r1.Accuracy {
		if r2.Accuracy[s] != a {
			t.Fatalf("nondeterministic accuracy for %v", s)
		}
	}
}

func TestWeightOfPropertyMonotone(t *testing.T) {
	f := func(raw float64) bool {
		a := math.Mod(math.Abs(raw), 0.98) + 0.01 // (0.01, 0.99)
		return WeightOf(a+0.005, 50) >= WeightOf(a, 50)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
