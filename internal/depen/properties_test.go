package depen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/stats"
)

// Property tests on the Bayesian core: the posteriors must behave like
// probabilities under arbitrary evidence, and the evidence channels must
// move them in the documented directions.

func TestPairHypothesesPosteriorIsDistribution(t *testing.T) {
	f := func(seedRaw int64) bool {
		rng := rand.New(rand.NewSource(seedRaw))
		kt := rng.Float64() * 50
		kf := rng.Float64() * 20
		kd := rng.Float64() * 50
		a1 := 0.05 + rng.Float64()*0.9
		a2 := 0.05 + rng.Float64()*0.9
		c := 0.05 + rng.Float64()*0.9
		li, lab, lba := pairHypotheses(kt, kf, kd, a1, a2, c, 100)
		post := []float64{li, lab, lba}
		err := stats.NormalizeLogInto(post, post)
		if err != nil {
			return false
		}
		var sum float64
		for _, p := range post {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSharedFalseMonotonicallyIncreasesDependence(t *testing.T) {
	// Adding shared-false evidence must never reduce the dependence
	// posterior.
	prev := -1.0
	for kf := 0.0; kf <= 20; kf++ {
		li, lab, lba := pairHypotheses(5, kf, 2, 0.8, 0.7, 0.8, 100)
		post := []float64{li, lab, lba}
		err := stats.NormalizeLogInto(post, post)
		if err != nil {
			t.Fatal(err)
		}
		dep := post[1] + post[2]
		if dep < prev-1e-9 {
			t.Fatalf("dependence dropped at kf=%v: %v < %v", kf, dep, prev)
		}
		prev = dep
	}
}

func TestDisagreementMonotonicallyDecreasesDependence(t *testing.T) {
	prev := 2.0
	for kd := 0.0; kd <= 20; kd++ {
		li, lab, lba := pairHypotheses(5, 3, kd, 0.8, 0.7, 0.8, 100)
		post := []float64{li, lab, lba}
		err := stats.NormalizeLogInto(post, post)
		if err != nil {
			t.Fatal(err)
		}
		dep := post[1] + post[2]
		if dep > prev+1e-9 {
			t.Fatalf("dependence rose at kd=%v: %v > %v", kd, dep, prev)
		}
		prev = dep
	}
}

func TestDetectPosteriorsAreProbabilitiesOnRandomWorlds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := dataset.New()
		nObj := 20 + rng.Intn(30)
		nSrc := 3 + rng.Intn(4)
		for i := 0; i < nObj; i++ {
			o := model.Obj(fmt.Sprintf("o%d", i), "v")
			for s := 0; s < nSrc; s++ {
				v := fmt.Sprintf("T%d", i)
				if rng.Float64() < 0.3 {
					v = fmt.Sprintf("F%d_%d", i, rng.Intn(5))
				}
				_ = d.Add(model.NewClaim(model.SourceID(fmt.Sprintf("S%d", s)), o, v))
			}
		}
		d.Freeze()
		cfg := DefaultConfig()
		cfg.MaxRounds = 4
		res, err := Detect(d, cfg)
		if err != nil {
			return false
		}
		for _, dp := range res.AllPairs {
			if dp.Prob < -1e-9 || dp.Prob > 1+1e-9 {
				return false
			}
			if dp.ProbAB < -1e-9 || dp.ProbBA < -1e-9 {
				return false
			}
		}
		for _, pv := range res.Truth.Probs {
			var sum float64
			for _, p := range pv {
				sum += p
			}
			if math.Abs(sum-1) > 1e-6 {
				return false
			}
		}
		for _, a := range res.Truth.Accuracy {
			if a <= 0 || a >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// randomDetectWorld builds a random snapshot dataset for Result-level
// property tests: a handful of sources with random claim patterns (partial
// coverage included, so some pairs fall below MinShared).
func randomDetectWorld(rng *rand.Rand) *dataset.Dataset {
	d := dataset.New()
	nObj := 15 + rng.Intn(25)
	nSrc := 4 + rng.Intn(4)
	for i := 0; i < nObj; i++ {
		o := model.Obj(fmt.Sprintf("o%d", i), "v")
		for s := 0; s < nSrc; s++ {
			if rng.Float64() < 0.2 { // partial coverage
				continue
			}
			v := fmt.Sprintf("T%d", i)
			if rng.Float64() < 0.35 {
				v = fmt.Sprintf("F%d_%d", i, rng.Intn(4))
			}
			_ = d.Add(model.NewClaim(model.SourceID(fmt.Sprintf("S%d", s)), o, v))
		}
	}
	d.Freeze()
	return d
}

func TestResultDependenceProbIsSymmetric(t *testing.T) {
	// DependenceProb(a,b) == DependenceProb(b,a) for every pair — analyzed
	// or not — and CopyProb's two directions sum to exactly the pair's
	// hypothesis posterior P(dependent) = ProbAB + ProbBA.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDetectWorld(rng)
		cfg := DefaultConfig()
		cfg.MaxRounds = 4
		res, err := Detect(d, cfg)
		if err != nil {
			return false
		}
		sources := d.Sources()
		analyzed := map[model.SourcePair]Dependence{}
		for _, dp := range res.AllPairs {
			analyzed[dp.Pair] = dp
		}
		for i := 0; i < len(sources); i++ {
			for j := i + 1; j < len(sources); j++ {
				a, b := sources[i], sources[j]
				if res.DependenceProb(a, b) != res.DependenceProb(b, a) {
					return false
				}
				dp, ok := analyzed[model.NewSourcePair(a, b)]
				if !ok {
					// Unanalyzed pairs report zero everywhere.
					if res.DependenceProb(a, b) != 0 || copyProb(res, a, b) != 0 || copyProb(res, b, a) != 0 {
						return false
					}
					continue
				}
				// Directional posteriors must match the verdict and sum to
				// the total dependence posterior.
				if copyProb(res, dp.Pair.A, dp.Pair.B) != dp.ProbAB ||
					copyProb(res, dp.Pair.B, dp.Pair.A) != dp.ProbBA {
					return false
				}
				if math.Abs(copyProb(res, a, b)+copyProb(res, b, a)-res.DependenceProb(a, b)) > 1e-12 {
					return false
				}
				if math.Abs(dp.ProbAB+dp.ProbBA-dp.Prob) > 1e-9 {
					return false
				}
				// The three-hypothesis posterior is a distribution: the
				// implied P(independent) completes it to 1.
				if dp.Prob < -1e-9 || dp.Prob > 1+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// copyProb is the posterior that copier copies master; 0 for unanalyzed
// pairs.
func copyProb(r *Result, copier, master model.SourceID) float64 {
	ab, _ := r.State().CopyProbs(copier, master)
	return ab
}
