package truth

import (
	"math"
	"sort"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/stats"
)

// accuMaps is the map-based reference implementation of Accu: the semantic
// specification the compiled path is tested against (golden_test.go). It
// and the per-object steps below are the solver's map-based oracle; only
// tests run them.
func accuMaps(d *dataset.Dataset, cfg Config) (*Result, error) {
	acc := make(map[model.SourceID]float64, len(d.Sources()))
	for _, s := range d.Sources() {
		acc[s] = cfg.InitialAccuracy
	}
	res := &Result{}
	objects := d.Objects()
	for round := 1; round <= cfg.MaxRounds; round++ {
		probs := make(map[model.ObjectID]map[string]float64, len(objects))
		for _, o := range objects {
			scores := ScoreValues(d.ValuesFor(o), acc, cfg.N, nil)
			scores = ApplySimilarity(scores, cfg.ValueSim, cfg.ValueSimWeight)
			probs[o] = cfg.ApplyKnown(o, SoftmaxScores(scores))
		}
		next := UpdateAccuracySim(d, probs, cfg.PriorA, cfg.PriorB, cfg.ValueSim)
		res.Probs = probs
		res.Rounds = round
		if MaxAccuracyDelta(acc, next) < cfg.Tol {
			acc = next
			res.Converged = true
			break
		}
		acc = next
	}
	res.Accuracy = acc
	res.PickChosen()
	return res, nil
}

// ApplyKnown overrides the posterior of labeled objects: the labeled value
// gets the pin probability and the remainder is split over the other
// observed candidates.
func (c Config) ApplyKnown(o model.ObjectID, probs map[string]float64) map[string]float64 {
	want, ok := c.Known[o]
	if !ok {
		return probs
	}
	conf := c.knownConfidence()
	out := make(map[string]float64, len(probs)+1)
	rest := len(probs)
	if _, seen := probs[want]; seen {
		rest--
	}
	for v := range probs {
		if v == want {
			continue
		}
		if rest > 0 {
			out[v] = (1 - conf) / float64(rest)
		}
	}
	out[want] = conf
	return out
}

// ScoreValues computes per-candidate scores for one object: the sum of the
// asserting sources' weights, each multiplied by discount(s, value). A nil
// discount means no discounting.
func ScoreValues(groups []dataset.ValueGroup, acc map[model.SourceID]float64, n int,
	discount func(s model.SourceID, value string) float64) map[string]float64 {
	scores := make(map[string]float64, len(groups))
	for _, g := range groups {
		var c float64
		for _, s := range g.Sources {
			w := WeightOf(acc[s], n)
			if discount != nil {
				w *= discount(s, g.Value)
			}
			c += w
		}
		scores[g.Value] = c
	}
	return scores
}

// ApplySimilarity adds similarity-leaked support to each score:
// score'(v) = score(v) + weight · Σ_{v'≠v} sim(v,v')·score(v').
func ApplySimilarity(scores map[string]float64, sim func(a, b string) float64, weight float64) map[string]float64 {
	if sim == nil || weight == 0 || len(scores) < 2 {
		return scores
	}
	vals := make([]string, 0, len(scores))
	for v := range scores {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	out := make(map[string]float64, len(scores))
	for _, v := range vals {
		adj := scores[v]
		for _, u := range vals {
			if u == v {
				continue
			}
			s := sim(v, u)
			if s < 0 {
				s = 0
			} else if s > 1 {
				s = 1
			}
			adj += weight * s * scores[u]
		}
		out[v] = adj
	}
	return out
}

// SoftmaxScores converts additive log-space scores into probabilities over
// the candidates.
func SoftmaxScores(scores map[string]float64) map[string]float64 {
	vals := make([]string, 0, len(scores))
	for v := range scores {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	logw := make([]float64, len(vals))
	for i, v := range vals {
		logw[i] = scores[v]
	}
	probs := make([]float64, len(logw))
	if err := stats.NormalizeLogInto(probs, logw); err != nil {
		return map[string]float64{}
	}
	out := make(map[string]float64, len(vals))
	for i, v := range vals {
		out[v] = probs[i]
	}
	return out
}

// UpdateAccuracy re-estimates each source's accuracy as the smoothed mean
// posterior probability of the values it asserts.
func UpdateAccuracy(d *dataset.Dataset, probs map[model.ObjectID]map[string]float64,
	priorA, priorB float64) map[model.SourceID]float64 {
	return UpdateAccuracySim(d, probs, priorA, priorB, nil)
}

// MaxAccuracyDelta returns the largest absolute per-source change between
// two accuracy maps; the fixpoint test.
func MaxAccuracyDelta(a, b map[model.SourceID]float64) float64 {
	var max float64
	for s, av := range a {
		d := math.Abs(av - b[s])
		if d > max {
			max = d
		}
	}
	return max
}

// ClassMass returns the posterior mass of the equivalence class of v under
// the similarity function: Σ_v' P(v')·sim(v, v'), where sim(v, v) counts
// fully. With a nil sim it is just P(v). This is how a source asserting
// "J. Ullman" gets credit for the posterior of "Jeffrey Ullman": exact
// string probabilities fragment across representations, class mass does
// not.
//
// Candidates are accumulated in sorted-value order — the canonical
// iteration order of every solver loop — so the sum is reproducible and the
// compiled dense path (which walks value-sorted groups) is bit-identical.
func ClassMass(probs map[string]float64, v string, sim func(a, b string) float64) float64 {
	if sim == nil {
		return probs[v]
	}
	vals := make([]string, 0, len(probs))
	for u := range probs {
		vals = append(vals, u)
	}
	sort.Strings(vals)
	var mass float64
	for _, u := range vals {
		p := probs[u]
		if u == v {
			mass += p
			continue
		}
		s := sim(v, u)
		if s < 0 {
			s = 0
		} else if s > 1 {
			s = 1
		}
		mass += p * s
	}
	if mass > 1 {
		mass = 1
	}
	return mass
}

// UpdateAccuracySim is UpdateAccuracy with representation awareness: each
// asserted value is credited with its similarity class mass.
func UpdateAccuracySim(d *dataset.Dataset, probs map[model.ObjectID]map[string]float64,
	priorA, priorB float64, sim func(a, b string) float64) map[model.SourceID]float64 {
	acc := make(map[model.SourceID]float64, len(d.Sources()))
	for _, s := range d.Sources() {
		var sum float64
		var cnt int
		for _, o := range d.ObjectsOf(s) {
			v, ok := d.Value(s, o)
			if !ok {
				continue
			}
			sum += ClassMass(probs[o], v, sim)
			cnt++
		}
		// Beta-smoothed mean: (sum + a) / (cnt + a + b). Probabilities are
		// fractional successes, so this generalizes the Beta posterior mean.
		acc[s] = stats.ClampProb((sum + priorA) / (float64(cnt) + priorA + priorB))
	}
	return acc
}
