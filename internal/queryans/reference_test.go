package queryans

import (
	"errors"
	"sort"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/stats"
	"sourcecurrents/internal/truth"
)

// answerObjectsMaps is the map-based reference implementation of
// AnswerObjects: the semantic specification the compiled incremental Planner
// is tested against (golden_test.go). It deliberately recomputes every answer and every
// independence product from scratch after each probe — the O(P²·|query|)
// behavior the Planner makes incremental without changing a single bit of
// the output.
func answerObjectsMaps(d *dataset.Dataset, query []model.ObjectID, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !d.Frozen() {
		return nil, errors.New("queryans: dataset must be frozen")
	}
	if len(query) == 0 {
		return nil, errors.New("queryans: empty query")
	}
	acc := func(s model.SourceID) float64 {
		if a, ok := cfg.Accuracy[s]; ok {
			return a
		}
		return cfg.DefaultAccuracy
	}
	dep := cfg.Dependence
	if dep == nil {
		dep = func(a, b model.SourceID) float64 { return 0 }
	}

	// Candidate sources: those covering at least one query object.
	var candidates []model.SourceID
	coverage := map[model.SourceID][]model.ObjectID{}
	for _, s := range d.Sources() {
		var covered []model.ObjectID
		for _, o := range query {
			if _, ok := d.Value(s, o); ok {
				covered = append(covered, o)
			}
		}
		if len(covered) > 0 {
			candidates = append(candidates, s)
			coverage[s] = covered
		}
	}
	max := len(candidates)
	if cfg.MaxSources > 0 && cfg.MaxSources < max {
		max = cfg.MaxSources
	}

	res := &Result{}
	probed := []model.SourceID{}
	probedSet := map[model.SourceID]bool{}
	// objCovered[o] accumulates the probability that o is already covered
	// by an independent probed source; used by the gain heuristic.
	objCovered := map[model.ObjectID]float64{}

	for len(probed) < max {
		next, gain := pickNext(candidates, probedSet, probed, coverage, objCovered, acc, dep, cfg)
		if next == "" {
			break
		}
		probed = append(probed, next)
		probedSet[next] = true
		for _, o := range coverage[next] {
			indep := 1.0
			for _, p := range probed[:len(probed)-1] {
				indep *= 1 - dep(next, p)
			}
			objCovered[o] = 1 - (1-objCovered[o])*(1-acc(next)*indep)
		}
		answers := computeAnswers(d, query, probed, acc, dep, cfg)
		res.Steps = append(res.Steps, Step{Source: next, Gain: gain, Answers: answers})
		if cfg.StopProb > 0 && stable(answers, query, cfg.StopProb) {
			break
		}
	}
	if len(res.Steps) > 0 {
		res.Final = res.Steps[len(res.Steps)-1].Answers
	}
	res.Probed = probed
	return res, nil
}

// pickNext chooses the next source under the configured policy.
func pickNext(candidates []model.SourceID, probedSet map[model.SourceID]bool,
	probed []model.SourceID, coverage map[model.SourceID][]model.ObjectID,
	objCovered map[model.ObjectID]float64,
	acc func(model.SourceID) float64, dep func(a, b model.SourceID) float64,
	cfg Config) (model.SourceID, float64) {
	best := model.SourceID("")
	bestGain := -1.0
	for _, s := range candidates {
		if probedSet[s] {
			continue
		}
		var gain float64
		switch cfg.Policy {
		case ByID:
			// First unprobed source in id order; candidates are sorted.
			return s, 0
		case AccuracyCoverage:
			gain = acc(s) * float64(len(coverage[s]))
		case GreedyGain:
			indep := 1.0
			for _, p := range probed {
				indep *= 1 - dep(s, p)
			}
			var uncovered float64
			for _, o := range coverage[s] {
				uncovered += 1 - objCovered[o]
			}
			gain = acc(s) * indep * uncovered
		}
		if gain > bestGain {
			best, bestGain = s, gain
		}
	}
	if best == "" {
		return "", 0
	}
	return best, bestGain
}

// computeAnswers runs dependence-discounted accuracy-weighted voting over
// the probed sources only.
func computeAnswers(d *dataset.Dataset, query []model.ObjectID, probed []model.SourceID,
	acc func(model.SourceID) float64, dep func(a, b model.SourceID) float64,
	cfg Config) []Answer {
	accMap := map[model.SourceID]float64{}
	for _, s := range probed {
		accMap[s] = acc(s)
	}
	var out []Answer
	for _, o := range query {
		// Group probed sources by value.
		byValue := map[string][]model.SourceID{}
		for _, s := range probed {
			if v, ok := d.Value(s, o); ok {
				byValue[v] = append(byValue[v], s)
			}
		}
		if len(byValue) == 0 {
			out = append(out, Answer{Object: o})
			continue
		}
		vals := make([]string, 0, len(byValue))
		for v := range byValue {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		scores := map[string]float64{}
		for _, v := range vals {
			srcs := byValue[v]
			// Rank by accuracy; later same-value sources are discounted by
			// their dependence on earlier ones.
			sort.Slice(srcs, func(i, j int) bool {
				ai, aj := accMap[srcs[i]], accMap[srcs[j]]
				if ai != aj {
					return ai > aj
				}
				return srcs[i] < srcs[j]
			})
			var score float64
			for i, s := range srcs {
				f := 1.0
				for j := 0; j < i; j++ {
					f *= 1 - cfg.CopyRate*dep(s, srcs[j])
				}
				score += truth.WeightOf(accMap[s], cfg.N) * f
			}
			scores[v] = score
		}
		probs := softmaxScores(scores)
		bestV, bestP := "", -1.0
		for _, v := range vals {
			if probs[v] > bestP {
				bestV, bestP = v, probs[v]
			}
		}
		out = append(out, Answer{Object: o, Value: bestV, Prob: bestP})
	}
	return out
}

// softmaxScores converts additive log-space scores into probabilities over
// the candidates.
func softmaxScores(scores map[string]float64) map[string]float64 {
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
