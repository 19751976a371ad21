package temporal

import (
	"math"
	"sort"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/stats"
)

// update is one timestamped assertion in a trace.
type update struct {
	o model.ObjectID
	v string
	t model.Time
}

// detectPairsMaps is the map-based reference implementation of DetectPairs:
// the semantic specification the compiled path is tested against
// (golden_test.go).
func detectPairsMaps(d *dataset.Dataset, cfg Config) (*Result, error) {
	sources := d.Sources()
	traces := make(map[model.SourceID][]update, len(sources))
	// popularity[o][v] = number of sources that ever assert (o, v) with a
	// timestamp; the rarity denominator.
	popularity := map[model.ObjectID]map[string]int{}
	for _, s := range sources {
		seen := map[update]bool{}
		for _, c := range d.UpdateTrace(s) {
			u := update{o: c.Object, v: c.Value, t: c.Time}
			traces[s] = append(traces[s], u)
			key := update{o: c.Object, v: c.Value} // popularity ignores time
			if !seen[key] {
				seen[key] = true
				inner, ok := popularity[c.Object]
				if !ok {
					inner = map[string]int{}
					popularity[c.Object] = inner
				}
				inner[c.Value]++
			}
		}
	}

	// Global coverage per source: its share of the distinct (object,
	// value) assertions seen anywhere.
	union := map[valueKey]bool{}
	distinct := map[model.SourceID]int{}
	for s, trace := range traces {
		for k := range spansOf(trace) {
			union[k] = true
			distinct[s]++
		}
	}
	qCov := make(map[model.SourceID]float64, len(sources))
	for _, s := range sources {
		if len(union) > 0 {
			qCov[s] = float64(distinct[s]) / float64(len(union))
		}
	}

	// Score every pair in the canonical pair order.
	res := &Result{}
	for i := range sources {
		for j := i + 1; j < len(sources); j++ {
			if dep, ok := scorePair(sources[i], sources[j], traces, popularity, len(sources), qCov, cfg); ok {
				res.AllPairs = append(res.AllPairs, dep)
			}
		}
	}
	sort.Slice(res.AllPairs, func(a, b int) bool {
		if res.AllPairs[a].Prob != res.AllPairs[b].Prob {
			return res.AllPairs[a].Prob > res.AllPairs[b].Prob
		}
		return res.AllPairs[a].Pair.String() < res.AllPairs[b].Pair.String()
	})
	for _, dep := range res.AllPairs {
		if dep.Prob >= cfg.DepThreshold {
			res.Dependences = append(res.Dependences, dep)
		}
	}
	return res, nil
}

// valueKey identifies one distinct (object, value) assertion of a trace.
type valueKey struct {
	o model.ObjectID
	v string
}

// span records when a trace first and last asserted a value.
type span struct{ first, last model.Time }

// spansOf collapses a trace into per-(object, value) assertion spans.
func spansOf(trace []update) map[valueKey]span {
	out := map[valueKey]span{}
	for _, u := range trace {
		k := valueKey{o: u.o, v: u.v}
		sp, ok := out[k]
		if !ok {
			out[k] = span{first: u.t, last: u.t}
			continue
		}
		if u.t < sp.first {
			sp.first = u.t
		}
		if u.t > sp.last {
			sp.last = u.t
		}
		out[k] = sp
	}
	return out
}

// match describes one shared (object, value) between two traces.
type match struct {
	rarity float64
	// lag is B's last assertion minus A's nearest assertion: a lazy
	// copier keeps re-asserting stale values after the master published
	// them, so positive lag means "B trails A".
	lag model.Time
}

// matchUpdates pairs each of B's distinct (object, value) assertions with
// A's same-value assertions, keeping matches within the window.
func matchUpdates(ta, tb []update, popularity map[model.ObjectID]map[string]int,
	nSources int, window model.Time) (matches []match, missesOfA int) {
	spansA := spansOf(ta)
	spansB := spansOf(tb)
	keys := make([]valueKey, 0, len(spansB))
	for k := range spansB {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].o != keys[j].o {
			if keys[i].o.Entity != keys[j].o.Entity {
				return keys[i].o.Entity < keys[j].o.Entity
			}
			return keys[i].o.Attribute < keys[j].o.Attribute
		}
		return keys[i].v < keys[j].v
	})
	matchedA := map[valueKey]bool{}
	for _, key := range keys {
		sa, ok := spansA[key]
		if !ok {
			continue
		}
		sb := spansB[key]
		// Lag of B's last word on the value against A's nearest
		// assertion.
		lag := sb.last - sa.first
		if alt := sb.last - sa.last; abs64(alt) < abs64(lag) {
			lag = alt
		}
		if abs64(lag) > window {
			continue
		}
		matchedA[key] = true
		others := popularity[key.o][key.v] - 2 // exclude the pair itself
		if others < 0 {
			others = 0
		}
		// Rarity weight in (0, 1]: updates nobody else makes weigh 1;
		// updates everyone makes weigh ~2/n.
		denom := nSources - 1
		if denom < 1 {
			denom = 1
		}
		rarity := 1 - float64(others)/float64(denom)
		matches = append(matches, match{rarity: rarity, lag: lag})
	}
	for k := range spansA {
		if !matchedA[k] {
			missesOfA++
		}
	}
	return matches, missesOfA
}

// scorePair computes the three-hypothesis posterior for one pair. The
// log-likelihood of each copy direction combines three channels:
//
//   - rarity: sharing an update is more surprising the fewer other sources
//     make it and the lower the alleged copier's own coverage (intuition 2
//     of the temporal section);
//   - order: under "B copies A", A's publication precedes B's trailing
//     assertion with probability OrderRho, while same-timestamp matches
//     favor independence (independents cluster on the real-world event;
//     copiers trail the master's publication);
//   - coverage: under "B copies A", B holds each of A's distinct updates
//     with probability MissCopyRate + (1-MissCopyRate)·q_B, versus q_B (its
//     global coverage) under independence. A source holding almost exactly
//     the master's update set despite modest global coverage is suspicious;
//     a high-coverage source overlapping everyone is not.
func scorePair(a, b model.SourceID, traces map[model.SourceID][]update,
	popularity map[model.ObjectID]map[string]int, nSources int,
	qCov map[model.SourceID]float64, cfg Config) (Dependence, bool) {
	matchesAB, missOfA := matchUpdates(traces[a], traces[b], popularity, nSources, cfg.Window)
	_, missOfB := matchUpdates(traces[b], traces[a], popularity, nSources, cfg.Window)
	if len(matchesAB) < cfg.MinSharedUpdates {
		return Dependence{}, false
	}
	dep := Dependence{Pair: model.NewSourcePair(a, b), Shared: len(matchesAB)}
	// Orientation bookkeeping: matchUpdates(ta, tb) produced lags where
	// positive means "b trails a". Flip if pair normalization swapped.
	flip := dep.Pair.A != a
	if flip {
		missOfA, missOfB = missOfB, missOfA
	}
	qA := stats.ClampProb(qCov[dep.Pair.A])
	qB := stats.ClampProb(qCov[dep.Pair.B])

	// Rarity channel, directional: the alleged copier's probability of
	// making a matched update independently is at least its global
	// coverage and at least the update's popularity among other sources.
	var rarityAB, rarityBA float64
	var aFirst, bFirst, ties float64
	for _, m := range matchesAB {
		qPop := stats.ClampProb(1 - m.rarity + 1.0/float64(nSources))
		qForA := math.Max(qPop, qA)
		qForB := math.Max(qPop, qB)
		rarityAB += math.Log((cfg.CopyRate + (1-cfg.CopyRate)*qForA) / qForA)
		rarityBA += math.Log((cfg.CopyRate + (1-cfg.CopyRate)*qForB) / qForB)
		lag := m.lag
		if flip {
			lag = -lag
		}
		dep.Rarity += m.rarity
		switch {
		case lag > 0: // pair.A published first; pair.B trails
			aFirst += m.rarity
		case lag < 0:
			bFirst += m.rarity
		default:
			ties += m.rarity
		}
	}
	dep.AFirst, dep.BFirst = aFirst, bFirst

	// Order channel. tiePen < 0: ties favor independence.
	rho := cfg.OrderRho
	tiePen := math.Log(cfg.TieDep / cfg.TieInd)
	orderBA := aFirst*math.Log(rho/0.5) + bFirst*math.Log((1-rho)/0.5) + ties*tiePen
	orderAB := bFirst*math.Log(rho/0.5) + aFirst*math.Log((1-rho)/0.5) + ties*tiePen

	// Coverage channel: binomial over the master's distinct updates.
	m := float64(len(matchesAB))
	cover := func(qCopier float64, missesOfMaster int) float64 {
		pd := stats.ClampProb(cfg.MissCopyRate + (1-cfg.MissCopyRate)*qCopier)
		k := float64(missesOfMaster)
		return m*math.Log(pd/qCopier) + k*math.Log((1-pd)/(1-qCopier))
	}
	coverBA := cover(qB, missOfA) // B copies A: A's updates are the trials
	coverAB := cover(qA, missOfB)

	logPost := []float64{
		math.Log(1 - cfg.Alpha),                              // independent
		math.Log(cfg.Alpha/2) + rarityAB + orderAB + coverAB, // A copies B
		math.Log(cfg.Alpha/2) + rarityBA + orderBA + coverBA, // B copies A
	}
	post := logPost
	err := stats.NormalizeLogInto(post, post)
	if err != nil {
		return Dependence{}, false
	}
	dep.ProbAB, dep.ProbBA = post[1], post[2]
	dep.Prob = post[1] + post[2]
	return dep, true
}
