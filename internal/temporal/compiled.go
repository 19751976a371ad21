// Dense (compiled-index) execution of update-trace dependence detection.
//
// detectPairsCompiled replaces the per-pair span-map construction and key
// sort of the reference path with a single merge join over each source's
// precompiled, key-sorted span list (dataset.Compiled.SpanKey packs object
// and value indexes so int64 order equals the reference's string sort
// order). Both copy directions are matched in the one pass. Iteration and
// summation orders match the reference path exactly, so results are
// bit-identical (enforced by the golden equivalence tests).
package temporal

import (
	"math"
	"sort"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/engine"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/stats"
)

type tempScratch struct {
	logs [3]float64
	post [3]float64
}

// scorePairCompiled analyzes the pair (i, j), i < j, over the compiled span
// lists. ok is false when the pair lacks shared updates or the posterior is
// degenerate, mirroring the reference scorePair.
func scorePairCompiled(c *dataset.Compiled, i, j int, qCov []float64, cfg Config,
	sc *tempScratch) (Dependence, bool) {
	ai, ae := c.SpanStart[i], c.SpanStart[i+1]
	bi, be := c.SpanStart[j], c.SpanStart[j+1]
	nS := c.NumSources()
	denom := nS - 1
	if denom < 1 {
		denom = 1
	}
	qA := stats.ClampProb(qCov[i])
	qB := stats.ClampProb(qCov[j])

	var matchCount, missOfA, missOfB int
	var rarityAB, rarityBA, aFirst, bFirst, ties, raritySum float64
	p, q := ai, bi
	for p < ae && q < be {
		switch {
		case c.SpanKey[p] < c.SpanKey[q]:
			missOfA++
			p++
		case c.SpanKey[p] > c.SpanKey[q]:
			missOfB++
			q++
		default:
			key := c.SpanKey[p]
			saF, saL := c.SpanFirst[p], c.SpanLast[p]
			sbF, sbL := c.SpanFirst[q], c.SpanLast[q]
			p++
			q++
			// Direction "B copies A"-style match of the A→B pass: B's last
			// word against A's nearest assertion.
			lag := sbL - saF
			if alt := sbL - saL; abs64(alt) < abs64(lag) {
				lag = alt
			}
			// The reverse pass (roles swapped) decides B's miss count.
			lag2 := saL - sbF
			if alt := saL - sbL; abs64(alt) < abs64(lag2) {
				lag2 = alt
			}
			if abs64(lag2) > cfg.Window {
				missOfB++
			}
			if abs64(lag) > cfg.Window {
				missOfA++
				continue
			}
			matchCount++
			others := int(c.PopularityOf(key)) - 2 // exclude the pair itself
			if others < 0 {
				others = 0
			}
			rarity := 1 - float64(others)/float64(denom)
			qPop := stats.ClampProb(1 - rarity + 1.0/float64(nS))
			qForA := math.Max(qPop, qA)
			qForB := math.Max(qPop, qB)
			rarityAB += math.Log((cfg.CopyRate + (1-cfg.CopyRate)*qForA) / qForA)
			rarityBA += math.Log((cfg.CopyRate + (1-cfg.CopyRate)*qForB) / qForB)
			raritySum += rarity
			switch {
			case lag > 0: // A published first; B trails
				aFirst += rarity
			case lag < 0:
				bFirst += rarity
			default:
				ties += rarity
			}
		}
	}
	missOfA += int(ae - p)
	missOfB += int(be - q)

	if matchCount < cfg.MinSharedUpdates {
		return Dependence{}, false
	}
	dep := Dependence{
		Pair:   model.SourcePair{A: c.Source(i), B: c.Source(j)},
		Shared: matchCount,
		AFirst: aFirst, BFirst: bFirst,
		Rarity: raritySum,
	}

	// Order channel. tiePen < 0: ties favor independence.
	rho := cfg.OrderRho
	tiePen := math.Log(cfg.TieDep / cfg.TieInd)
	orderBA := aFirst*math.Log(rho/0.5) + bFirst*math.Log((1-rho)/0.5) + ties*tiePen
	orderAB := bFirst*math.Log(rho/0.5) + aFirst*math.Log((1-rho)/0.5) + ties*tiePen

	// Coverage channel: binomial over the master's distinct updates.
	m := float64(matchCount)
	cover := func(qCopier float64, missesOfMaster int) float64 {
		pd := stats.ClampProb(cfg.MissCopyRate + (1-cfg.MissCopyRate)*qCopier)
		k := float64(missesOfMaster)
		return m*math.Log(pd/qCopier) + k*math.Log((1-pd)/(1-qCopier))
	}
	coverBA := cover(qB, missOfA) // B copies A: A's updates are the trials
	coverAB := cover(qA, missOfB)

	sc.logs[0] = math.Log(1 - cfg.Alpha)
	sc.logs[1] = math.Log(cfg.Alpha/2) + rarityAB + orderAB + coverAB
	sc.logs[2] = math.Log(cfg.Alpha/2) + rarityBA + orderBA + coverBA
	post := sc.post[:]
	if err := stats.NormalizeLogInto(post, sc.logs[:]); err != nil {
		return Dependence{}, false
	}
	dep.ProbAB, dep.ProbBA = post[1], post[2]
	dep.Prob = post[1] + post[2]
	return dep, true
}

// detectPairsCompiled is DetectPairs over the compiled index.
func detectPairsCompiled(c *dataset.Compiled, cfg Config) *Result {
	nS := c.NumSources()
	// Global coverage per source: its share of the distinct (object, value)
	// assertions seen anywhere.
	union := len(c.PopKey)
	qCov := make([]float64, nS)
	if union > 0 {
		for si := 0; si < nS; si++ {
			qCov[si] = float64(c.SpanStart[si+1]-c.SpanStart[si]) / float64(union)
		}
	}

	type verdict struct {
		dep Dependence
		ok  bool
	}
	var pairs [][2]int32
	if nS >= 2 {
		pairs = make([][2]int32, 0, nS*(nS-1)/2)
		for i := 0; i < nS; i++ {
			for j := i + 1; j < nS; j++ {
				pairs = append(pairs, [2]int32{int32(i), int32(j)})
			}
		}
	}
	verdicts := make([]verdict, len(pairs))
	engine.ForNScratch(len(pairs), func() *tempScratch { return &tempScratch{} },
		func(pi int, sc *tempScratch) {
			dep, ok := scorePairCompiled(c, int(pairs[pi][0]), int(pairs[pi][1]), qCov, cfg, sc)
			verdicts[pi] = verdict{dep: dep, ok: ok}
		})

	res := &Result{}
	for _, v := range verdicts {
		if !v.ok {
			continue
		}
		res.AllPairs = append(res.AllPairs, v.dep)
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
	return res
}
