// The ACCUCOPY loop: one implementation for flat and incremental solves.
//
// refine solves a dataset given the result for its predecessor. A batch
// marks a set of sources and objects dirty; each round then
//
//   - rescores only the dirty objects' posteriors (seeded from the
//     predecessor's, so untouched objects keep their converged rows),
//   - re-estimates every source's accuracy over the full posterior vector
//     (cheap, and it keeps the global accuracy/vote-weight coupling exact),
//   - rescores only the dirty pairs — pairs with a dirty member, which
//     includes every pair new to the candidate set.
//
// A flat solve (Detect on a dataset with no append log) is the degenerate
// case: the predecessor is empty, so accuracies start at InitialAccuracy,
// every source, object and pair is dirty, nothing is kept, and the loop
// runs up to MaxRounds instead of RefineRounds. Its round 1 is undiscounted
// — no verdict exists yet, every independence factor is exactly 1 — so it
// scores plain vote sums and skips the rank-and-discount pass.
//
// Kept pairs are exact where it matters and approximate by design where it
// does not: their Shared/Same counts are provably current, because growing
// a pair's overlap or agreement takes a claim by one of its members, which
// would have dirtied it; their verdicts are the predecessor's, so the
// accuracy and posterior drift a batch induces elsewhere is not re-applied
// to them. That bounds an append's cost (dirtying every pair that merely
// shares an object with the batch is a full rescore on dense datasets).
//
// refine is a pure function of (dataset, predecessor result, config). The
// live path (Session.Append refining its cached result) and the rebuild
// path (Detect replaying the log from the flat base) run this same code on
// identical inputs, which makes them bit-identical by construction.
package depen

import (
	"fmt"
	"math"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/engine"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/truth"
)

// Refine advances prev — the Detect result of d's previous epoch,
// d.At(d.Epoch()-1) — across d's most recently appended batch, running
// cfg.RefineRounds bounded passes. The result is exactly what Detect(d, cfg)
// produces for the final batch of d's log.
func Refine(d *dataset.Dataset, prev *Result, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !d.Frozen() {
		return nil, fmt.Errorf("depen: dataset must be frozen")
	}
	if d.Epoch() == 0 {
		return nil, fmt.Errorf("depen: Refine requires an appended dataset (use Detect for flat datasets)")
	}
	if prev == nil || prev.Truth == nil {
		return nil, fmt.Errorf("depen: Refine requires the predecessor's result")
	}
	return refine(d, prev, cfg), nil
}

// refine solves d given prev, the result of d's previous epoch; a nil prev
// is the empty predecessor of a flat d.
//
// The candidate set is assembled incrementally: a pair either has a dirty
// member (merge-joined fresh over d's claim lists) or is carried over from
// the predecessor verbatim — rebuilding the full pair×overlap structure per
// batch would cost as much as a flat solve.
func refine(d *dataset.Dataset, prev *Result, cfg Config) *Result {
	c := d.Compiled()
	solver := truth.NewDenseSolver(c, cfg.Truth)
	nS := c.NumSources()
	nO := c.NumObjects()

	// Everything starts at the prior: InitialAccuracy and zero rows. Every
	// group the predecessor never saw belongs to a dirty object and is
	// rescored in round 1 before anything reads it.
	acc := make([]float64, nS)
	for i := range acc {
		acc[i] = cfg.Truth.InitialAccuracy
	}
	probs := make([]float64, len(c.GroupValue))
	rounds := cfg.MaxRounds

	// Dirty sets, fixed for the whole solve: the batch's sources and objects,
	// and through them the pairs whose evidence the batch can have moved.
	// Both are nil for a flat solve, where everything is dirty.
	dirtySrc, dirtyObjs := dirtySets(c, d.Batch(), prev == nil)
	nDirtyObj := nO
	if dirtyObjs != nil {
		nDirtyObj = len(dirtyObjs)
	}

	// depTab[i*nS+j] is the total (both-direction) dependence posterior of
	// the pair {i, j} going into a round: the predecessor's verdicts, with
	// the dirty pairs' cells overwritten after every round (the kept pairs'
	// never change). haveDep says it holds any verdict at all; until one
	// exists — round 1 of a flat solve — every discount factor is exactly 1
	// and scoring skips the rank-and-discount pass.
	depTab := make([]float64, nS*nS)
	haveDep := prev != nil && len(prev.AllPairs) > 0
	res := &Result{dir: newDirTableFor(c.SourceIDs())}

	// What else a predecessor contributes: seeds for accuracies, posteriors
	// and the discount table, and the pairs without a dirty member, kept
	// verbatim (as indexes into prev.AllPairs) — verdict, Shared and Same all
	// still exact. A pair with a dirty member is superseded by its
	// freshly-joined candidate (overlap only grows, so it still is one): its
	// old verdict discounts round 1 and is rescored from then on.
	var kept []int32
	if prev != nil {
		rounds = cfg.EffectiveRefineRounds()
		for i := range acc {
			if a, ok := prev.Truth.Accuracy[c.Source(i)]; ok {
				acc[i] = a
			}
		}
		solver.FillProbs(probs, prev.Truth.Probs)

		kept = make([]int32, 0, len(prev.AllPairs))
		for i := range prev.AllPairs {
			pd := &prev.AllPairs[i]
			ai, aok := c.SourceIndex(pd.Pair.A)
			bi, bok := c.SourceIndex(pd.Pair.B)
			if !aok || !bok {
				continue // unreachable: the log is append-only
			}
			t := pd.ProbAB + pd.ProbBA
			depTab[int(ai)*nS+int(bi)] = t
			depTab[int(bi)*nS+int(ai)] = t
			if !dirtySrc[ai] && !dirtySrc[bi] {
				kept = append(kept, int32(i))
				res.dir.set(ai, bi, pd.ProbAB, pd.ProbBA)
			}
		}
	}

	cands, ov := buildCandidates(c, cfg.MinShared, dirtySrc)
	deps := make([]Dependence, len(cands))

	weights := make([]float64, nS)
	next := make([]float64, nS)
	maxGroupSrc := c.MaxSourcesPerGroup()
	newScratch := func() *depenScratch {
		return &depenScratch{
			ds:   solver.NewScratch(),
			rank: make([]int32, maxGroupSrc),
			fac:  make([]float64, maxGroupSrc),
		}
	}
	logPrior := [3]float64{
		math.Log(1 - cfg.Alpha), math.Log(cfg.Alpha / 2), math.Log(cfg.Alpha / 2),
	}
	eng := cfg.Engine()

	// The two per-item steps of a round, built once: they read acc, next,
	// probs, depTab and haveDep as the rounds update them.
	truthStep := func(k int, sc *depenScratch) {
		oi := k
		if dirtyObjs != nil {
			oi = int(dirtyObjs[k])
		}
		row := solver.Row(probs, oi)
		if kr := solver.KnownRow(oi); kr != nil {
			copy(row, kr)
			return
		}
		scores := scoreObjectDiscounted(solver, oi, weights, acc, depTab, haveDep, cfg.CopyRate, sc)
		solver.FinishObject(oi, scores, row, sc.ds)
	}
	pairStep := func(pi int, sc *depenScratch) {
		deps[pi] = scorePairDense(c, solver, cands[pi], ov, probs, next, cfg, logPrior, sc)
	}

	for round := 1; round <= rounds; round++ {
		// Truth step over the dirty objects, with dependence discounts from
		// the previous round.
		solver.FillWeights(acc, weights)
		engine.ForNScratch(eng, nDirtyObj, newScratch, truthStep)

		// Accuracy step over every source: untouched sources recompute the
		// same sums from unchanged rows, so this keeps the global coupling
		// without costing precision.
		solver.UpdateAccuracy(eng, probs, next)

		// Dependence step over the dirty pairs, in their canonical order.
		engine.ForNScratch(eng, len(cands), newScratch, pairStep)
		for pi := range deps {
			a, b := int(cands[pi].a), int(cands[pi].b)
			t := deps[pi].ProbAB + deps[pi].ProbBA
			depTab[a*nS+b] = t
			depTab[b*nS+a] = t
		}
		haveDep = len(cands) > 0 || len(kept) > 0
		res.Rounds = round

		if truth.MaxAccuracyDeltaVec(acc, next) < cfg.Tol {
			copy(acc, next)
			res.Converged = true
			break
		}
		copy(acc, next)
	}

	res.Truth = &truth.Result{
		Probs:     solver.ProbsMap(probs),
		Accuracy:  solver.AccuracyMap(acc),
		Rounds:    res.Rounds,
		Converged: res.Converged,
	}
	res.Truth.PickChosen()
	for pi := range deps {
		res.dir.set(cands[pi].a, cands[pi].b, deps[pi].ProbAB, deps[pi].ProbBA)
	}

	// AllPairs: the kept subsequence is already in depLess order (it is an
	// order-preserving filter of the predecessor's sorted AllPairs), so
	// sorting only the rescored pairs and merging avoids the full-set sort;
	// with nothing kept the rescored pairs are the result as they stand.
	sortDeps(deps)
	all := deps
	if len(kept) > 0 {
		all = make([]Dependence, 0, len(kept)+len(deps))
		ki, di := 0, 0
		for ki < len(kept) && di < len(deps) {
			if depLess(&prev.AllPairs[kept[ki]], &deps[di]) {
				all = append(all, prev.AllPairs[kept[ki]])
				ki++
			} else {
				all = append(all, deps[di])
				di++
			}
		}
		for ; ki < len(kept); ki++ {
			all = append(all, prev.AllPairs[kept[ki]])
		}
		all = append(all, deps[di:]...)
	}
	finishSortedPairs(res, all, cfg.DepThreshold)
	return res
}

// dirtySets returns a batch's sources as a mask over c's sources and its
// objects as an ascending index list; nil, nil when everything is dirty.
func dirtySets(c *dataset.Compiled, batch []model.Claim, all bool) ([]bool, []int32) {
	if all {
		return nil, nil
	}
	nO := c.NumObjects()
	dirtySrc := make([]bool, c.NumSources())
	dirtyObj := make([]bool, nO)
	for _, cl := range batch {
		if si, ok := c.SourceIndex(cl.Source); ok {
			dirtySrc[si] = true
		}
		if oi, ok := c.ObjectIndex(cl.Object); ok {
			dirtyObj[oi] = true
		}
	}
	dirtyObjs := make([]int32, 0, nO)
	for oi := 0; oi < nO; oi++ {
		if dirtyObj[oi] {
			dirtyObjs = append(dirtyObjs, int32(oi))
		}
	}
	return dirtySrc, dirtyObjs
}
