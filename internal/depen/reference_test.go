package depen

import (
	"math"
	"slices"
	"sort"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/stats"
	"sourcecurrents/internal/truth"
)

// evidence accumulates the fractional counts for one pair from the current
// posterior beliefs. For each shared object: if the values agree exactly
// (verbatim — formatting included, since verbatim replication is itself
// copy evidence), the agreement is "true agreement" with the belief mass of
// that value's similarity class and "false agreement" with the complement;
// if they differ, kd += 1.
func evidence(d *dataset.Dataset, ov dataset.Overlap,
	probs map[model.ObjectID]map[string]float64,
	sim func(a, b string) float64) (kt, kf, kd float64) {
	for _, o := range ov.Objects {
		va, _ := d.Value(ov.Pair.A, o)
		vb, _ := d.Value(ov.Pair.B, o)
		if va != vb {
			kd++
			continue
		}
		p := truth.ClassMass(probs[o], va, sim)
		kt += p
		kf += 1 - p
	}
	return kt, kf, kd
}

// scorePair turns evidence into a Dependence verdict via Bayes.
func scorePair(ov dataset.Overlap, kt, kf, kd float64,
	acc map[model.SourceID]float64, cfg Config) Dependence {
	li, lab, lba := pairHypotheses(kt, kf, kd, acc[ov.Pair.A], acc[ov.Pair.B],
		cfg.CopyRate, cfg.Truth.N)
	// Priors: 1-α independent, α/2 per direction.
	logPrior := []float64{math.Log(1 - cfg.Alpha), math.Log(cfg.Alpha / 2), math.Log(cfg.Alpha / 2)}
	post, err := stats.NormalizeLog([]float64{li + logPrior[0], lab + logPrior[1], lba + logPrior[2]})
	if err != nil {
		post = []float64{1, 0, 0}
	}
	return Dependence{
		Pair:   ov.Pair,
		Prob:   post[1] + post[2],
		ProbAB: post[1],
		ProbBA: post[2],
		Shared: len(ov.Objects),
		Same:   ov.Same,
		KT:     kt, KF: kf, KD: kd,
	}
}

// detectMaps is the map-based reference implementation of Detect: the
// semantic specification the compiled path is tested against
// (golden_test.go).
func detectMaps(d *dataset.Dataset, cfg Config) (*Result, error) {
	// Candidate pairs and their overlaps are fixed across rounds.
	candidates := d.Pairs(cfg.MinShared)

	acc := make(map[model.SourceID]float64, len(d.Sources()))
	for _, s := range d.Sources() {
		acc[s] = cfg.Truth.InitialAccuracy
	}

	res := &Result{}
	var probs map[model.ObjectID]map[string]float64
	var pairs []Dependence
	// dirState holds the previous round's directional posteriors for the
	// vote discounts; the final round's verdicts become the result's state
	// below.
	dirState := map[model.SourceID]map[model.SourceID]float64{}
	objects := d.Objects()

	for round := 1; round <= cfg.MaxRounds; round++ {
		// Truth step with dependence discounts from the previous round.
		// Each object gets its own discount closure (discountFor keeps
		// per-object state only).
		discount := makeDiscount(d, acc, dirState, cfg.CopyRate)
		probs = make(map[model.ObjectID]map[string]float64, len(objects))
		for _, o := range objects {
			scores := truth.ScoreValues(d.ValuesFor(o), acc, cfg.Truth.N, discountFor(discount, o))
			scores = truth.ApplySimilarity(scores, cfg.Truth.ValueSim, cfg.Truth.ValueSimWeight)
			probs[o] = cfg.Truth.ApplyKnown(o, truth.SoftmaxScores(scores))
		}

		// Accuracy step.
		next := truth.UpdateAccuracySim(d, probs, cfg.Truth.PriorA, cfg.Truth.PriorB, cfg.Truth.ValueSim)

		// Dependence step: score candidate pairs in the candidates'
		// deterministic order.
		pairs = nil
		for _, ov := range candidates {
			kt, kf, kd := evidence(d, ov, probs, cfg.Truth.ValueSim)
			pairs = append(pairs, scorePair(ov, kt, kf, kd, next, cfg))
		}
		dir := map[model.SourceID]map[model.SourceID]float64{}
		for _, dep := range pairs {
			setDir(dir, dep.Pair.A, dep.Pair.B, dep.ProbAB)
			setDir(dir, dep.Pair.B, dep.Pair.A, dep.ProbBA)
		}
		dirState = dir
		res.Rounds = round

		if truth.MaxAccuracyDelta(acc, next) < cfg.Tol {
			acc = next
			res.Converged = true
			break
		}
		acc = next
	}

	res.Truth = &truth.Result{
		Probs:     probs,
		Accuracy:  acc,
		Rounds:    res.Rounds,
		Converged: res.Converged,
	}
	res.Truth.PickChosen()
	sortDeps(pairs)
	finishSortedPairs(res, pairs, cfg.DepThreshold)
	// The dense state is part of a Result; the oracle's is its maps laid out
	// densely.
	res.st = stateOf(res, d.Compiled(), cfg)
	return res, nil
}

// stateOf lays out a view's maps and pairs over c — the index of r's dataset
// or of a successor, where sources r never saw get cfg's InitialAccuracy and
// groups it never saw a zero — and hands them, the pairs as stored records,
// to StateFromParts. It is part
// of the oracle: the one map→dense walk left, and only in tests.
func stateOf(r *Result, c *dataset.Compiled, cfg Config) *State {
	acc := make([]float64, c.NumSources())
	for i := range acc {
		acc[i] = cfg.Truth.InitialAccuracy
		if a, ok := r.Truth.Accuracy[c.Source(i)]; ok {
			acc[i] = a
		}
	}
	probs := make([]float64, len(c.GroupValue))
	for oi := 0; oi < c.NumObjects(); oi++ {
		pv := r.Truth.Probs[c.Object(oi)]
		for g := c.GroupStart[oi]; g < c.GroupStart[oi+1]; g++ {
			probs[g] = pv[c.Value(int(c.GroupValue[g]))]
		}
	}
	recs := make([]pairRec, len(r.AllPairs))
	for k, pd := range r.AllPairs {
		a, _ := c.SourceIndex(pd.Pair.A)
		b, _ := c.SourceIndex(pd.Pair.B)
		recs[k] = pairRec{
			a: a, b: b, shared: int32(pd.Shared), same: int32(pd.Same),
			probAB: pd.ProbAB, probBA: pd.ProbBA, kt: pd.KT, kf: pd.KF, kd: pd.KD,
		}
	}
	slices.SortFunc(recs, comparePairs)
	st, err := StateFromParts(c, acc, probs, (&State{pairs: recs}).PairBytes(), r.Rounds, r.Converged)
	if err != nil {
		panic(err)
	}
	return st
}

func setDir(m map[model.SourceID]map[model.SourceID]float64, from, to model.SourceID, p float64) {
	inner, ok := m[from]
	if !ok {
		inner = map[model.SourceID]float64{}
		m[from] = inner
	}
	inner[to] = p
}

// discountTable holds the read-only inputs of the per-round vote
// multipliers; built once per round and shared by all workers.
type discountTable struct {
	d   *dataset.Dataset
	acc map[model.SourceID]float64
	dir map[model.SourceID]map[model.SourceID]float64
	c   float64
}

func makeDiscount(d *dataset.Dataset, acc map[model.SourceID]float64,
	dir map[model.SourceID]map[model.SourceID]float64, c float64) *discountTable {
	return &discountTable{d: d, acc: acc, dir: dir, c: c}
}

// discountFor adapts the table to truth.ScoreValues' callback signature for
// a fixed object. The returned closure memoizes per-object factors locally
// — the table itself stays read-only — so distinct objects can be scored
// concurrently without synchronization. Each closure is used by a single
// goroutine (the one scoring its object).
func discountFor(t *discountTable, o model.ObjectID) func(s model.SourceID, v string) float64 {
	if t == nil {
		return nil
	}
	memo := map[model.SourceID]float64{}
	computed := map[string]bool{}
	return func(s model.SourceID, v string) float64 {
		if f, ok := memo[s]; ok {
			return f
		}
		if !computed[v] {
			computed[v] = true
			t.fillFactors(o, v, memo)
		}
		if f, ok := memo[s]; ok {
			return f
		}
		return 1
	}
}

// fillFactors computes the independence probability of each vote for value
// v on object o: the probability that the source did NOT copy its value
// from any higher-ranked source asserting the same value. Sources are
// ranked by accuracy (descending, ties by id) so the most credible provider
// keeps the full vote — the greedy order of the VLDB 2009 vote-count
// computation. Results are written into the caller's memo.
//
// The discount uses the pair's TOTAL dependence posterior rather than the
// directional split: within a clique asserting the same value, what matters
// is how many independent origins the value has, and when the direction is
// ambiguous (identical sources) a directional split would leak votes — a
// fully dependent pair would keep 1.6 votes instead of ~1.2. Charging the
// lower-ranked member the full dependence implements the paper's "ignore
// the values provided by S4 and S5 during the voting process".
func (t *discountTable) fillFactors(o model.ObjectID, v string, memo map[model.SourceID]float64) {
	// Collect the sources asserting v on o and rank them.
	var group []model.SourceID
	for _, g := range t.d.ValuesFor(o) {
		if g.Value == v {
			group = append(group, g.Sources...)
			break
		}
	}
	sort.Slice(group, func(i, j int) bool {
		ai, aj := t.acc[group[i]], t.acc[group[j]]
		if ai != aj {
			return ai > aj
		}
		return group[i] < group[j]
	})
	for i, si := range group {
		f := 1.0
		for j := 0; j < i; j++ {
			dep := t.dirOf(si, group[j]) + t.dirOf(group[j], si)
			if dep > 1 {
				dep = 1
			}
			f *= 1 - t.c*dep
		}
		memo[si] = f
	}
}

func (t *discountTable) dirOf(from, to model.SourceID) float64 {
	if m, ok := t.dir[from]; ok {
		return m[to]
	}
	return 0
}
