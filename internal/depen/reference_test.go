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
		p := classMass(probs[o], va, sim)
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
	post := []float64{li + logPrior[0], lab + logPrior[1], lba + logPrior[2]}
	err := stats.NormalizeLogInto(post, post)
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
	// Candidate pairs and their overlaps are fixed across rounds: every
	// unordered pair sharing at least MinShared objects, in source order.
	var candidates []dataset.Overlap
	sources := d.Sources()
	for i, a := range sources {
		for _, b := range sources[i+1:] {
			if ov := d.OverlapOf(a, b); len(ov.Objects) >= cfg.MinShared {
				candidates = append(candidates, ov)
			}
		}
	}

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
			scores := scoreValues(d.ValuesFor(o), acc, cfg.Truth.N, discountFor(discount, o))
			scores = applySimilarity(scores, cfg.Truth.ValueSim, cfg.Truth.ValueSimWeight)
			probs[o] = applyKnown(cfg.Truth, o, softmaxScores(scores))
		}

		// Accuracy step.
		next := updateAccuracySim(d, probs, cfg.Truth.PriorA, cfg.Truth.PriorB, cfg.Truth.ValueSim)

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

		if maxAccuracyDelta(acc, next) < cfg.Tol {
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

// discountFor adapts the table to scoreValues' callback signature for
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

// The truth step of detectMaps: the per-object map-based steps. The truth
// package checks its dense solver against the same steps, kept in its own
// reference_test.go, which no other package can import.

// scoreValues computes per-candidate scores for one object: the sum of the
// asserting sources' weights, each multiplied by discount(s, value). A nil
// discount means no discounting.
func scoreValues(groups []dataset.ValueGroup, acc map[model.SourceID]float64, n int,
	discount func(s model.SourceID, value string) float64) map[string]float64 {
	scores := make(map[string]float64, len(groups))
	for _, g := range groups {
		var c float64
		for _, s := range g.Sources {
			w := truth.WeightOf(acc[s], n)
			if discount != nil {
				w *= discount(s, g.Value)
			}
			c += w
		}
		scores[g.Value] = c
	}
	return scores
}

// applySimilarity adds similarity-leaked support to each score:
// score'(v) = score(v) + weight · Σ_{v'≠v} sim(v,v')·score(v').
func applySimilarity(scores map[string]float64, sim func(a, b string) float64, weight float64) map[string]float64 {
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

// applyKnown overrides the posterior of labeled objects: the labeled value
// gets the pin probability and the remainder is split over the other
// observed candidates.
func applyKnown(c truth.Config, o model.ObjectID, probs map[string]float64) map[string]float64 {
	want, ok := c.Known[o]
	if !ok {
		return probs
	}
	conf := c.KnownConfidence
	if conf == 0 {
		conf = 0.99
	}
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

// updateAccuracySim re-estimates each source's accuracy as the smoothed
// mean posterior of the values it asserts, each credited with its
// similarity class mass.
func updateAccuracySim(d *dataset.Dataset, probs map[model.ObjectID]map[string]float64,
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
			sum += classMass(probs[o], v, sim)
			cnt++
		}
		// Beta-smoothed mean: (sum + a) / (cnt + a + b). Probabilities are
		// fractional successes, so this generalizes the Beta posterior mean.
		acc[s] = stats.ClampProb((sum + priorA) / (float64(cnt) + priorA + priorB))
	}
	return acc
}

// classMass returns the posterior mass of the equivalence class of v under
// the similarity function: Σ_v' P(v')·sim(v, v'), where sim(v, v) counts
// fully. With a nil sim it is just P(v). This is how a source asserting
// "J. Ullman" gets credit for the posterior of "Jeffrey Ullman": exact
// string probabilities fragment across representations, class mass does
// not.
//
// Candidates are accumulated in sorted-value order — the canonical
// iteration order of every solver loop — so the sum is reproducible and the
// compiled dense path (which walks value-sorted groups) is bit-identical.
func classMass(probs map[string]float64, v string, sim func(a, b string) float64) float64 {
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

// maxAccuracyDelta returns the largest absolute per-source change between
// two accuracy maps; the fixpoint test.
func maxAccuracyDelta(a, b map[model.SourceID]float64) float64 {
	var max float64
	for s, av := range a {
		d := math.Abs(av - b[s])
		if d > max {
			max = d
		}
	}
	return max
}

// sortDeps is the oracle's AllPairs order, by depLess over the named pairs;
// State.Result reaches it without comparing names.
func sortDeps(deps []Dependence) {
	sort.Slice(deps, func(i, j int) bool {
		return depLess(&deps[i], &deps[j])
	})
}

// depLess is the AllPairs ordering: confidence first, pair identity as the
// deterministic tie-break.
func depLess(x, y *Dependence) bool {
	if x.Prob != y.Prob {
		return x.Prob > y.Prob
	}
	if x.Pair.A != y.Pair.A {
		return x.Pair.A < y.Pair.A
	}
	return x.Pair.B < y.Pair.B
}
