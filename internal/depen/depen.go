// Package depen implements the paper's primary contribution for snapshot
// data: discovery of similarity-dependence (copying) between sources, and
// dependence-aware truth discovery.
//
// Two intuitions from §3.2 drive the detector:
//
//  1. Sources sharing false values are far more likely to be dependent than
//     sources sharing true values — independent accurate sources agree on
//     the truth for free, but agreeing on the same mistake is improbable
//     (the multiple-choice-quiz argument). Evidence is therefore split into
//     fractional counts kt (shared-and-true), kf (shared-and-false) and kd
//     (differing), weighted by the current belief that the shared value is
//     true.
//
//  2. A copier's accuracy on the data it shares with its master differs
//     from its accuracy on the data it provides alone; an independent
//     source is equally good everywhere. This yields both a direction
//     signal and a partial-copier diagnostic (AccuracySplit).
//
// The generative model (the companion VLDB 2009 formalization of this
// paper's sketch): a copier copies each object independently with
// probability c; otherwise it behaves like an independent source with its
// own accuracy. With n plausible false values per object and accuracies
// A1, A2:
//
//	independent:  Pt = A1·A2          Pf = (1−A1)(1−A2)/n   Pd = 1−Pt−Pf
//	S2 copies S1: Pt' = c·A1 + (1−c)·Pt
//	              Pf' = c·(1−A1) + (1−c)·Pf
//	              Pd' = (1−c)·Pd
//
// Bayes over the three hypotheses {independent, A→B, B→A} with prior α of
// dependence gives the pairwise posteriors; the direction is identified
// because the copy branch uses the *master's* accuracy.
//
// Truth discovery then discounts votes: within the sources asserting a
// value, each source's weight is multiplied by Π (1 − c·P(this source
// copies an already-counted source)), so a clique of copiers contributes
// barely more than one independent vote. The outer loop iterates truth ↔
// accuracy ↔ dependence to a fixpoint (the ACCUCOPY scheme the paper's
// §3.2 proposes as "iteratively determining true values, computing accuracy
// of sources, and discovering dependence").
//
// That loop exists once, in refine.go. Detect on a flat dataset runs it from
// the empty predecessor to the fixpoint; Refine runs it from a predecessor's
// result over what an appended batch dirtied, for a bounded number of
// rounds; Detect on a dataset with an append log is the first followed by
// one of the second per batch.
package depen

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/engine"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/stats"
	"sourcecurrents/internal/truth"
)

// Config parameterizes detection. Start from DefaultConfig.
type Config struct {
	// Truth configures the inner truth-discovery step (N, smoothing, ...).
	Truth truth.Config
	// CopyRate is c: the probability that a copier copies any given object.
	CopyRate float64
	// Alpha is the prior probability that a random pair is dependent
	// (split evenly between the two directions).
	Alpha float64
	// MinShared is the minimum overlap for a pair to be analyzed at all
	// (Example 4.1 uses 10). Pairs below it are treated as independent.
	MinShared int
	// DepThreshold is the posterior above which a pair is reported as
	// dependent.
	DepThreshold float64
	// MaxRounds caps the outer loop; Tol is its accuracy-fixpoint
	// threshold.
	MaxRounds int
	Tol       float64
	// Parallelism is the worker count for the per-object truth step and the
	// O(S²) pairwise hypothesis scoring. Values <= 0 select
	// runtime.GOMAXPROCS(0); 1 reproduces sequential execution exactly.
	// Results are bit-identical at every setting. It governs every phase of
	// Detect; the embedded Truth config's own Parallelism is not consulted
	// here.
	Parallelism int
	// RefineRounds is the number of bounded refinement passes an appended
	// batch gets when a log-carrying dataset is replayed (see Refine).
	// Values <= 0 select DefaultRefineRounds. It does not affect flat
	// datasets.
	RefineRounds int
}

// DefaultRefineRounds is the per-batch refinement pass count used when
// Config.RefineRounds is unset. Two passes let the appended evidence
// propagate truth -> accuracy -> dependence and settle once more, which the
// equivalence suite shows is where the marginal accuracy of more passes
// collapses to the Tol scale.
const DefaultRefineRounds = 2

// EffectiveRefineRounds returns the per-batch refinement pass count with the
// default applied — the value that actually shapes a replayed result (and
// that session snapshots fingerprint).
func (c Config) EffectiveRefineRounds() int {
	if c.RefineRounds <= 0 {
		return DefaultRefineRounds
	}
	return c.RefineRounds
}

// Engine returns the execution-engine configuration for this detector.
func (c Config) Engine() engine.Config {
	return engine.Config{Workers: c.Parallelism}
}

// DefaultConfig returns the parameters used across the experiments.
func DefaultConfig() Config {
	return Config{
		Truth:        truth.DefaultConfig(),
		CopyRate:     0.8,
		Alpha:        0.2,
		MinShared:    2,
		DepThreshold: 0.5,
		MaxRounds:    15,
		Tol:          1e-4,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Truth.Validate(); err != nil {
		return err
	}
	if c.CopyRate <= 0 || c.CopyRate >= 1 {
		return errors.New("depen: CopyRate must be in (0,1)")
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return errors.New("depen: Alpha must be in (0,1)")
	}
	if c.MinShared < 1 {
		return errors.New("depen: MinShared must be >= 1")
	}
	if c.DepThreshold < 0 || c.DepThreshold > 1 {
		return errors.New("depen: DepThreshold must be in [0,1]")
	}
	if c.MaxRounds < 1 {
		return errors.New("depen: MaxRounds must be >= 1")
	}
	if c.Tol <= 0 {
		return errors.New("depen: Tol must be > 0")
	}
	return nil
}

// Dependence is the detector's verdict on one source pair.
type Dependence struct {
	Pair model.SourcePair
	// Prob is the posterior probability that the pair is dependent
	// (either direction).
	Prob float64
	// ProbAB is the posterior that A copies B; ProbBA that B copies A.
	// Prob = ProbAB + ProbBA.
	ProbAB, ProbBA float64
	// Shared is the overlap size; Same the number of shared objects with
	// equal values.
	Shared, Same int
	// KT, KF, KD are the fractional evidence counts (shared-true,
	// shared-false, differing).
	KT, KF, KD float64
}

// Copier returns the more likely copier of the pair under the current
// posterior, and the margin ProbCopier − ProbOther.
func (dep Dependence) Copier() (model.SourceID, float64) {
	if dep.ProbAB >= dep.ProbBA {
		return dep.Pair.A, dep.ProbAB - dep.ProbBA
	}
	return dep.Pair.B, dep.ProbBA - dep.ProbAB
}

// Result is the outcome of the full detection loop.
type Result struct {
	// Truth is the dependence-aware truth-discovery result.
	Truth *truth.Result
	// Dependences holds every analyzed pair with posterior >= DepThreshold,
	// sorted by decreasing posterior (ties by pair name).
	Dependences []Dependence
	// AllPairs holds every analyzed pair regardless of threshold.
	AllPairs []Dependence
	// Rounds is the number of outer-loop iterations; Converged whether the
	// accuracy fixpoint was reached.
	Rounds    int
	Converged bool

	dir *dirTable
}

// dirTable is the dense directional-posterior lookup backing CopyProb and
// DependenceProb: every dataset source in sorted order, with P(i copies j)
// in a flat row-major table. Every construction path builds it over the
// same sorted source list, so results are structurally identical whichever
// path produced them. The nested-map form it replaces cost more to
// populate than the entire rest of a snapshot load.
type dirTable struct {
	idx  map[model.SourceID]int32
	n    int
	prob []float64
}

// newDirTableFor returns an empty table over the (sorted) source list.
func newDirTableFor(sources []model.SourceID) *dirTable {
	idx := make(map[model.SourceID]int32, len(sources))
	for i, s := range sources {
		idx[s] = int32(i)
	}
	n := len(sources)
	return &dirTable{idx: idx, n: n, prob: make([]float64, n*n)}
}

// set records a pair verdict by dense source index.
func (t *dirTable) set(ai, bi int32, probAB, probBA float64) {
	t.prob[int(ai)*t.n+int(bi)] = probAB
	t.prob[int(bi)*t.n+int(ai)] = probBA
}

// setByID records a pair verdict by source id (the map-path form).
func (t *dirTable) setByID(a, b model.SourceID, probAB, probBA float64) {
	t.set(t.idx[a], t.idx[b], probAB, probBA)
}

// of returns P(from copies to); 0 for sources outside the table.
func (t *dirTable) of(from, to model.SourceID) float64 {
	if t == nil {
		return 0
	}
	fi, ok := t.idx[from]
	if !ok {
		return 0
	}
	ti, ok := t.idx[to]
	if !ok {
		return 0
	}
	return t.prob[int(fi)*t.n+int(ti)]
}

// FillTotals writes the total (both-direction) dependence posterior of
// every source pair into out[i*n+j], where i, j index the given sorted
// source list — the dense serving table. It reports false when the result's
// lookup table was not built over exactly this source list.
func (r *Result) FillTotals(sources []model.SourceID, out []float64) bool {
	t := r.dir
	if t == nil || t.n != len(sources) || len(out) != t.n*t.n {
		return false
	}
	for i, s := range sources {
		if got, ok := t.idx[s]; !ok || got != int32(i) {
			return false
		}
	}
	for i := 0; i < t.n; i++ {
		for j := 0; j < t.n; j++ {
			out[i*t.n+j] = t.prob[i*t.n+j] + t.prob[j*t.n+i]
		}
	}
	return true
}

// DependenceProb returns the posterior that a and b are dependent (either
// direction); 0 for unanalyzed pairs.
func (r *Result) DependenceProb(a, b model.SourceID) float64 {
	return r.directional(a, b) + r.directional(b, a)
}

// CopyProb returns the posterior that copier copies master; 0 for
// unanalyzed pairs.
func (r *Result) CopyProb(copier, master model.SourceID) float64 {
	return r.directional(copier, master)
}

func (r *Result) directional(from, to model.SourceID) float64 {
	return r.dir.of(from, to)
}

// ResultFromParts reassembles a Result from its serializable parts — the
// truth result, the dataset's sorted source list, every analyzed pair's
// final-round verdict, and the threshold/round bookkeeping. The session
// snapshot loader uses it to rebuild the cached precompute without
// re-running Detect; given the parts of a prior Detect run it reproduces
// that run's Result exactly (the directional lookup table and the
// thresholded Dependences slice are derived from allPairs the same way
// Detect derives them). It takes ownership of allPairs, which may be
// re-sorted in place.
//
// pairA and pairB, when non-nil, give each pair's dense indices into
// sources (pairA[i] indexes allPairs[i].Pair.A), letting a decoder that
// already holds indices skip ~2·|pairs| string-map lookups; pass nil to
// derive them by lookup.
func ResultFromParts(tr *truth.Result, sources []model.SourceID,
	allPairs []Dependence, pairA, pairB []int32,
	depThreshold float64, rounds int, converged bool) *Result {
	t := newDirTableFor(sources)
	if len(pairA) == len(allPairs) && len(pairB) == len(allPairs) {
		for i := range allPairs {
			t.set(pairA[i], pairB[i], allPairs[i].ProbAB, allPairs[i].ProbBA)
		}
	} else {
		for i := range allPairs {
			t.setByID(allPairs[i].Pair.A, allPairs[i].Pair.B, allPairs[i].ProbAB, allPairs[i].ProbBA)
		}
	}
	res := &Result{
		Truth:     tr,
		Rounds:    rounds,
		Converged: converged,
		dir:       t,
	}
	sortDeps(allPairs)
	finishSortedPairs(res, allPairs, depThreshold)
	return res
}

// pairHypotheses returns log-likelihoods of the evidence under the three
// hypotheses. a1, a2 are accuracies of the pair's A and B members.
func pairHypotheses(kt, kf, kd float64, a1, a2, c float64, n int) (indep, aCopiesB, bCopiesA float64) {
	a1 = stats.ClampProb(a1)
	a2 = stats.ClampProb(a2)
	nf := float64(n)
	pt := a1 * a2
	pf := (1 - a1) * (1 - a2) / nf
	pd := 1 - pt - pf

	logL := func(pt, pf, pd float64) float64 {
		return kt*math.Log(stats.ClampProb(pt)) +
			kf*math.Log(stats.ClampProb(pf)) +
			kd*math.Log(stats.ClampProb(pd))
	}
	indep = logL(pt, pf, pd)
	// A copies B: the copy branch reproduces B's value, so B's accuracy
	// governs whether the shared value is true.
	aCopiesB = logL(c*a2+(1-c)*pt, c*(1-a2)+(1-c)*pf, (1-c)*pd)
	bCopiesA = logL(c*a1+(1-c)*pt, c*(1-a1)+(1-c)*pf, (1-c)*pd)
	return indep, aCopiesB, bCopiesA
}

// Detect solves a frozen snapshot dataset on its compiled columnar index. A
// flat dataset gets the full loop — bit-identical to the map-based reference
// (detectMaps, in reference_test.go), which the golden equivalence tests
// enforce.
//
// A dataset carrying an append log (dataset.Append) is solved by *replay*:
// the flat base's solve followed by one bounded refinement per appended
// batch (see Refine), each over the dataset as it stood at that epoch
// (d.At). Replay is the semantic definition of a log-carrying dataset's
// result — a session advanced live batch-by-batch and a session rebuilt
// from scratch over the same successor dataset run the identical pass
// sequence and reach bit-identical state.
func Detect(d *dataset.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !d.Frozen() {
		return nil, fmt.Errorf("depen: dataset must be frozen")
	}
	var res *Result
	for e := 0; e <= d.Epoch(); e++ {
		at, err := d.At(e) // the last is d itself
		if err != nil {
			return nil, err
		}
		res = refine(at, res, cfg)
	}
	return res, nil
}

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

// finishSortedPairs fills AllPairs and Dependences (thresholded,
// preallocated after a counting pass) from the final verdicts, which must
// already be in sortDeps order. It takes ownership of pairs: no caller reads
// the slice afterwards, and the copy this avoids was a measurable share of a
// snapshot load.
func finishSortedPairs(res *Result, pairs []Dependence, threshold float64) {
	res.AllPairs = pairs
	var n int
	for _, p := range res.AllPairs {
		if p.Prob >= threshold {
			n++
		}
	}
	if n == 0 {
		return
	}
	res.Dependences = make([]Dependence, 0, n)
	for _, p := range res.AllPairs {
		if p.Prob >= threshold {
			res.Dependences = append(res.Dependences, p)
		}
	}
}

// AccuracySplit reports source s's estimated accuracy on the objects it
// shares with other, versus on the objects it provides alone — intuition 2
// of §3.2: a significant gap marks s as a (possibly partial) copier of
// other. Probabilities come from an existing truth result.
type AccuracySplit struct {
	Source, Other   model.SourceID
	OnOverlap       float64 // accuracy on shared objects
	OffOverlap      float64 // accuracy on s's exclusive objects
	NOn, NOff       int     // sample sizes
	Gap             float64 // |OnOverlap − OffOverlap|
	LikelyDependent bool    // gap significant given the sample sizes
}

// SplitAccuracy computes the AccuracySplit of s against other.
func SplitAccuracy(d *dataset.Dataset, probs map[model.ObjectID]map[string]float64,
	s, other model.SourceID) AccuracySplit {
	var onSum, offSum float64
	var nOn, nOff int
	for _, o := range d.ObjectsOf(s) {
		v, _ := d.Value(s, o)
		p := probs[o][v]
		if _, shared := d.Value(other, o); shared {
			onSum += p
			nOn++
		} else {
			offSum += p
			nOff++
		}
	}
	sp := AccuracySplit{Source: s, Other: other, NOn: nOn, NOff: nOff}
	if nOn > 0 {
		sp.OnOverlap = onSum / float64(nOn)
	}
	if nOff > 0 {
		sp.OffOverlap = offSum / float64(nOff)
	}
	sp.Gap = math.Abs(sp.OnOverlap - sp.OffOverlap)
	// Two-proportion z-test against the pooled accuracy; significant gaps
	// with both samples populated mark likely (partial) dependence.
	if nOn > 0 && nOff > 0 {
		pooled := (onSum + offSum) / float64(nOn+nOff)
		se := math.Sqrt(pooled * (1 - pooled) * (1/float64(nOn) + 1/float64(nOff)))
		if se > 0 {
			z := sp.Gap / se
			sp.LikelyDependent = z > 1.96
		}
	}
	return sp
}
