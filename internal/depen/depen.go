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
// That loop exists once, in refine.go, and runs from dense state to dense
// state. Solve on a flat dataset runs it from the empty predecessor to the
// fixpoint; given a predecessor's state it runs it over what an appended batch
// dirtied, for a bounded number of rounds; on a dataset with an append log
// and no predecessor it does the first followed by one of the second per
// batch. The State it reaches is the one dependence object: the planner,
// fusion and source recommendation read its vectors and pair records. Detect
// and Refine are Solve plus a Result, a by-name view of that state for
// library callers.
package depen

import (
	"cmp"
	"errors"
	"math"
	"slices"

	"sourcecurrents/internal/dataset"
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

// Result is the outcome of the full detection loop, by name: the view of a
// State (see refine.go) that readers of maps and sorted slices want.
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

	// st is the state this view was built from.
	st *State
}

// State returns the dense state the view was built from; nil for a nil
// Result.
func (r *Result) State() *State {
	if r == nil {
		return nil
	}
	return r.st
}

// DependenceProb returns the posterior that a and b are dependent (either
// direction); 0 for unanalyzed pairs.
func (r *Result) DependenceProb(a, b model.SourceID) float64 {
	ab, ba := r.st.CopyProbs(a, b)
	return ab + ba
}

// Result materialises the view of st: the posterior and accuracy maps with
// the chosen values, every pair by name in AllPairs order and the thresholded
// Dependences. cfg must be the configuration st was solved under.
func (st *State) Result(cfg Config) *Result {
	c := st.c
	solver := truth.NewDenseSolver(c, cfg.Truth)
	tr := &truth.Result{
		Probs:     solver.ProbsMap(st.probs),
		Accuracy:  solver.AccuracyMap(st.acc),
		Rounds:    st.rounds,
		Converged: st.converged,
	}
	tr.PickChosen()
	res := &Result{
		Truth:     tr,
		Rounds:    st.rounds,
		Converged: st.converged,
		st:        st,
	}
	// AllPairs' order is confidence first, then the pair's names. Source
	// index order is name order and st.pairs is in (a, b) order, so a
	// record's position breaks the ties: sort (prob, position) keys, then
	// build each named pair in its place.
	order := make([]probKey, len(st.pairs))
	for i := range st.pairs {
		p := &st.pairs[i]
		order[i] = probKey{prob: p.probAB + p.probBA, at: int32(i)}
	}
	slices.SortFunc(order, func(x, y probKey) int {
		if byProb := cmp.Compare(y.prob, x.prob); byProb != 0 {
			return byProb
		}
		return cmp.Compare(x.at, y.at)
	})
	all := make([]Dependence, len(st.pairs))
	for k, o := range order {
		p := &st.pairs[o.at]
		all[k] = Dependence{
			Pair:   model.SourcePair{A: c.Source(int(p.a)), B: c.Source(int(p.b))},
			Prob:   o.prob,
			ProbAB: p.probAB,
			ProbBA: p.probBA,
			Shared: int(p.shared),
			Same:   int(p.same),
			KT:     p.kt, KF: p.kf, KD: p.kd,
		}
	}
	finishSortedPairs(res, all, cfg.DepThreshold)
	return res
}

// probKey is a pair record's total posterior and its position in the
// state's (a, b) order, the key State.Result sorts the records by.
type probKey struct {
	prob float64
	at   int32
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
	st, err := Solve(d, nil, cfg)
	if err != nil {
		return nil, err
	}
	return st.Result(cfg), nil
}

// finishSortedPairs fills AllPairs and Dependences (thresholded,
// preallocated after a counting pass) from the final verdicts, which must
// already be in AllPairs order. It takes ownership of pairs: no caller reads
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
