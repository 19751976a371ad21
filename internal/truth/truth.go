// Package truth implements truth discovery from conflicting claims.
//
// The paper's §2.2 shows why naive voting fails under copying; its §3.2
// sketches the Bayesian iterative fix. This package provides the two
// dependence-oblivious baselines — naive voting (Vote) and accuracy-weighted
// iterative voting (Accu, the ACCU algorithm of the companion VLDB 2009
// paper) — together with the composable pieces (vote weights, softmax over
// candidates, accuracy re-estimation) that the dependence-aware solver in
// package depen reuses inside its outer loop.
//
// Probability model. For an object o with observed candidate values
// v1..vm, each source S asserting v contributes a vote weight
// A'(S) = ln(n·A(S) / (1 − A(S))), where A(S) is S's accuracy and n the
// number of plausible false values per object. The probability of v is the
// softmax of summed weights over the candidates. Accuracy is re-estimated
// as the smoothed mean probability of the source's asserted values, and the
// loop runs to a fixpoint.
package truth

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/stats"
)

// Result is the outcome of a truth-discovery run.
type Result struct {
	// Probs[o][v] is the posterior probability that v is the true value of
	// o. For each object the probabilities over observed candidates sum
	// to 1.
	Probs map[model.ObjectID]map[string]float64
	// Chosen[o] is the maximum-probability value (ties broken by smaller
	// value string, so runs are deterministic).
	Chosen map[model.ObjectID]string
	// Accuracy[s] is the final estimated accuracy of each source. Naive
	// voting leaves it nil.
	Accuracy map[model.SourceID]float64
	// Rounds is the number of iterations executed (0 for naive voting).
	Rounds int
	// Converged reports whether the accuracy fixpoint was reached before
	// the round limit.
	Converged bool
}

// PickChosen fills Chosen from Probs deterministically: the
// maximum-probability value per object, ties broken by smaller value
// string. Exported so solvers that assemble a Result from their own
// probability tables (the dependence-aware detector, the compiled dense
// path) share the one canonical tie-break.
func (r *Result) PickChosen() {
	r.Chosen = make(map[model.ObjectID]string, len(r.Probs))
	for o, pv := range r.Probs {
		vals := make([]string, 0, len(pv))
		for v := range pv {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		best, bestP := "", math.Inf(-1)
		for _, v := range vals {
			if pv[v] > bestP {
				best, bestP = v, pv[v]
			}
		}
		r.Chosen[o] = best
	}
}

// Vote is naive majority voting: every source counts once, the probability
// of a value is its share of the votes. This is the strawman Examples 2.1
// and 2.2 knock down.
func Vote(d *dataset.Dataset) *Result {
	res := &Result{Probs: map[model.ObjectID]map[string]float64{}}
	for _, o := range d.Objects() {
		groups := d.ValuesFor(o)
		var total int
		for _, g := range groups {
			total += len(g.Sources)
		}
		pv := make(map[string]float64, len(groups))
		for _, g := range groups {
			pv[g.Value] = float64(len(g.Sources)) / float64(total)
		}
		res.Probs[o] = pv
	}
	res.PickChosen()
	return res
}

// Config holds the iterative solver's parameters. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// N is the assumed number of plausible false values per object (the
	// paper's uniform-false-value model). Larger N makes shared values
	// stronger evidence.
	N int
	// InitialAccuracy seeds every source's accuracy.
	InitialAccuracy float64
	// MaxRounds caps the fixpoint iteration.
	MaxRounds int
	// Tol is the convergence threshold on the max accuracy change.
	Tol float64
	// PriorA, PriorB are the Beta prior pseudocounts smoothing accuracy
	// estimates (Laplace: 1,1).
	PriorA, PriorB float64
	// ValueSim, when non-nil, enables the similarity extension: a value
	// receives ValueSimWeight times the similarity-weighted scores of the
	// other candidates (captures "UW" vs "Univ. of Washington" support
	// leakage). Similarity must be in [0, 1]. depen's truth step calls
	// the function concurrently from GOMAXPROCS workers, so any internal
	// state (e.g. a memoization cache) must be synchronized.
	ValueSim func(a, b string) float64
	// ValueSimWeight scales the similarity contribution (0 disables).
	ValueSimWeight float64
	// Known pins the true value of selected objects (semi-supervised
	// mode): their posterior is fixed at KnownConfidence for the labeled
	// value. Example 3.1's analysis is conditioned on exactly this kind of
	// side information ("If we knew which values are true ...").
	Known map[model.ObjectID]string
	// KnownConfidence is the pinned probability for labeled values
	// (default 0.99 when Known is non-empty and this is zero).
	KnownConfidence float64
}

// knownConfidence returns the effective pin probability.
func (c Config) knownConfidence() float64 {
	if c.KnownConfidence == 0 {
		return 0.99
	}
	return c.KnownConfidence
}

// DefaultConfig returns the parameters used across the experiments:
// N=100 false values, accuracy seed 0.8, 20 rounds, 1e-4 tolerance,
// Laplace smoothing.
func DefaultConfig() Config {
	return Config{
		N:               100,
		InitialAccuracy: 0.8,
		MaxRounds:       20,
		Tol:             1e-4,
		PriorA:          1,
		PriorB:          1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N < 1 {
		return errors.New("truth: N must be >= 1")
	}
	if c.InitialAccuracy <= 0 || c.InitialAccuracy >= 1 {
		return errors.New("truth: InitialAccuracy must be in (0,1)")
	}
	if c.MaxRounds < 1 {
		return errors.New("truth: MaxRounds must be >= 1")
	}
	if c.Tol <= 0 {
		return errors.New("truth: Tol must be > 0")
	}
	if c.PriorA < 0 || c.PriorB < 0 {
		return errors.New("truth: Beta prior pseudocounts must be >= 0")
	}
	if c.ValueSimWeight < 0 {
		return errors.New("truth: ValueSimWeight must be >= 0")
	}
	if c.KnownConfidence < 0 || c.KnownConfidence >= 1 {
		return errors.New("truth: KnownConfidence must be in [0,1)")
	}
	return nil
}

// WeightOf maps an accuracy into a vote weight: ln(n·A/(1−A)). Accuracy is
// clamped into (0,1) so the weight stays finite.
func WeightOf(accuracy float64, n int) float64 {
	a := stats.ClampProb(accuracy)
	return math.Log(float64(n) * a / (1 - a))
}

// Accu runs accuracy-weighted iterative truth discovery (no dependence
// modelling). It executes on the dataset's compiled columnar index; the
// result is bit-identical to the map-based reference (accuMaps, in
// reference_test.go), which the golden equivalence tests enforce.
func Accu(d *dataset.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !d.Frozen() {
		return nil, fmt.Errorf("truth: dataset must be frozen")
	}
	return accuCompiled(d.Compiled(), cfg), nil
}
