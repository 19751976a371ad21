// Package temporal implements dependence discovery over timestamped data —
// the "Temporal Dependence" scenario of §3.2.
//
// With update traces available, three refinements over snapshot analysis
// apply (the paper's three numbered intuitions):
//
//  1. Out-of-date true values are distinguishable from false values, so
//     sharing them is weak evidence of dependence (ClassifyValue).
//  2. Sources performing the same updates in a close time frame are likely
//     dependent, especially when the same update trace is rarely observed
//     from other sources (the rarity channel of DetectPairs).
//  3. Systematic ordering — one source's updates consistently trailing the
//     other's — identifies the copier and separates a lazy copier from a
//     slow-but-independent provider (the order channel of DetectPairs).
//
// Source quality is summarized by the CEF triple: Coverage (which true
// periods the source ever captured), Exactness (whether its claims were
// true at claim time) and Freshness (how quickly it captured them: MeanLag,
// and the per-period lags a SourceReport lists).
package temporal

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
)

// ValueClass classifies a claimed value against an object's history.
type ValueClass int

const (
	// ClassCurrent: the value was true at claim time.
	ClassCurrent ValueClass = iota
	// ClassOutdated: the value was true earlier but not at claim time.
	ClassOutdated
	// ClassEarly: the value becomes true only after claim time (a scoop or
	// a lucky guess).
	ClassEarly
	// ClassFalse: the value was never true.
	ClassFalse
)

// String names the class.
func (c ValueClass) String() string {
	switch c {
	case ClassCurrent:
		return "current"
	case ClassOutdated:
		return "outdated"
	case ClassEarly:
		return "early"
	case ClassFalse:
		return "false"
	}
	return fmt.Sprintf("ValueClass(%d)", int(c))
}

// ClassifyValue labels value v claimed for object o at time t against the
// world w. Unknown objects classify as ClassFalse.
func ClassifyValue(w *model.World, o model.ObjectID, v string, t model.Time) ValueClass {
	tr, ok := w.Truths[o]
	if !ok {
		return ClassFalse
	}
	if cur, ok := tr.ValueAt(t); ok && cur == v {
		return ClassCurrent
	}
	// True at some earlier time?
	for _, p := range tr.Periods {
		if p.Start <= t && p.Value == v {
			return ClassOutdated
		}
	}
	if tr.EverTrue(v) {
		return ClassEarly
	}
	return ClassFalse
}

// Metrics is the CEF quality triple of one source against a world.
type Metrics struct {
	Source model.SourceID
	// Coverage is captured periods / total periods over the objects the
	// source claims at least once.
	Coverage float64
	// Exactness is the fraction of the source's timestamped claims whose
	// value was true at claim time.
	Exactness float64
	// MeanLag is the average delay (in time units) between a captured
	// period's start and the source's earliest capturing claim.
	MeanLag float64
	// Captured and Periods are the coverage numerator and denominator;
	// Claims the exactness denominator.
	Captured, Periods, Claims int
}

// SourceReport bundles Metrics with the per-period capture lags (the
// freshness distribution) and the classification census of the source's
// claims.
type SourceReport struct {
	Metrics Metrics
	Lags    []model.Time       // one entry per captured period, sorted
	Census  map[ValueClass]int // claim count per class
	ByClass map[ValueClass][]model.Claim
}

// ComputeMetrics evaluates every source of d against world w.
func ComputeMetrics(d *dataset.Dataset, w *model.World) map[model.SourceID]*SourceReport {
	out := make(map[model.SourceID]*SourceReport, len(d.Sources()))
	for _, s := range d.Sources() {
		out[s] = computeOne(d, w, s)
	}
	return out
}

func computeOne(d *dataset.Dataset, w *model.World, s model.SourceID) *SourceReport {
	rep := &SourceReport{
		Census:  map[ValueClass]int{},
		ByClass: map[ValueClass][]model.Claim{},
	}
	trace := d.UpdateTrace(s)
	objs := map[model.ObjectID]bool{}
	var exact int
	for _, c := range trace {
		objs[c.Object] = true
		cl := ClassifyValue(w, c.Object, c.Value, c.Time)
		rep.Census[cl]++
		rep.ByClass[cl] = append(rep.ByClass[cl], c)
		if cl == ClassCurrent {
			exact++
		}
	}
	// Coverage & lags: for each period of each claimed object, find the
	// earliest claim of the period's value at/after the period start and
	// before the period ends.
	var captured, periods int
	var lagSum float64
	for o := range objs {
		tr, ok := w.Truths[o]
		if !ok {
			continue
		}
		for i, p := range tr.Periods {
			periods++
			end := model.Time(math.MaxInt64)
			if i+1 < len(tr.Periods) {
				end = tr.Periods[i+1].Start
			}
			best := model.Time(-1)
			for _, c := range trace {
				if c.Object != o || c.Value != p.Value {
					continue
				}
				if c.Time >= p.Start && c.Time < end {
					if best < 0 || c.Time < best {
						best = c.Time
					}
				}
			}
			if best >= 0 {
				captured++
				lag := best - p.Start
				rep.Lags = append(rep.Lags, lag)
				lagSum += float64(lag)
			}
		}
	}
	sort.Slice(rep.Lags, func(i, j int) bool { return rep.Lags[i] < rep.Lags[j] })
	m := Metrics{Source: s, Captured: captured, Periods: periods, Claims: len(trace)}
	if periods > 0 {
		m.Coverage = float64(captured) / float64(periods)
	}
	if len(trace) > 0 {
		m.Exactness = float64(exact) / float64(len(trace))
	}
	if captured > 0 {
		m.MeanLag = lagSum / float64(captured)
	}
	rep.Metrics = m
	return rep
}

// Config parameterizes temporal dependence detection.
type Config struct {
	// Window is the maximum lag (time units) at which two sources' same
	// updates are considered "in a close enough time frame". Lazy copiers
	// need a generous window.
	Window model.Time
	// CopyRate is c, the per-update copy probability of a copier.
	CopyRate float64
	// Alpha is the prior probability of dependence for a random pair.
	Alpha float64
	// OrderRho is the probability that the master's update precedes the
	// copier's matched update (under dependence). 0.5 would disable the
	// order channel.
	OrderRho float64
	// TieDep and TieInd are the probabilities of a same-timestamp match
	// under dependence and independence. Independent sources cluster
	// around the real-world transition (same granularity bucket), while a
	// copier trails its master's publication, so TieDep < TieInd and ties
	// are evidence of independence.
	TieDep, TieInd float64
	// MissCopyRate is the per-update probability that a copier replicates
	// a given master update; deliberately small (copiers may be partial
	// and lazy), it makes wholesale non-overlap mild evidence of
	// independence without killing partial copiers.
	MissCopyRate float64
	// MinSharedUpdates is the minimum number of matched updates for a pair
	// to be analyzed.
	MinSharedUpdates int
	// DepThreshold is the posterior above which a pair is reported.
	DepThreshold float64
}

// DefaultConfig returns the parameters used by the experiments.
func DefaultConfig() Config {
	return Config{
		Window:           5,
		CopyRate:         0.8,
		Alpha:            0.2,
		OrderRho:         0.9,
		TieDep:           0.3,
		TieInd:           0.7,
		MissCopyRate:     0.3,
		MinSharedUpdates: 2,
		DepThreshold:     0.7,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Window < 0 {
		return errors.New("temporal: Window must be >= 0")
	}
	if c.CopyRate <= 0 || c.CopyRate >= 1 {
		return errors.New("temporal: CopyRate must be in (0,1)")
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return errors.New("temporal: Alpha must be in (0,1)")
	}
	if c.OrderRho < 0.5 || c.OrderRho >= 1 {
		return errors.New("temporal: OrderRho must be in [0.5,1)")
	}
	if c.TieDep <= 0 || c.TieDep >= 1 || c.TieInd <= 0 || c.TieInd >= 1 {
		return errors.New("temporal: TieDep and TieInd must be in (0,1)")
	}
	if c.MissCopyRate <= 0 || c.MissCopyRate >= 1 {
		return errors.New("temporal: MissCopyRate must be in (0,1)")
	}
	if c.MinSharedUpdates < 1 {
		return errors.New("temporal: MinSharedUpdates must be >= 1")
	}
	if c.DepThreshold < 0 || c.DepThreshold > 1 {
		return errors.New("temporal: DepThreshold must be in [0,1]")
	}
	return nil
}

// Dependence is the temporal verdict on one pair.
type Dependence struct {
	Pair model.SourcePair
	// Prob = ProbAB + ProbBA; ProbAB is the posterior that A copies B.
	Prob, ProbAB, ProbBA float64
	// Shared is the number of matched updates (same object, same value,
	// within Window).
	Shared int
	// AFirst and BFirst are the rarity-weighted counts of matched updates
	// where A's (resp. B's) claim is strictly earlier.
	AFirst, BFirst float64
	// Rarity is the summed rarity weight of matched updates (the "same
	// rare update trace" evidence).
	Rarity float64
}

// Copier returns the more likely copier and the posterior margin.
func (dep Dependence) Copier() (model.SourceID, float64) {
	if dep.ProbAB >= dep.ProbBA {
		return dep.Pair.A, dep.ProbAB - dep.ProbBA
	}
	return dep.Pair.B, dep.ProbBA - dep.ProbAB
}

// Result is the outcome of temporal detection.
type Result struct {
	// Dependences holds pairs at/above DepThreshold, sorted by decreasing
	// posterior; AllPairs every analyzed pair.
	Dependences []Dependence
	AllPairs    []Dependence
}

// DependenceProb returns the posterior that a and b are dependent; 0 for
// unanalyzed pairs.
func (r *Result) DependenceProb(a, b model.SourceID) float64 {
	p := model.NewSourcePair(a, b)
	for _, dep := range r.AllPairs {
		if dep.Pair == p {
			return dep.Prob
		}
	}
	return 0
}

// DetectPairs runs Bayesian update-trace dependence detection on every
// source pair of a frozen temporal dataset. It executes on the dataset's
// compiled columnar index; the result is bit-identical to the map-based
// reference (detectPairsMaps, in reference_test.go), which the golden
// equivalence tests enforce.
func DetectPairs(d *dataset.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !d.Frozen() {
		return nil, fmt.Errorf("temporal: dataset must be frozen")
	}
	return detectPairsCompiled(d.Compiled(), cfg), nil
}

func abs64(t model.Time) model.Time {
	if t < 0 {
		return -t
	}
	return t
}

// EstimateWorld reconstructs a temporal ground-truth estimate from the
// dataset alone: for each object and each claim time, sources vote with
// their current (latest at-or-before) values, weighted by an exactness
// estimate obtained from one bootstrap round of unweighted voting. The
// result feeds ComputeMetrics when no ground truth is available.
func EstimateWorld(d *dataset.Dataset, rounds int) *model.World {
	if rounds < 1 {
		rounds = 1
	}
	weights := map[model.SourceID]float64{}
	for _, s := range d.Sources() {
		weights[s] = 1
	}
	var est *model.World
	for r := 0; r < rounds; r++ {
		est = estimateOnce(d, weights)
		reports := ComputeMetrics(d, est)
		for s, rep := range reports {
			// Exactness-weighted voting in the next round, floored so no
			// source is silenced entirely.
			weights[s] = 0.1 + rep.Metrics.Exactness
		}
	}
	return est
}

func estimateOnce(d *dataset.Dataset, weights map[model.SourceID]float64) *model.World {
	w := model.NewWorld()
	for _, o := range d.Objects() {
		// All claim times for o, ascending.
		timeSet := map[model.Time]bool{}
		for _, c := range d.ClaimsByObject(o) {
			if c.HasTime {
				timeSet[c.Time] = true
			}
		}
		if len(timeSet) == 0 {
			continue
		}
		times := make([]model.Time, 0, len(timeSet))
		for t := range timeSet {
			times = append(times, t)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		tr := model.Truth{Object: o}
		for _, t := range times {
			votes := map[string]float64{}
			for _, s := range d.Sources() {
				v, ok := currentValueAt(d, s, o, t)
				if !ok {
					continue
				}
				votes[v] += weights[s]
			}
			best, bestW := "", -1.0
			vals := make([]string, 0, len(votes))
			for v := range votes {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			for _, v := range vals {
				if votes[v] > bestW {
					best, bestW = v, votes[v]
				}
			}
			if best != "" {
				tr.Periods = append(tr.Periods, model.TruthPeriod{Start: t, Value: best})
			}
		}
		tr.Normalize()
		w.Set(tr)
	}
	return w
}

// currentValueAt returns s's latest value for o at or before t.
func currentValueAt(d *dataset.Dataset, s model.SourceID, o model.ObjectID, t model.Time) (string, bool) {
	var best model.Claim
	found := false
	for _, c := range d.UpdateTrace(s) {
		if c.Object != o || c.Time > t {
			continue
		}
		if !found || c.Time >= best.Time {
			best = c
			found = true
		}
	}
	return best.Value, found
}
