// Dense (compiled-index) execution of the truth-discovery hot paths.
//
// The map-based helpers in truth.go remain the semantic reference; this
// file re-expresses the per-round loops over dataset.Compiled's interned
// int32 indexes and flat float64 vectors. Every loop preserves the
// reference path's canonical iteration order — groups in sorted-value
// order, sources ascending, objects ascending — so each floating-point sum
// is performed in the exact same sequence and results are bit-identical
// (the golden equivalence tests assert reflect.DeepEqual).
package truth

import (
	"slices"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/stats"
)

// DenseSolver bundles a compiled dataset view with a solver configuration
// and provides the dense building blocks (vote-weight table, per-object
// scoring, similarity leakage, softmax, accuracy re-estimation, Known
// overrides) that Accu and the dependence-aware detector compose. It is
// read-only after construction and safe for concurrent workers.
type DenseSolver struct {
	c   *dataset.Compiled
	cfg Config
	// known[oi] is non-nil when object oi is pinned by cfg.Known: the
	// precomputed posterior row (plus the labeled value itself when it is
	// not among the observed candidates). The override depends only on the
	// candidate set and the pin confidence, so it is a constant.
	known []*knownOverride
}

type knownOverride struct {
	row      []float64
	hasExtra bool    // the labeled value is not an observed candidate
	extraVal string  // the labeled value
	extraP   float64 // its pinned probability
	extraPos int     // its sorted position among the observed candidates
}

// DenseScratch is the per-worker buffer set for dense object scoring.
type DenseScratch struct {
	scores []float64
	adj    []float64
}

// Scores returns the scratch score buffer truncated to n candidates.
func (sc *DenseScratch) Scores(n int) []float64 { return sc.scores[:n] }

// NewDenseSolver compiles the configuration against c.
func NewDenseSolver(c *dataset.Compiled, cfg Config) *DenseSolver {
	s := &DenseSolver{c: c, cfg: cfg}
	s.buildKnown()
	return s
}

// Compiled returns the underlying compiled view.
func (s *DenseSolver) Compiled() *dataset.Compiled { return s.c }

// NewScratch allocates one worker's scratch buffers.
func (s *DenseSolver) NewScratch() *DenseScratch {
	n := s.c.MaxGroupsPerObject()
	return &DenseScratch{scores: make([]float64, n), adj: make([]float64, n)}
}

func (s *DenseSolver) buildKnown() {
	if len(s.cfg.Known) == 0 {
		return
	}
	c := s.c
	s.known = make([]*knownOverride, c.NumObjects())
	conf := s.cfg.knownConfidence()
	for o, want := range s.cfg.Known {
		oi, ok := c.ObjectIndex(o)
		if !ok {
			continue // label for an object the dataset never mentions
		}
		gs, ge := c.GroupStart[oi], c.GroupStart[oi+1]
		n := int(ge - gs)
		wantPos := -1
		if vi, ok := c.ValueIndex(want); ok {
			for k := 0; k < n; k++ {
				if c.GroupValue[gs+int32(k)] == vi {
					wantPos = k
					break
				}
			}
		}
		rest := n
		if wantPos >= 0 {
			rest--
		}
		row := make([]float64, n)
		if rest > 0 {
			fill := (1 - conf) / float64(rest)
			for k := range row {
				row[k] = fill
			}
		}
		ov := &knownOverride{row: row}
		if wantPos >= 0 {
			row[wantPos] = conf
		} else {
			ov.hasExtra = true
			ov.extraVal = want
			ov.extraP = conf
			for k := 0; k < n; k++ {
				if c.Value(int(c.GroupValue[gs+int32(k)])) < want {
					ov.extraPos = k + 1
				}
			}
		}
		s.known[oi] = ov
	}
}

// KnownRow returns the pinned posterior row for object oi, or nil when the
// object is unlabeled.
func (s *DenseSolver) KnownRow(oi int) []float64 {
	if s.known == nil {
		return nil
	}
	if ov := s.known[oi]; ov != nil {
		return ov.row
	}
	return nil
}

// Row returns object oi's slice of the flat probability vector.
func (s *DenseSolver) Row(probs []float64, oi int) []float64 {
	return probs[s.c.GroupStart[oi]:s.c.GroupStart[oi+1]]
}

// FillWeights recomputes the per-source vote weights for the current
// accuracies — once per round instead of once per (source, value) vote.
func (s *DenseSolver) FillWeights(acc, weights []float64) {
	for i, a := range acc {
		weights[i] = WeightOf(a, s.cfg.N)
	}
}

// ScoreObject sums the (undiscounted) vote weights per candidate of object
// oi into the scratch score buffer and returns it.
func (s *DenseSolver) ScoreObject(oi int, weights []float64, sc *DenseScratch) []float64 {
	c := s.c
	gs, ge := c.GroupStart[oi], c.GroupStart[oi+1]
	scores := sc.scores[:ge-gs]
	for k := range scores {
		g := gs + int32(k)
		var cum float64
		for _, si := range c.GroupSrc[c.GroupSrcStart[g]:c.GroupSrcStart[g+1]] {
			cum += weights[si]
		}
		scores[k] = cum
	}
	return scores
}

// FinishObject applies the similarity extension to the candidate scores and
// softmaxes them into row (object oi's posterior). It mirrors the map
// oracle's ApplySimilarity + SoftmaxScores (reference_test.go) over the
// value-sorted group order.
func (s *DenseSolver) FinishObject(oi int, scores, row []float64, sc *DenseScratch) {
	c := s.c
	src := scores
	if sim := s.cfg.ValueSim; sim != nil && s.cfg.ValueSimWeight != 0 && len(scores) >= 2 {
		gs := c.GroupStart[oi]
		adj := sc.adj[:len(scores)]
		for k := range scores {
			a := scores[k]
			vk := c.Value(int(c.GroupValue[gs+int32(k)]))
			for u := range scores {
				if u == k {
					continue
				}
				sv := sim(vk, c.Value(int(c.GroupValue[gs+int32(u)])))
				if sv < 0 {
					sv = 0
				} else if sv > 1 {
					sv = 1
				}
				a += s.cfg.ValueSimWeight * sv * scores[u]
			}
			adj[k] = a
		}
		src = adj
	}
	// Candidate sets are never empty, so the only NormalizeLogInto error
	// (ErrEmpty) cannot occur.
	_ = stats.NormalizeLogInto(row, src)
}

// ClassMass is the map oracle's ClassMass (reference_test.go) over the
// dense representation: the posterior mass of global group g's similarity
// class on its object, walking the object's candidates (and any Known extra
// value) in sorted-value order. Without a ValueSim it is probs[g], and the
// object is never looked up.
func (s *DenseSolver) ClassMass(probs []float64, g int32) float64 {
	sim := s.cfg.ValueSim
	if sim == nil {
		return probs[g]
	}
	// g's object is the last whose groups start at or before it.
	oi, _ := slices.BinarySearch(s.c.GroupStart, g+1)
	oi--
	v := s.c.Value(int(s.c.GroupValue[g]))
	var mass float64
	s.EachValue(probs, oi, func(u string, p float64) {
		if u == v { // the group itself: an object's values are distinct
			mass += p
			return
		}
		sv := sim(v, u)
		if sv < 0 {
			sv = 0
		} else if sv > 1 {
			sv = 1
		}
		mass += p * sv
	})
	if mass > 1 {
		mass = 1
	}
	return mass
}

// UpdateAccuracy re-estimates every source's accuracy from the flat
// posterior vector into next, mirroring the map oracle's UpdateAccuracySim
// (reference_test.go) in its per-source object order (ascending). Without a
// ValueSim a group's class mass is its own posterior, read directly.
func (s *DenseSolver) UpdateAccuracy(probs, next []float64) {
	c := s.c
	for si := 0; si < c.NumSources(); si++ {
		start, end := c.SrcStart[si], c.SrcStart[si+1]
		var sum float64
		if s.cfg.ValueSim == nil {
			for _, g := range c.SrcGroup[start:end] {
				sum += probs[g]
			}
		} else {
			for _, g := range c.SrcGroup[start:end] {
				sum += s.ClassMass(probs, g)
			}
		}
		cnt := float64(end - start)
		next[si] = stats.ClampProb((sum + s.cfg.PriorA) / (cnt + s.cfg.PriorA + s.cfg.PriorB))
	}
}

// EachValue calls yield with object oi's values in sorted order and their
// posteriors in the flat vector probs: the observed candidates' groups, with
// a Known label no source asserts merged in at its sorted position — the
// pinned posterior's key set, and the one place that label is added.
func (s *DenseSolver) EachValue(probs []float64, oi int, yield func(v string, p float64)) {
	c := s.c
	gs, ge := c.GroupStart[oi], c.GroupStart[oi+1]
	var extra *knownOverride
	if s.known != nil && s.known[oi] != nil && s.known[oi].hasExtra {
		extra = s.known[oi]
	}
	for k := gs; k < ge; k++ {
		if extra != nil && extra.extraPos == int(k-gs) {
			yield(extra.extraVal, extra.extraP)
		}
		yield(c.Value(int(c.GroupValue[k])), probs[k])
	}
	if extra != nil && extra.extraPos == int(ge-gs) {
		yield(extra.extraVal, extra.extraP)
	}
}

// ProbsMap converts the flat posterior vector back to the public map shape,
// including any Known-pinned values that are not observed candidates.
func (s *DenseSolver) ProbsMap(probs []float64) map[model.ObjectID]map[string]float64 {
	c := s.c
	out := make(map[model.ObjectID]map[string]float64, c.NumObjects())
	for oi := 0; oi < c.NumObjects(); oi++ {
		pv := make(map[string]float64, int(c.GroupStart[oi+1]-c.GroupStart[oi])+1)
		s.EachValue(probs, oi, func(v string, p float64) { pv[v] = p })
		out[c.Object(oi)] = pv
	}
	return out
}

// AccuracyMap converts the dense accuracy vector to the public map shape.
func (s *DenseSolver) AccuracyMap(acc []float64) map[model.SourceID]float64 {
	out := make(map[model.SourceID]float64, len(acc))
	for i, a := range acc {
		out[s.c.Source(i)] = a
	}
	return out
}

// MaxAccuracyDeltaVec returns the largest absolute per-source change between
// two dense accuracy vectors; the fixpoint test.
func MaxAccuracyDeltaVec(a, b []float64) float64 {
	var max float64
	for i, av := range a {
		d := av - b[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// accuCompiled is Accu over the compiled index.
func accuCompiled(c *dataset.Compiled, cfg Config) *Result {
	solver := NewDenseSolver(c, cfg)
	nS := c.NumSources()
	acc := make([]float64, nS)
	for i := range acc {
		acc[i] = cfg.InitialAccuracy
	}
	weights := make([]float64, nS)
	next := make([]float64, nS)
	probs := make([]float64, len(c.GroupValue))
	sc := solver.NewScratch()
	res := &Result{}
	for round := 1; round <= cfg.MaxRounds; round++ {
		solver.FillWeights(acc, weights)
		for oi := 0; oi < c.NumObjects(); oi++ {
			row := solver.Row(probs, oi)
			if kr := solver.KnownRow(oi); kr != nil {
				copy(row, kr)
				continue
			}
			scores := solver.ScoreObject(oi, weights, sc)
			solver.FinishObject(oi, scores, row, sc)
		}
		solver.UpdateAccuracy(probs, next)
		res.Rounds = round
		if MaxAccuracyDeltaVec(acc, next) < cfg.Tol {
			copy(acc, next)
			res.Converged = true
			break
		}
		copy(acc, next)
	}
	res.Probs = solver.ProbsMap(probs)
	res.Accuracy = solver.AccuracyMap(acc)
	res.PickChosen()
	return res
}
