// Package dissim implements dissimilarity-dependence discovery on opinion
// data — the second kind of dependence §2.2 defines, where a source chooses
// to provide values that conflict with another source's (Example 2.2's
// reviewer R4, who always opposes R1).
//
// Opinion data has no underlying true value, so the shared-false-value
// machinery of package depen does not apply. Instead the detector compares
// each pair's observed agreement with the agreement expected under
// independence *conditioned on each item's consensus distribution*: two
// science-fiction fans both loving every Star Wars movie agree exactly as
// often as the consensus predicts, while a copier agrees far more and a
// contrarian far less. Conditioning on consensus is the answer to the
// "correlated information" challenge of §3.1.
//
// Verdicts:
//   - observed agreement significantly ABOVE expectation: similarity-
//     dependence (rating plagiarism / herding);
//   - significantly BELOW expectation, with high opposition rate:
//     dissimilarity-dependence;
//   - otherwise: independent.
//
// Aggregation (Consensus) then excludes or reweights dependent raters so
// that the published consensus is unbiased, as §4's recommendation-systems
// discussion requires.
package dissim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/stats"
)

// Scale maps ordinal rating labels to integer levels, e.g.
// {"Bad": 0, "Neutral": 1, "Good": 2}. Opposition is measured on this
// scale: two ratings oppose when they sit on opposite sides of the
// midpoint.
type Scale struct {
	Levels map[string]int
	Max    int
}

// NewScale builds a scale from ordered labels (worst first).
func NewScale(labels ...string) Scale {
	s := Scale{Levels: map[string]int{}}
	for i, l := range labels {
		s.Levels[l] = i
	}
	s.Max = len(labels) - 1
	return s
}

// GoodNeutralBad is the scale of Table 2.
func GoodNeutralBad() Scale { return NewScale("Bad", "Neutral", "Good") }

// Level returns the numeric level of a label.
func (s Scale) Level(label string) (int, bool) {
	l, ok := s.Levels[label]
	return l, ok
}

// Opposed reports whether two labels sit strictly on opposite sides of the
// scale midpoint.
func (s Scale) Opposed(a, b string) bool {
	la, oka := s.Levels[a]
	lb, okb := s.Levels[b]
	if !oka || !okb {
		return false
	}
	mid := float64(s.Max) / 2
	return (float64(la)-mid)*(float64(lb)-mid) < 0
}

// Config parameterizes detection.
type Config struct {
	// Scale is the rating scale.
	Scale Scale
	// MinOverlap is the minimum number of co-rated items for a pair to be
	// analyzed.
	MinOverlap int
	// ZThreshold is the |z| above which deviation from expected agreement
	// is significant.
	ZThreshold float64
	// Smoothing is the pseudocount used when estimating each rater's
	// conformity (its probability of matching an item's consensus mode).
	Smoothing float64
}

// DefaultConfig returns the detector parameters used by the experiments.
func DefaultConfig() Config {
	return Config{
		Scale:      GoodNeutralBad(),
		MinOverlap: 3,
		ZThreshold: 1.64, // one-sided 5%
		Smoothing:  1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.Scale.Levels) < 2 {
		return errors.New("dissim: scale needs at least 2 levels")
	}
	if c.MinOverlap < 1 {
		return errors.New("dissim: MinOverlap must be >= 1")
	}
	if c.ZThreshold <= 0 {
		return errors.New("dissim: ZThreshold must be > 0")
	}
	if c.Smoothing <= 0 {
		return errors.New("dissim: Smoothing must be > 0")
	}
	return nil
}

// Kind is the pairwise verdict.
type Kind int

const (
	// Independent: agreement consistent with consensus-conditioned chance.
	Independent Kind = iota
	// Similarity: agreement significantly above expectation.
	Similarity
	// Dissimilarity: agreement significantly below expectation with
	// systematic opposition.
	Dissimilarity
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Independent:
		return "independent"
	case Similarity:
		return "similarity-dependent"
	case Dissimilarity:
		return "dissimilarity-dependent"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Dependence is the verdict on one rater pair. Two standardized statistics
// decide the kind: Z (agreement above its conformity-conditioned null marks
// similarity-dependence) and ZOpp (opposition above its null marks
// dissimilarity-dependence).
type Dependence struct {
	Pair model.SourcePair
	Kind Kind
	// Overlap is the number of co-rated items; Agreed how many ratings
	// matched exactly; Opposed how many sat on opposite polarity sides.
	Overlap, Agreed, Opposed int
	// ExpectedAgree and SD describe the null distribution of Agreed under
	// independence given the raters' conformities.
	ExpectedAgree, SD float64
	// Z is the standardized deviation of Agreed from ExpectedAgree.
	Z float64
	// ExpectedOpposed, SDOpp and ZOpp are the analogous statistics for the
	// count of polarity-opposed rating pairs.
	ExpectedOpposed, SDOpp, ZOpp float64
}

// Result is the detection outcome.
type Result struct {
	// Pairs holds every analyzed pair, sorted by |Z| descending.
	Pairs []Dependence
}

// Verdict returns the verdict for a pair; Independent (zero value) for
// unanalyzed pairs.
func (r *Result) Verdict(a, b model.SourceID) Dependence {
	p := model.NewSourcePair(a, b)
	for _, dep := range r.Pairs {
		if dep.Pair == p {
			return dep
		}
	}
	return Dependence{Pair: p, Kind: Independent}
}

// Dependent returns analyzed pairs with non-independent verdicts.
func (r *Result) Dependent() []Dependence {
	var out []Dependence
	for _, dep := range r.Pairs {
		if dep.Kind != Independent {
			out = append(out, dep)
		}
	}
	return out
}

// Detect analyzes every rater pair of a frozen snapshot dataset of ratings.
func Detect(d *dataset.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !d.Frozen() {
		return nil, fmt.Errorf("dissim: dataset must be frozen")
	}
	sources := d.Sources()
	modes := consensusModes(d, cfg)
	conf := conformities(d, modes, cfg)
	res := &Result{}
	for i := 0; i < len(sources); i++ {
		for j := i + 1; j < len(sources); j++ {
			dep, ok := analyzePair(d, sources[i], sources[j], modes, conf, cfg)
			if ok {
				res.Pairs = append(res.Pairs, dep)
			}
		}
	}
	sort.Slice(res.Pairs, func(a, b int) bool {
		za, zb := math.Abs(res.Pairs[a].Z), math.Abs(res.Pairs[b].Z)
		if za != zb {
			return za > zb
		}
		return res.Pairs[a].Pair.String() < res.Pairs[b].Pair.String()
	})
	return res, nil
}

// consensusModes returns each item's consensus mode: the most frequent
// rating label (ties broken by lexicographically smaller label, so runs are
// deterministic).
func consensusModes(d *dataset.Dataset, cfg Config) map[model.ObjectID]string {
	out := make(map[model.ObjectID]string, len(d.Objects()))
	for _, o := range d.Objects() {
		counts := map[string]int{}
		for _, c := range d.ClaimsByObject(o) {
			if _, ok := cfg.Scale.Levels[c.Value]; ok {
				counts[c.Value]++
			}
		}
		labels := make([]string, 0, len(counts))
		for l := range counts {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		best, bestN := "", -1
		for _, l := range labels {
			if counts[l] > bestN {
				best, bestN = l, counts[l]
			}
		}
		if best != "" {
			out[o] = best
		}
	}
	return out
}

// conformities estimates, per rater, the smoothed probability of matching
// an item's consensus mode. This is the rater-level analogue of source
// accuracy: it lets the null model explain away agreement between two
// raters who are both merely aligned with popular opinion (the
// correlated-information challenge), while a copier of a NOISY rater and a
// systematic contrarian both deviate from their conformity-predicted
// agreement.
func conformities(d *dataset.Dataset, modes map[model.ObjectID]string, cfg Config) map[model.SourceID]float64 {
	out := make(map[model.SourceID]float64, len(d.Sources()))
	for _, s := range d.Sources() {
		var match, total int
		for _, o := range d.ObjectsOf(s) {
			mode, ok := modes[o]
			if !ok {
				continue
			}
			v, _ := d.Value(s, o)
			if _, onScale := cfg.Scale.Levels[v]; !onScale {
				continue
			}
			total++
			if v == mode {
				match++
			}
		}
		out[s] = stats.ClampProb((float64(match) + cfg.Smoothing) /
			(float64(total) + 2*cfg.Smoothing))
	}
	return out
}

// pairAgreeProb returns the null probability that raters with conformities
// ga, gb agree on an item: each rates the mode with its conformity and
// spreads the remainder uniformly over the other K-1 labels.
func pairAgreeProb(ga, gb float64, k int) float64 {
	if k < 2 {
		return 1
	}
	rest := float64(k - 1)
	return ga*gb + rest*((1-ga)/rest)*((1-gb)/rest)
}

// pairOpposeProb returns the null probability that raters with conformities
// ga, gb give polarity-opposed ratings on an item whose consensus mode is
// the given label, under the same conformity spread model.
func pairOpposeProb(ga, gb float64, mode string, s Scale) float64 {
	k := len(s.Levels)
	if k < 2 {
		return 0
	}
	rest := float64(k - 1)
	prob := func(g float64, label string) float64 {
		if label == mode {
			return g
		}
		return (1 - g) / rest
	}
	labels := make([]string, 0, k)
	for l := range s.Levels {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var p float64
	for _, la := range labels {
		for _, lb := range labels {
			if s.Opposed(la, lb) {
				p += prob(ga, la) * prob(gb, lb)
			}
		}
	}
	return p
}

func analyzePair(d *dataset.Dataset, a, b model.SourceID, modes map[model.ObjectID]string,
	conf map[model.SourceID]float64, cfg Config) (Dependence, bool) {
	pair := model.NewSourcePair(a, b)
	ov := d.OverlapOf(a, b)
	if len(ov.Objects) < cfg.MinOverlap {
		return Dependence{}, false
	}
	dep := Dependence{Pair: pair, Overlap: len(ov.Objects)}
	k := len(cfg.Scale.Levels)
	var expAgree, varAgree, expOpp, varOpp float64
	for _, o := range ov.Objects {
		va, _ := d.Value(a, o)
		vb, _ := d.Value(b, o)
		if va == vb {
			dep.Agreed++
		}
		if cfg.Scale.Opposed(va, vb) {
			dep.Opposed++
		}
		pAgree := pairAgreeProb(conf[a], conf[b], k)
		expAgree += pAgree
		varAgree += pAgree * (1 - pAgree)
		pOpp := pairOpposeProb(conf[a], conf[b], modes[o], cfg.Scale)
		expOpp += pOpp
		varOpp += pOpp * (1 - pOpp)
	}
	dep.ExpectedAgree = expAgree
	dep.SD = math.Sqrt(varAgree)
	dep.Z = stats.ZScore(float64(dep.Agreed), expAgree, dep.SD)
	dep.ExpectedOpposed = expOpp
	dep.SDOpp = math.Sqrt(varOpp)
	dep.ZOpp = stats.ZScore(float64(dep.Opposed), expOpp, dep.SDOpp)
	switch {
	case dep.ZOpp >= cfg.ZThreshold && dep.ZOpp >= dep.Z:
		dep.Kind = Dissimilarity
	case dep.Z >= cfg.ZThreshold:
		dep.Kind = Similarity
	default:
		dep.Kind = Independent
	}
	return dep, true
}

// ConsensusOption controls how Consensus treats dependent raters.
type ConsensusOption int

const (
	// DropDependents removes the lower-information member of every
	// dependent pair from the aggregation entirely.
	DropDependents ConsensusOption = iota
	// KeepAll aggregates everything (the naive baseline).
	KeepAll
)

// ItemConsensus is the aggregated opinion on one item.
type ItemConsensus struct {
	Object model.ObjectID
	// Dist is the aggregated rating distribution; MeanLevel its mean on
	// the numeric scale.
	Dist      map[string]float64
	MeanLevel float64
	// Raters is the number of ratings aggregated.
	Raters int
}

// Consensus aggregates ratings into per-item consensus, optionally
// excluding dependent raters discovered by Detect. For each dependent pair
// the member with the smaller rating count is dropped (the contrarian or
// copier adds no independent information).
func Consensus(d *dataset.Dataset, res *Result, cfg Config, opt ConsensusOption) map[model.ObjectID]ItemConsensus {
	var dropped map[model.SourceID]bool
	if opt == DropDependents && res != nil {
		dropped = droppedRaters(d, res)
	}
	out := map[model.ObjectID]ItemConsensus{}
	for _, o := range d.Objects() {
		counts := map[string]float64{}
		var total float64
		var levelSum float64
		var raters int
		for _, c := range d.ClaimsByObject(o) {
			if dropped[c.Source] {
				continue
			}
			lvl, ok := cfg.Scale.Level(c.Value)
			if !ok {
				continue
			}
			counts[c.Value]++
			levelSum += float64(lvl)
			total++
			raters++
		}
		if total == 0 {
			continue
		}
		dist := make(map[string]float64, len(counts))
		for l, v := range counts {
			dist[l] = v / total
		}
		out[o] = ItemConsensus{
			Object:    o,
			Dist:      dist,
			MeanLevel: levelSum / total,
			Raters:    raters,
		}
	}
	return out
}

// droppedRaters picks, from each dependent pair, the member with fewer
// ratings — the shorter row of the dataset's per-source snapshot columns.
func droppedRaters(d *dataset.Dataset, res *Result) map[model.SourceID]bool {
	c := d.Compiled()
	ratings := func(s model.SourceID) int32 {
		si, ok := c.SourceIndex(s)
		if !ok {
			return 0
		}
		return c.SrcStart[si+1] - c.SrcStart[si]
	}
	dropped := map[model.SourceID]bool{}
	for _, dep := range res.Dependent() {
		if a, b := dep.Pair.A, dep.Pair.B; ratings(a) < ratings(b) {
			dropped[a] = true
		} else {
			dropped[b] = true
		}
	}
	return dropped
}

// Excluded reports which raters Consensus would drop for the given result.
func Excluded(d *dataset.Dataset, res *Result) []model.SourceID {
	dropped := droppedRaters(d, res)
	out := make([]model.SourceID, 0, len(dropped))
	for s := range dropped {
		out = append(out, s)
	}
	model.SortSources(out)
	return out
}
