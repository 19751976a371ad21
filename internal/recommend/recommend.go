// Package recommend implements source recommendation — the fourth
// application of §4: ranking sources (or raters) by trustworthiness, where
// trust combines "accuracy, coverage, freshness of provided data, and
// independence of opinions".
//
// Two modes reflect the paper's observation that recommending a dependent
// source is "a tricky decision": the default mode ranks by scalarized
// trust, penalizing dependence (redundant information); the diversity mode
// deliberately surfaces dissimilarity-dependent sources ("if our goal is to
// find diverse opinions, we might want to point out some sources that have
// dissimilarity-dependence on other sources").
package recommend

import (
	"errors"
	"sort"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/dissim"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/temporal"
)

// Profile summarizes one source's quality axes, each in [0, 1].
type Profile struct {
	Source   model.SourceID
	Accuracy float64
	Coverage float64
	// Freshness is 1 for instant capture, decaying with mean lag; sources
	// without temporal data get the neutral 0.5.
	Freshness float64
	// Independence is the probability that the source is not a copy of any
	// other source: Π (1 − P(s depends on s')).
	Independence float64
	// Trust is the weighted scalarization (filled by Rank).
	Trust float64
}

// Weights scalarizes a profile. Zero-value weights are invalid; use
// DefaultWeights.
type Weights struct {
	Accuracy, Coverage, Freshness, Independence float64
}

// DefaultWeights balances the four axes with emphasis on accuracy.
func DefaultWeights() Weights {
	return Weights{Accuracy: 0.4, Coverage: 0.2, Freshness: 0.15, Independence: 0.25}
}

// Validate reports weight errors.
func (w Weights) Validate() error {
	for _, v := range []float64{w.Accuracy, w.Coverage, w.Freshness, w.Independence} {
		if v < 0 {
			return errors.New("recommend: weights must be >= 0")
		}
	}
	if w.Accuracy+w.Coverage+w.Freshness+w.Independence <= 0 {
		return errors.New("recommend: at least one weight must be positive")
	}
	return nil
}

// BuildProfiles derives profiles from a dataset plus the discovery results.
// st is the dependence state of a solve over d, or nil (all sources
// independent, neutral accuracy); reports may be nil (neutral freshness). It
// runs over the dataset's compiled columnar index and the state's pair
// records, and is bit-identical to the map-based reference
// (buildProfilesMaps, in reference_test.go), which the golden equivalence
// tests enforce.
func BuildProfiles(d *dataset.Dataset, st *depen.State,
	reports map[model.SourceID]*temporal.SourceReport) []Profile {
	c := d.Compiled()
	if c == nil || c.NumSources() == 0 {
		return nil // not frozen (a dataset has no sources before Freeze), or empty
	}
	nS := c.NumSources()
	nObj := c.NumObjects()
	// indep[s] is Π (1 − P(s copies s')), one pass over the pair records:
	// (a, b) order multiplies each source's factors in ascending partner
	// order, and an unanalysed pair's factor, 1 − 0, is exactly 1.
	indep := make([]float64, nS)
	for i := range indep {
		indep[i] = 1
	}
	if st != nil {
		st.EachPair(func(a, b int, ab, ba float64) {
			indep[a] *= 1 - ab
			indep[b] *= 1 - ba
		})
	}
	out := make([]Profile, nS)
	for si := range out {
		s := c.Source(si)
		cov := 0.0
		if nObj > 0 {
			cov = float64(c.SrcStart[si+1]-c.SrcStart[si]) / float64(nObj)
		}
		p := Profile{Source: s, Coverage: cov, Freshness: 0.5, Accuracy: 0.5, Independence: indep[si]}
		if st != nil {
			p.Accuracy = st.Accuracy()[si]
		}
		if rep, ok := reports[s]; ok {
			// Freshness: 1/(1+meanLag); coverage from the temporal report
			// overrides the snapshot ratio when available.
			p.Freshness = 1 / (1 + rep.Metrics.MeanLag)
			if rep.Metrics.Periods > 0 {
				p.Coverage = rep.Metrics.Coverage
			}
			p.Accuracy = rep.Metrics.Exactness
		}
		out[si] = p
	}
	return out
}

// Rank scalarizes and sorts profiles by trust (descending, ties by id).
func Rank(profiles []Profile, w Weights) ([]Profile, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	total := w.Accuracy + w.Coverage + w.Freshness + w.Independence
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	for i := range out {
		out[i].Trust = (w.Accuracy*out[i].Accuracy +
			w.Coverage*out[i].Coverage +
			w.Freshness*out[i].Freshness +
			w.Independence*out[i].Independence) / total
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Trust != out[j].Trust {
			return out[i].Trust > out[j].Trust
		}
		return out[i].Source < out[j].Source
	})
	return out, nil
}

// Top returns the k most trusted profiles.
func Top(profiles []Profile, w Weights, k int) ([]Profile, error) {
	if k < 0 {
		return nil, errors.New("recommend: k must be >= 0")
	}
	ranked, err := Rank(profiles, w)
	if err != nil {
		return nil, err
	}
	if k > len(ranked) {
		k = len(ranked)
	}
	return ranked[:k], nil
}

// DiversePick is one recommendation in diversity mode.
type DiversePick struct {
	Profile Profile
	// Reason is "trusted" for trust picks or "dissenting" for sources
	// included because they dissimilarity-depend on a trusted pick.
	Reason string
	// DissentsFrom names the trusted source the dissenting pick opposes
	// (empty for trust picks).
	DissentsFrom model.SourceID
}

// TopDiverse returns k trust picks plus up to extraDissent sources that are
// dissimilarity-dependent on one of them — the paper's "diverse opinions"
// recommendation mode.
func TopDiverse(profiles []Profile, w Weights, diss *dissim.Result,
	k, extraDissent int) ([]DiversePick, error) {
	if extraDissent < 0 {
		return nil, errors.New("recommend: extraDissent must be >= 0")
	}
	trusted, err := Top(profiles, w, k)
	if err != nil {
		return nil, err
	}
	picks := make([]DiversePick, 0, len(trusted)+extraDissent)
	chosen := map[model.SourceID]bool{}
	for _, p := range trusted {
		picks = append(picks, DiversePick{Profile: p, Reason: "trusted"})
		chosen[p.Source] = true
	}
	if diss == nil || extraDissent <= 0 {
		return picks, nil
	}
	byID := map[model.SourceID]Profile{}
	for _, p := range profiles {
		byID[p.Source] = p
	}
	added := 0
	for _, dep := range diss.Dependent() {
		if added >= extraDissent {
			break
		}
		if dep.Kind != dissim.Dissimilarity {
			continue
		}
		var dissenter, anchor model.SourceID
		switch {
		case chosen[dep.Pair.A] && !chosen[dep.Pair.B]:
			dissenter, anchor = dep.Pair.B, dep.Pair.A
		case chosen[dep.Pair.B] && !chosen[dep.Pair.A]:
			dissenter, anchor = dep.Pair.A, dep.Pair.B
		default:
			continue
		}
		picks = append(picks, DiversePick{
			Profile:      byID[dissenter],
			Reason:       "dissenting",
			DissentsFrom: anchor,
		})
		chosen[dissenter] = true
		added++
	}
	return picks, nil
}
