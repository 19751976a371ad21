package recommend

import (
	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/temporal"
)

// buildProfilesMaps is the map-based reference implementation of
// BuildProfiles: the semantic specification the compiled path is tested
// against (golden_test.go).
func buildProfilesMaps(d *dataset.Dataset, dep *depen.Result,
	reports map[model.SourceID]*temporal.SourceReport) []Profile {
	var out []Profile
	for _, s := range d.Sources() {
		coverage := float64(len(d.ObjectsOf(s))) / float64(len(d.Objects()))
		p := Profile{Source: s, Coverage: coverage, Freshness: 0.5, Accuracy: 0.5}
		if dep != nil && dep.Truth != nil {
			if a, ok := dep.Truth.Accuracy[s]; ok {
				p.Accuracy = a
			}
		}
		p.Independence = 1
		if dep != nil {
			for _, other := range d.Sources() {
				if other == s {
					continue
				}
				copies, _ := dep.State().CopyProbs(s, other)
				p.Independence *= 1 - copies
			}
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
		out = append(out, p)
	}
	return out
}
