package dataset

import "sourcecurrents/internal/model"

// Two accessors only the equivalence suites read (append_test.go,
// columns_test.go): each source's claim row in time order, and the pair
// overlaps over a threshold. They are checked against the map oracle and a
// flat build like every served accessor.

// ClaimsBySource returns s's claims in time order. Valid after Freeze.
func (d *Dataset) ClaimsBySource(s model.SourceID) []model.Claim {
	var row []int32
	if si, ok := d.cols.SourceIndex(s); ok {
		row = d.cols.sourceClaims(si)
	}
	return d.gather(row)
}

// Pairs enumerates all unordered source pairs whose overlap has at least
// minShared objects, in deterministic order. This is the candidate set for
// pairwise dependence analysis; Example 4.1 uses minShared = 10.
func (d *Dataset) Pairs(minShared int) []Overlap {
	var out []Overlap
	sources := d.cols.sources
	for i := 0; i < len(sources); i++ {
		for j := i + 1; j < len(sources); j++ {
			ov := d.OverlapOf(sources[i], sources[j])
			if len(ov.Objects) >= minShared {
				out = append(out, ov)
			}
		}
	}
	return out
}
