package winnow

import (
	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
)

// detectPairsMaps is the map-based reference implementation of DetectPairs:
// the semantic specification the compiled path is tested against
// (golden_test.go).
func detectPairsMaps(d *dataset.Dataset, cfg Config, threshold float64) []Pair {
	fps := map[model.SourceID]Fingerprint{}
	for _, s := range d.Sources() {
		fps[s] = FingerprintSource(d, s, cfg)
	}
	var out []Pair
	srcs := d.Sources()
	for i := 0; i < len(srcs); i++ {
		for j := i + 1; j < len(srcs); j++ {
			sim := Similarity(fps[srcs[i]], fps[srcs[j]])
			if sim >= threshold {
				out = append(out, Pair{Pair: model.NewSourcePair(srcs[i], srcs[j]), Sim: sim})
			}
		}
	}
	sortPairs(out)
	return out
}
