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

// tokensOf serializes a source's snapshot view into a deterministic token
// stream: object, value pairs in object order.
func tokensOf(d *dataset.Dataset, s model.SourceID) []string {
	var toks []string
	for _, o := range d.ObjectsOf(s) {
		v, _ := d.Value(s, o)
		toks = append(toks, o.Entity, o.Attribute, v)
	}
	return toks
}

// FingerprintSource computes the winnowed fingerprint of one source.
func FingerprintSource(d *dataset.Dataset, s model.SourceID, cfg Config) Fingerprint {
	return winnowHashes(hashKGrams(tokensOf(d, s), cfg.K), cfg.W)
}
