// Package winnow implements winnowing document fingerprinting (Schleimer,
// Wilkerson, Aiken — SIGMOD 2003), the MOSS plagiarism-detection technique
// the paper cites as related work [15], adapted to structured sources.
//
// It serves as the copy-detection baseline in the experiments: a source's
// claims are serialized into a token stream, k-gram hashes are winnowed
// into a fingerprint, and pairwise fingerprint overlap approximates
// similarity. The baseline deliberately ignores truth and accuracy, which
// is exactly what the Bayesian detector exploits to beat it (EX10).
package winnow

import (
	"errors"
	"hash/fnv"
	"sort"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/engine"
	"sourcecurrents/internal/model"
)

// Config holds winnowing parameters: fingerprints are selected from hashes
// of K consecutive tokens using windows of size W (guarantee threshold
// t = W + K - 1).
type Config struct {
	K int // k-gram size (tokens)
	W int // winnowing window size
}

// DefaultConfig uses k=3 tokens and window 4.
func DefaultConfig() Config { return Config{K: 3, W: 4} }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.K < 1 {
		return errors.New("winnow: K must be >= 1")
	}
	if c.W < 1 {
		return errors.New("winnow: W must be >= 1")
	}
	return nil
}

// Fingerprint is the winnowed hash set of one source.
type Fingerprint map[uint64]bool

// tokensOfCompiled serializes source si's snapshot view into a
// deterministic token stream: object, value pairs in object order. SrcObj is
// ascending per source, which is exactly the order the map oracle's tokensOf
// (reference_test.go) reads through ObjectsOf.
func tokensOfCompiled(c *dataset.Compiled, si int) []string {
	lo, hi := c.SrcStart[si], c.SrcStart[si+1]
	toks := make([]string, 0, 3*(hi-lo))
	for k := lo; k < hi; k++ {
		o := c.Object(int(c.SrcObj[k]))
		toks = append(toks, o.Entity, o.Attribute, c.Value(int(c.SrcVal[k])))
	}
	return toks
}

// hashKGrams hashes each window of k consecutive tokens with FNV-1a.
func hashKGrams(toks []string, k int) []uint64 {
	if len(toks) < k || k <= 0 {
		return nil
	}
	out := make([]uint64, 0, len(toks)-k+1)
	for i := 0; i+k <= len(toks); i++ {
		h := fnv.New64a()
		for j := i; j < i+k; j++ {
			h.Write([]byte(toks[j]))
			h.Write([]byte{0})
		}
		out = append(out, h.Sum64())
	}
	return out
}

// winnowHashes selects, from each window of w consecutive hashes, the
// minimum (rightmost minimum on ties) — the winnowing algorithm.
func winnowHashes(hashes []uint64, w int) Fingerprint {
	fp := Fingerprint{}
	if len(hashes) == 0 || w <= 0 {
		return fp
	}
	if len(hashes) <= w {
		min := hashes[0]
		for _, h := range hashes[1:] {
			if h < min {
				min = h
			}
		}
		fp[min] = true
		return fp
	}
	for i := 0; i+w <= len(hashes); i++ {
		minIdx := i
		for j := i; j < i+w; j++ {
			if hashes[j] <= hashes[minIdx] {
				minIdx = j // rightmost minimum
			}
		}
		fp[hashes[minIdx]] = true
	}
	return fp
}

// Similarity is the Jaccard overlap of two fingerprints.
func Similarity(a, b Fingerprint) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	var inter int
	for h := range a {
		if b[h] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Pair is a scored source pair.
type Pair struct {
	Pair model.SourcePair
	Sim  float64
}

// DetectPairs fingerprints every source and returns all pairs with
// similarity >= threshold, sorted by decreasing similarity. Fingerprinting
// and pairwise scoring run on the compiled claim lists over the parallel
// engine; the result is bit-identical to the map-based reference
// (detectPairsMaps, in reference_test.go), which the golden equivalence
// tests enforce.
func DetectPairs(d *dataset.Dataset, cfg Config, threshold float64) ([]Pair, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !d.Frozen() {
		return nil, errors.New("winnow: dataset must be frozen")
	}
	if threshold < 0 || threshold > 1 {
		return nil, errors.New("winnow: threshold must be in [0,1]")
	}
	c := d.Compiled()
	fps := engine.MapN(c.NumSources(), func(si int) Fingerprint {
		return winnowHashes(hashKGrams(tokensOfCompiled(c, si), cfg.K), cfg.W)
	})
	sims := engine.MapPairs(c.NumSources(), func(i, j int) float64 {
		return Similarity(fps[i], fps[j])
	})
	var out []Pair
	k := 0
	for i := 0; i < c.NumSources(); i++ {
		for j := i + 1; j < c.NumSources(); j++ {
			if sims[k] >= threshold {
				out = append(out, Pair{Pair: model.NewSourcePair(c.Source(i), c.Source(j)), Sim: sims[k]})
			}
			k++
		}
	}
	sortPairs(out)
	return out, nil
}

// sortPairs orders scored pairs by decreasing similarity, ties by pair name
// — a strict total order, so the permutation is deterministic.
func sortPairs(out []Pair) {
	sort.Slice(out, func(a, b int) bool {
		if out[a].Sim != out[b].Sim {
			return out[a].Sim > out[b].Sim
		}
		return out[a].Pair.String() < out[b].Pair.String()
	})
}
