// Package linkage implements record linkage — the second application of
// §4: linking alternative representations of the same value so that truth
// discovery votes on semantics rather than spelling.
//
// The Example 4.1 pipeline needs this for author lists: "Jeffrey D. Ullman",
// "J. Ullman" and "Ullman, Jeffrey" must merge into one cluster before
// voting, while "Xing Dong" (a typo) must stay apart from "Xin Dong" even
// though it is *closer* as a string than the legitimate alternative "Luna
// Dong". String similarity alone cannot make that call (§4's "the boundary
// between a wrong value and an alternative representation is often vague");
// the resolver therefore combines similarity with SUPPORT: a representation
// independently provided by many sources is an alternative representation,
// one provided only by low-support stragglers is a wrong value.
//
// Pipeline: blocking (cheap key) -> pairwise scoring (strsim) -> union-find
// clustering -> canonical representative (support-weighted) -> claim
// rewriting. The iterative entry point (LinkThenDiscover) alternates
// linkage and truth discovery as §4 suggests.
package linkage

import (
	"errors"
	"fmt"
	"sort"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/strsim"
)

// Similarity scores two value strings in [0, 1]. The default treats values
// as author lists; plain attributes can use strsim.JaroWinkler directly.
type Similarity func(a, b string) float64

// AuthorListSim parses both values as author lists and scores them
// order-insensitively.
func AuthorListSim(a, b string) float64 {
	return strsim.AuthorListSim(strsim.ParseAuthorList(a), strsim.ParseAuthorList(b))
}

// Config parameterizes linkage.
type Config struct {
	// Sim scores candidate pairs; MatchThreshold links them.
	Sim            Similarity
	MatchThreshold float64
	// BlockKey maps a value to a blocking key; only values sharing a key
	// are compared. nil compares everything within an object (values for
	// different objects never link).
	BlockKey func(v string) string
	// MinAltSupport is the minimum number of distinct sources a merged
	// representation needs to be considered a legitimate alternative; with
	// fewer supporters it is classified a wrong value (still linked, but
	// reported).
	MinAltSupport int
}

// DefaultConfig links author-list style values.
func DefaultConfig() Config {
	return Config{
		Sim:            AuthorListSim,
		MatchThreshold: 0.75,
		BlockKey:       nil,
		MinAltSupport:  2,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Sim == nil {
		return errors.New("linkage: Sim must be set")
	}
	if c.MatchThreshold <= 0 || c.MatchThreshold > 1 {
		return errors.New("linkage: MatchThreshold must be in (0,1]")
	}
	if c.MinAltSupport < 1 {
		return errors.New("linkage: MinAltSupport must be >= 1")
	}
	return nil
}

// unionFind is a standard disjoint-set structure over value indices.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
}

// Variant is one surface form within a cluster.
type Variant struct {
	Value   string
	Support int // distinct sources providing exactly this form
}

// Cluster is a set of linked representations of (what linkage believes is)
// one underlying value of one object.
type Cluster struct {
	Object model.ObjectID
	// Canonical is the chosen representative (max support, ties to the
	// longer then lexicographically smaller form — longer forms carry more
	// information, e.g. full names beat initials).
	Canonical string
	Variants  []Variant
	// Support is the total distinct-source support of the cluster.
	Support int
	// WrongValueForms lists member forms whose support falls below
	// MinAltSupport — likely typos rather than representations.
	WrongValueForms []string
}

// Result is the outcome of linking one dataset.
type Result struct {
	// Clusters per object, in object order; within an object, by
	// decreasing support.
	Clusters []Cluster
	// Rewritten is the dataset with every claim's value replaced by its
	// cluster canonical (frozen).
	Rewritten *dataset.Dataset
	// CanonicalOf maps (object, raw value) to the canonical form.
	CanonicalOf map[model.ObjectID]map[string]string
}

// VariantsOf returns the number of distinct raw forms observed for an
// object (the "author lists per book" statistic of Example 4.1).
func (r *Result) VariantsOf(o model.ObjectID) int {
	var n int
	for _, c := range r.Clusters {
		if c.Object == o {
			n += len(c.Variants)
		}
	}
	return n
}

// ClustersOf returns the clusters of one object.
func (r *Result) ClustersOf(o model.ObjectID) []Cluster {
	var out []Cluster
	for _, c := range r.Clusters {
		if c.Object == o {
			out = append(out, c)
		}
	}
	return out
}

// Link clusters the representations of every object in a frozen dataset.
func Link(d *dataset.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !d.Frozen() {
		return nil, errors.New("linkage: dataset must be frozen")
	}
	res := &Result{CanonicalOf: map[model.ObjectID]map[string]string{}}
	rewritten := dataset.New()
	for _, o := range d.Objects() {
		groups := d.ValuesFor(o)
		clusters := clusterObject(o, groups, cfg)
		res.Clusters = append(res.Clusters, clusters...)
		canon := map[string]string{}
		for _, c := range clusters {
			for _, v := range c.Variants {
				canon[v.Value] = c.Canonical
			}
		}
		res.CanonicalOf[o] = canon
	}
	// Rewrite claims with canonical values.
	for _, c := range d.Claims() {
		nc := c
		if canon, ok := res.CanonicalOf[c.Object][c.Value]; ok {
			nc.Value = canon
		}
		if err := rewritten.Add(nc); err != nil {
			return nil, fmt.Errorf("linkage: rewrite: %w", err)
		}
	}
	rewritten.Freeze()
	res.Rewritten = rewritten
	return res, nil
}

func clusterObject(o model.ObjectID, groups []dataset.ValueGroup, cfg Config) []Cluster {
	n := len(groups)
	if n == 0 {
		return nil
	}
	uf := newUnionFind(n)
	// Blocking.
	blocks := map[string][]int{}
	for i, g := range groups {
		key := ""
		if cfg.BlockKey != nil {
			key = cfg.BlockKey(g.Value)
		}
		blocks[key] = append(blocks[key], i)
	}
	keys := make([]string, 0, len(blocks))
	for k := range blocks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		idxs := blocks[k]
		for x := 0; x < len(idxs); x++ {
			for y := x + 1; y < len(idxs); y++ {
				i, j := idxs[x], idxs[y]
				if cfg.Sim(groups[i].Value, groups[j].Value) >= cfg.MatchThreshold {
					uf.union(i, j)
				}
			}
		}
	}
	// Materialize clusters.
	byRoot := map[int][]int{}
	for i := range groups {
		r := uf.find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	var out []Cluster
	for _, r := range roots {
		members := byRoot[r]
		c := Cluster{Object: o}
		for _, i := range members {
			g := groups[i]
			c.Variants = append(c.Variants, Variant{Value: g.Value, Support: len(g.Sources)})
			c.Support += len(g.Sources)
		}
		sort.Slice(c.Variants, func(a, b int) bool {
			if c.Variants[a].Support != c.Variants[b].Support {
				return c.Variants[a].Support > c.Variants[b].Support
			}
			if len(c.Variants[a].Value) != len(c.Variants[b].Value) {
				return len(c.Variants[a].Value) > len(c.Variants[b].Value)
			}
			return c.Variants[a].Value < c.Variants[b].Value
		})
		c.Canonical = c.Variants[0].Value
		for _, v := range c.Variants {
			if v.Support < cfg.MinAltSupport && v.Value != c.Canonical {
				c.WrongValueForms = append(c.WrongValueForms, v.Value)
			}
		}
		out = append(out, c)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Support != out[b].Support {
			return out[a].Support > out[b].Support
		}
		return out[a].Canonical < out[b].Canonical
	})
	return out
}
