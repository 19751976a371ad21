// Package fusion implements data fusion — the first application of §4:
// combining conflicting data from multiple sources into a single (possibly
// probabilistic) view, with and without awareness of source dependence.
//
// Strategies range from the classical conflict-handling baselines (Bleiholder
// & Naumann's survey [3]: keep-first, majority) through accuracy-weighted
// voting to the dependence-aware resolver that consumes a depen.State. The
// probabilistic output path materializes a probdb.Relation so downstream
// query answering can work with value distributions instead of point
// choices.
package fusion

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/probdb"
	"sourcecurrents/internal/truth"
)

// Strategy selects the conflict-resolution policy.
type Strategy int

const (
	// KeepFirst takes the value of the lexicographically first source
	// providing one (a deterministic stand-in for "trust my favorite
	// source").
	KeepFirst Strategy = iota
	// Majority takes the plurality value (naive voting).
	Majority
	// Weighted runs accuracy-weighted iterative truth discovery (ACCU).
	Weighted
	// DependenceAware runs the full copy-aware solver (DEPEN/ACCUCOPY).
	DependenceAware
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case KeepFirst:
		return "keep-first"
	case Majority:
		return "majority"
	case Weighted:
		return "weighted"
	case DependenceAware:
		return "dependence-aware"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Config parameterizes Fuse.
type Config struct {
	Strategy Strategy
	// Truth configures the iterative strategies.
	Truth truth.Config
	// Depen configures the dependence-aware strategy.
	Depen depen.Config
	// MinProb drops fused values whose posterior falls below it (0 keeps
	// everything).
	MinProb float64
}

// DefaultConfig fuses dependence-aware with default solver parameters.
func DefaultConfig() Config {
	return Config{
		Strategy: DependenceAware,
		Truth:    truth.DefaultConfig(),
		Depen:    depen.DefaultConfig(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MinProb < 0 || c.MinProb >= 1 {
		return errors.New("fusion: MinProb must be in [0,1)")
	}
	switch c.Strategy {
	case KeepFirst, Majority:
		return nil
	case Weighted:
		return c.Truth.Validate()
	case DependenceAware:
		return c.Depen.Validate()
	}
	return fmt.Errorf("fusion: unknown strategy %d", int(c.Strategy))
}

// Result is a fused view of the dataset.
type Result struct {
	// Chosen maps each object to its resolved value.
	Chosen map[model.ObjectID]string
	// Relation is the probabilistic output (per-object value
	// distributions). For KeepFirst the chosen value carries probability 1.
	Relation *probdb.Relation
	// Truth carries the underlying truth-discovery result for the
	// iterative strategies (nil otherwise, and from FuseWith).
	Truth *truth.Result
	// Depen carries the dependence result for DependenceAware (nil
	// otherwise, and from FuseWith).
	Depen *depen.Result
	// Strategy echoes the policy used.
	Strategy Strategy
}

// Fuse resolves all conflicts in a frozen dataset under the configured
// strategy. The iterative solvers already run on the compiled columnar
// index; fusion's own resolution loop runs over the compiled object order.
// The result is
// bit-identical to the map-based reference (fuseMaps, in
// reference_test.go), which the golden equivalence tests enforce.
func Fuse(d *dataset.Dataset, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !d.Frozen() {
		return nil, errors.New("fusion: dataset must be frozen")
	}
	if d.Len() == 0 {
		return nil, errors.New("fusion: empty dataset")
	}
	res := newResult(cfg.Strategy)
	switch cfg.Strategy {
	case KeepFirst:
		if err := fillKeepFirst(res, d); err != nil {
			return nil, err
		}
	case Majority:
		tr := truth.Vote(d)
		res.Truth = tr
		if err := fillResolved(res, d, tr, cfg); err != nil {
			return nil, err
		}
	case Weighted:
		tr, err := truth.Accu(d, cfg.Truth)
		if err != nil {
			return nil, err
		}
		res.Truth = tr
		if err := fillResolved(res, d, tr, cfg); err != nil {
			return nil, err
		}
	case DependenceAware:
		st, err := depen.Solve(d, nil, cfg.Depen)
		if err != nil {
			return nil, err
		}
		if err := fillState(res, d, st, cfg); err != nil {
			return nil, err
		}
		// A one-shot call carries the discovery result for library callers.
		res.Depen = st.Result(cfg.Depen)
		res.Truth = res.Depen.Truth
	}
	return res, nil
}

// FuseWith resolves conflicts from an existing dependence state — the
// serving session's precompute — instead of re-running the solver. st must
// be the state of a solve over d under cfg.Depen, whose Known labels the
// resolution reads. The strategy must be DependenceAware; Chosen, Relation
// and Strategy are bit-identical to Fuse's, and Truth and Depen are nil:
// no by-name view of st is built.
func FuseWith(d *dataset.Dataset, cfg Config, st *depen.State) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !d.Frozen() {
		return nil, errors.New("fusion: dataset must be frozen")
	}
	if d.Len() == 0 {
		return nil, errors.New("fusion: empty dataset")
	}
	if cfg.Strategy != DependenceAware {
		return nil, errors.New("fusion: FuseWith requires the DependenceAware strategy")
	}
	if st == nil {
		return nil, errors.New("fusion: FuseWith requires a non-nil dependence state")
	}
	res := newResult(cfg.Strategy)
	if err := fillState(res, d, st, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

func newResult(st Strategy) *Result {
	return &Result{
		Chosen:   map[model.ObjectID]string{},
		Relation: probdb.NewRelation("fused"),
		Strategy: st,
	}
}

// fillKeepFirst resolves every object to the value of its
// lexicographically first source over the compiled group lists: group
// source lists are ascending, so each group's first entry is its minimum
// and the object's winner is the group with the smallest first entry.
func fillKeepFirst(res *Result, d *dataset.Dataset) error {
	c := d.Compiled()
	for oi := 0; oi < c.NumObjects(); oi++ {
		best := ""
		bestSrc := int32(-1)
		for g := c.GroupStart[oi]; g < c.GroupStart[oi+1]; g++ {
			first := c.GroupSrc[c.GroupSrcStart[g]]
			if bestSrc < 0 || first < bestSrc {
				bestSrc, best = first, c.Value(int(c.GroupValue[g]))
			}
		}
		o := c.Object(oi)
		res.Chosen[o] = best
		if err := res.Relation.Put(probdb.XTuple{
			Object:       o,
			Alternatives: []probdb.Alternative{{Value: best, Prob: 1}},
		}); err != nil {
			return err
		}
	}
	return nil
}

// fillResolved materializes the probabilistic relation from a truth result,
// in canonical object order.
func fillResolved(res *Result, d *dataset.Dataset, tr *truth.Result, cfg Config) error {
	c := d.Compiled()
	for oi := 0; oi < c.NumObjects(); oi++ {
		o := c.Object(oi)
		pv := tr.Probs[o]
		vals := make([]string, 0, len(pv))
		for v := range pv {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		var alts []probdb.Alternative
		for _, v := range vals {
			if pv[v] >= cfg.MinProb && pv[v] > 0 {
				alts = append(alts, probdb.Alternative{Value: v, Prob: pv[v]})
			}
		}
		if err := res.Relation.Put(probdb.XTuple{Object: o, Alternatives: alts}); err != nil {
			return err
		}
		res.Chosen[o] = tr.Chosen[o]
	}
	return nil
}

// fillState is fillResolved over st, solved on d under cfg.Depen: each
// object's values come off the posterior vector in sorted order (with a Known
// label nobody asserts merged in), the alternatives pass the same filter, and
// the chosen value is the first maximum in that order — truth.PickChosen's
// rule — so the output is what fillResolved makes of st's view.
func fillState(res *Result, d *dataset.Dataset, st *depen.State, cfg Config) error {
	c := d.Compiled()
	solver := truth.NewDenseSolver(c, cfg.Depen.Truth)
	probs := st.Posteriors()
	for oi := 0; oi < c.NumObjects(); oi++ {
		var alts []probdb.Alternative
		chosen, best := "", math.Inf(-1)
		solver.EachValue(probs, oi, func(v string, p float64) {
			if p >= cfg.MinProb && p > 0 {
				alts = append(alts, probdb.Alternative{Value: v, Prob: p})
			}
			if p > best {
				chosen, best = v, p
			}
		})
		o := c.Object(oi)
		if err := res.Relation.Put(probdb.XTuple{Object: o, Alternatives: alts}); err != nil {
			return err
		}
		res.Chosen[o] = chosen
	}
	return nil
}
