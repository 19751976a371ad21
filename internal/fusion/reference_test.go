package fusion

import (
	"errors"
	"sort"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/probdb"
	"sourcecurrents/internal/truth"
)

// fuseMaps is the map-based reference implementation of Fuse: the semantic
// specification the compiled path is tested against (golden_test.go).
func fuseMaps(d *dataset.Dataset, cfg Config) (*Result, error) {
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
		for _, o := range d.Objects() {
			groups := d.ValuesFor(o)
			best := ""
			bestSrc := model.SourceID("")
			for _, g := range groups {
				for _, s := range g.Sources {
					if bestSrc == "" || s < bestSrc {
						bestSrc, best = s, g.Value
					}
				}
			}
			res.Chosen[o] = best
			if err := res.Relation.Put(probdb.XTuple{
				Object:       o,
				Alternatives: []probdb.Alternative{{Value: best, Prob: 1}},
			}); err != nil {
				return nil, err
			}
		}
	case Majority:
		tr := truth.Vote(d)
		res.Truth = tr
		if err := fillFromProbs(res, tr.Probs, tr.Chosen, cfg.MinProb); err != nil {
			return nil, err
		}
	case Weighted:
		tr, err := truth.Accu(d, cfg.Truth)
		if err != nil {
			return nil, err
		}
		res.Truth = tr
		if err := fillFromProbs(res, tr.Probs, tr.Chosen, cfg.MinProb); err != nil {
			return nil, err
		}
	case DependenceAware:
		dr, err := depen.Detect(d, cfg.Depen)
		if err != nil {
			return nil, err
		}
		res.Depen = dr
		res.Truth = dr.Truth
		if err := fillFromProbs(res, dr.Truth.Probs, dr.Truth.Chosen, cfg.MinProb); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// fillFromProbs is fillResolved's map-based reference shape: collect the
// probability table's keys, sort, and emit sequentially.
func fillFromProbs(res *Result, probs map[model.ObjectID]map[string]float64,
	chosen map[model.ObjectID]string, minProb float64) error {
	objs := make([]model.ObjectID, 0, len(probs))
	for o := range probs {
		objs = append(objs, o)
	}
	model.SortObjects(objs)
	for _, o := range objs {
		pv := probs[o]
		vals := make([]string, 0, len(pv))
		for v := range pv {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		var alts []probdb.Alternative
		for _, v := range vals {
			if pv[v] >= minProb && pv[v] > 0 {
				alts = append(alts, probdb.Alternative{Value: v, Prob: pv[v]})
			}
		}
		if err := res.Relation.Put(probdb.XTuple{Object: o, Alternatives: alts}); err != nil {
			return err
		}
		res.Chosen[o] = chosen[o]
	}
	return nil
}
