package queryans

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
)

// Golden equivalence: AnswerObjects (compiled incremental Planner) must be
// bit-identical — reflect.DeepEqual, no tolerance — to answerObjectsMaps
// (the map-based reference that recomputes every answer and every
// independence product from scratch after each probe), across policies,
// early stopping, probe caps, duplicate query objects and partial coverage.

// goldenQueryWorld builds a ragged-coverage world: sources cover random
// object windows, some values are shared through a copier clique, and
// accuracies collide so the (accuracy desc, id asc) tie-break is exercised.
func goldenQueryWorld(t *testing.T, seed int64) (*dataset.Dataset, Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New()
	nObj := 40
	objs := make([]model.ObjectID, nObj)
	for i := range objs {
		objs[i] = model.Obj(fmt.Sprintf("o%02d", i), "v")
	}
	nSrc := 12
	acc := map[model.SourceID]float64{}
	var clique []model.SourceID
	for s := 0; s < nSrc; s++ {
		id := model.SourceID(fmt.Sprintf("S%02d", s))
		// Deliberate accuracy collisions: only five distinct levels.
		acc[id] = 0.55 + 0.1*float64(s%5)
		lo := rng.Intn(nObj / 2)
		hi := lo + 5 + rng.Intn(nObj/2)
		if hi > nObj {
			hi = nObj
		}
		for i := lo; i < hi; i++ {
			v := fmt.Sprintf("T%d", i)
			switch rng.Intn(4) {
			case 0:
				v = fmt.Sprintf("F%d_%d", i, rng.Intn(3))
			}
			_ = d.Add(model.NewClaim(id, objs[i], v))
		}
		if s%4 == 0 {
			clique = append(clique, id)
		}
	}
	d.Freeze()
	cfg := DefaultConfig()
	cfg.Accuracy = acc
	inClique := map[model.SourceID]bool{}
	for _, s := range clique {
		inClique[s] = true
	}
	cfg.Dependence = func(a, b model.SourceID) float64 {
		if inClique[a] && inClique[b] {
			return 0.9
		}
		return 0
	}
	return d, cfg
}

func goldenQueries(d *dataset.Dataset) map[string][]model.ObjectID {
	objs := d.Objects()
	half := objs[:len(objs)/2]
	dup := append(append([]model.ObjectID{}, objs[3], objs[3], objs[7]), objs[3])
	missing := append(append([]model.ObjectID{}, objs[:5]...), model.Obj("ghost", "v"))
	return map[string][]model.ObjectID{
		"all":     objs,
		"half":    half,
		"dups":    dup,
		"missing": missing,
	}
}

func TestAnswerCompiledMatchesMaps(t *testing.T) {
	for _, seed := range []int64{5, 21, 99} {
		d, base := goldenQueryWorld(t, seed)
		for qname, query := range goldenQueries(d) {
			for _, pol := range []Policy{GreedyGain, AccuracyCoverage, ByID} {
				for _, variant := range []struct {
					name string
					mut  func(*Config)
				}{
					{"plain", func(c *Config) {}},
					{"stop", func(c *Config) { c.StopProb = 0.6 }},
					{"cap", func(c *Config) { c.MaxSources = 3 }},
					{"nodep", func(c *Config) { c.Dependence = nil }},
				} {
					cfg := base
					cfg.Policy = pol
					variant.mut(&cfg)
					want, err := answerObjectsMaps(d, query, cfg)
					if err != nil {
						t.Fatal(err)
					}
					got, err := AnswerObjects(d, query, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d query %q policy %v variant %q: compiled trace differs from map reference",
							seed, qname, pol, variant.name)
					}
				}
			}
		}
	}
}

// TestPlannerReuseMatchesOneShot pins that a Planner answering many queries
// returns the same traces as fresh one-shot AnswerObjects calls.
func TestPlannerReuseMatchesOneShot(t *testing.T) {
	d, cfg := goldenQueryWorld(t, 7)
	p, err := NewPlanner(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for qname, query := range goldenQueries(d) {
		want, err := AnswerObjects(d, query, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Answer(query)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %q: planner reuse differs from one-shot answer", qname)
		}
	}
}
