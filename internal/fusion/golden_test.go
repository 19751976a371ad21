package fusion

import (
	"reflect"
	"runtime"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/synth"
)

// Golden equivalence: Fuse (compiled resolution) must be
// bit-identical — reflect.DeepEqual, no tolerance — to fuseMaps (the
// map-based reference) across every strategy and worker count, and
// FuseWith must reproduce Fuse when handed the same precompute.

func goldenWorld(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
		Seed:           seed,
		NObjects:       50,
		IndependentAcc: []float64{0.9, 0.8, 0.7, 0.6, 0.85},
		Copiers: []synth.CopierSpec{
			{MasterIndex: 0, CopyRate: 0.85, OwnAcc: 0.7},
			{MasterIndex: 2, CopyRate: 0.6, OwnAcc: 0.65},
		},
		FalsePool: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sw.Dataset
}

func TestFuseCompiledMatchesMaps(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// S1 and S2 are symmetric, so o1's "a" and "b" tie to the bit and the
	// first in sorted order must be chosen.
	o1, o2 := model.Obj("o1", "v"), model.Obj("o2", "v")
	tie, err := dataset.FromClaims([]model.Claim{
		model.NewClaim("S1", o1, "a"), model.NewClaim("S2", o1, "b"),
		model.NewClaim("S1", o2, "x"), model.NewClaim("S2", o2, "x"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*dataset.Dataset{"seed 3": goldenWorld(t, 3), "seed 41": goldenWorld(t, 41), "tie": tie} {
		objs := d.Objects()
		observed, _ := d.Value(d.Sources()[0], objs[0])
		// One label on an observed value, and one on a value nobody asserts,
		// which sorts between the world's F… and T… values: the posterior
		// carries it at that position.
		known := map[model.ObjectID]string{objs[0]: observed, objs[1]: "G-unasserted"}
		for _, labels := range []map[model.ObjectID]string{nil, known} {
			for _, st := range []Strategy{KeepFirst, Majority, Weighted, DependenceAware} {
				for _, minProb := range []float64{0, 0.2} {
					cfg := DefaultConfig()
					cfg.Strategy = st
					cfg.MinProb = minProb
					cfg.Truth.Known, cfg.Depen.Truth.Known = labels, labels
					want, err := fuseMaps(d, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range []int{1, 4, 16} {
						runtime.GOMAXPROCS(p)
						got, err := Fuse(d, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s strategy %v minProb %v labels %v: compiled Fuse at GOMAXPROCS=%d differs from map reference",
								name, st, minProb, labels, p)
						}
					}
				}
			}
		}
	}
}

func TestFuseWithMatchesFuse(t *testing.T) {
	d := goldenWorld(t, 7)
	cfg := DefaultConfig()
	want, err := Fuse(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FuseWith(d, cfg, want.Depen.State())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Chosen, want.Chosen) || !reflect.DeepEqual(got.Relation, want.Relation) ||
		got.Strategy != want.Strategy {
		t.Fatal("FuseWith differs from Fuse on the same precompute")
	}
	if got.Truth != nil || got.Depen != nil {
		t.Fatal("FuseWith built a view of the state")
	}
	if _, err := FuseWith(d, Config{Strategy: Majority}, want.Depen.State()); err == nil {
		t.Fatal("FuseWith accepted a non-DependenceAware strategy")
	}
	if _, err := FuseWith(d, cfg, nil); err == nil {
		t.Fatal("FuseWith accepted a nil dependence state")
	}
}
