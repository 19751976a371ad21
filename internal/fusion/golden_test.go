package fusion

import (
	"reflect"
	"runtime"
	"testing"

	"sourcecurrents/internal/dataset"
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
	for _, seed := range []int64{3, 41} {
		d := goldenWorld(t, seed)
		for _, st := range []Strategy{KeepFirst, Majority, Weighted, DependenceAware} {
			for _, minProb := range []float64{0, 0.2} {
				cfg := DefaultConfig()
				cfg.Strategy = st
				cfg.MinProb = minProb
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
						t.Fatalf("seed %d strategy %v minProb %v: compiled Fuse at GOMAXPROCS=%d differs from map reference",
							seed, st, minProb, p)
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
	got, err := FuseWith(d, cfg, want.Depen)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("FuseWith differs from Fuse on the same precompute")
	}
	if _, err := FuseWith(d, Config{Strategy: Majority}, want.Depen); err == nil {
		t.Fatal("FuseWith accepted a non-DependenceAware strategy")
	}
	if _, err := FuseWith(d, cfg, nil); err == nil {
		t.Fatal("FuseWith accepted a nil dependence result")
	}
}
