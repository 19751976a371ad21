package depen

import (
	"reflect"
	"runtime"
	"testing"

	"sourcecurrents/internal/synth"
)

// The engine contract: Detect's output — pairwise posteriors, copy-aware
// truth, accuracies, directional probabilities — is bit-identical at every
// worker count (GOMAXPROCS 1, 4, 16).

func TestDetectParallelismInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, seed := range []int64{2, 11, 101} {
		sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
			Seed:           seed,
			NObjects:       80,
			IndependentAcc: []float64{0.9, 0.8, 0.7, 0.6, 0.85, 0.75},
			Copiers: []synth.CopierSpec{
				{MasterIndex: 0, CopyRate: 0.85, OwnAcc: 0.7},
				{MasterIndex: 2, CopyRate: 0.6, OwnAcc: 0.65},
				{MasterIndex: 4, CopyRate: 0.95, OwnAcc: 0.5},
			},
			FalsePool: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		var want *Result
		for _, p := range []int{1, 4, 16} {
			runtime.GOMAXPROCS(p)
			got, err := Detect(sw.Dataset, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			// DeepEqual covers Truth (probs, chosen incl. tie-breaks,
			// accuracies), AllPairs/Dependences ordering, and the internal
			// directional map.
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Detect result at GOMAXPROCS=%d differs from sequential", seed, p)
			}
		}
	}
}

func TestDetectParallelismInvariantWithSimilarity(t *testing.T) {
	sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
		Seed:           5,
		NObjects:       60,
		IndependentAcc: []float64{0.9, 0.7, 0.8},
		Copiers:        []synth.CopierSpec{{MasterIndex: 0, CopyRate: 0.8, OwnAcc: 0.6}},
		FalsePool:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim := func(a, b string) float64 {
		if len(a) > 1 && len(b) > 1 && a[:2] == b[:2] {
			return 0.4
		}
		return 0
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want *Result
	for _, p := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(p)
		cfg := DefaultConfig()
		cfg.Truth.ValueSim = sim
		cfg.Truth.ValueSimWeight = 0.25
		got, err := Detect(sw.Dataset, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got.AllPairs, want.AllPairs) ||
			!reflect.DeepEqual(got.Dependences, want.Dependences) ||
			!reflect.DeepEqual(got.Truth.Probs, want.Truth.Probs) ||
			!reflect.DeepEqual(got.Truth.Chosen, want.Truth.Chosen) ||
			!reflect.DeepEqual(got.Truth.Accuracy, want.Truth.Accuracy) ||
			got.Rounds != want.Rounds || got.Converged != want.Converged {
			t.Fatalf("similarity run at GOMAXPROCS=%d differs from sequential", p)
		}
	}
}
