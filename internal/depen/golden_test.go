package depen

import (
	"reflect"
	"runtime"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/synth"
	"sourcecurrents/internal/truth"
)

// Golden equivalence: Detect (compiled columnar path) must be bit-identical
// — reflect.DeepEqual over the whole Result, including the internal
// directional-probability table — to detectMaps (the map-based reference),
// across plain, ValueSim, and Known-label configurations, at every worker
// count.

func goldenSim(a, b string) float64 {
	if a == b {
		return 1
	}
	if len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		return 0.4
	}
	return 0
}

func goldenSnapshot(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
		Seed:           seed,
		NObjects:       50,
		IndependentAcc: []float64{0.9, 0.8, 0.7, 0.6, 0.85, 0.75},
		Copiers: []synth.CopierSpec{
			{MasterIndex: 0, CopyRate: 0.85, OwnAcc: 0.7},
			{MasterIndex: 2, CopyRate: 0.6, OwnAcc: 0.65},
			{MasterIndex: 4, CopyRate: 0.95, OwnAcc: 0.5},
		},
		FalsePool: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sw.Dataset
}

func goldenConfigs(d *dataset.Dataset) map[string]Config {
	objs := d.Objects()
	plain := DefaultConfig()
	sim := DefaultConfig()
	sim.Truth.ValueSim = goldenSim
	sim.Truth.ValueSimWeight = 0.3
	lab := DefaultConfig()
	lab.Truth.Known = map[model.ObjectID]string{
		objs[0]: "T0",
		objs[1]: "A_unseen",
		objs[2]: "zzz_unseen",
	}
	both := sim
	both.Truth.Known = lab.Truth.Known
	both.Truth.KnownConfidence = 0.95
	return map[string]Config{"plain": plain, "valuesim": sim, "known": lab, "sim+known": both}
}

func TestDetectCompiledMatchesMaps(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, seed := range []int64{5, 23, 131} {
		d := goldenSnapshot(t, seed)
		for name, cfg := range goldenConfigs(d) {
			want, err := detectMaps(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 4, 16} {
				runtime.GOMAXPROCS(p)
				got, err := Detect(d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, cfg %q: compiled Detect at GOMAXPROCS=%d differs from map reference", seed, name, p)
				}
			}
		}
	}
}

// TestDetectCompiledTruthChosenCanonical pins the shared tie-break helper:
// the compiled detector's Chosen must match re-deriving it from Probs with
// truth.Result.PickChosen.
func TestDetectCompiledTruthChosenCanonical(t *testing.T) {
	d := goldenSnapshot(t, 7)
	res, err := Detect(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	re := &truth.Result{Probs: res.Truth.Probs}
	re.PickChosen()
	if !reflect.DeepEqual(re.Chosen, res.Truth.Chosen) {
		t.Fatal("Detect's Chosen differs from truth.Result.PickChosen over the same Probs")
	}
}
