package truth

import (
	"reflect"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/synth"
)

// Golden equivalence: Accu (compiled columnar path) must be bit-identical —
// reflect.DeepEqual, no tolerance — to accuMaps (the map-based reference)
// on seeded random worlds, across plain, ValueSim, and Known-label
// configurations.

// goldenSim is a stateless (hence concurrency-safe) value similarity:
// values sharing a first byte ("F12_0" vs "F12_3") leak partial support.
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
		NObjects:       60,
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

// goldenConfigs returns the configuration matrix the equivalence tests
// cover, including the similarity extension and semi-supervised labels
// (one observed, one unobserved that sorts before every candidate, one
// unobserved that sorts after).
func goldenConfigs(d *dataset.Dataset) map[string]Config {
	objs := d.Objects()
	known := map[model.ObjectID]string{
		objs[0]:                 "T0",         // observed candidate
		objs[1]:                 "A_unseen",   // unobserved, sorts first
		objs[2]:                 "zzz_unseen", // unobserved, sorts last
		model.Obj("ghost", "v"): "T9",         // label for an absent object
	}
	plain := DefaultConfig()
	sim := DefaultConfig()
	sim.ValueSim = goldenSim
	sim.ValueSimWeight = 0.3
	lab := DefaultConfig()
	lab.Known = known
	both := DefaultConfig()
	both.ValueSim = goldenSim
	both.ValueSimWeight = 0.3
	both.Known = known
	both.KnownConfidence = 0.95
	return map[string]Config{"plain": plain, "valuesim": sim, "known": lab, "sim+known": both}
}

func TestAccuCompiledMatchesMaps(t *testing.T) {
	for _, seed := range []int64{3, 17, 209} {
		d := goldenSnapshot(t, seed)
		for name, cfg := range goldenConfigs(d) {
			want, err := accuMaps(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Accu(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, cfg %q: compiled Accu differs from map reference", seed, name)
			}
		}
	}
}
