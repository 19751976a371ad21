package truth

import (
	"reflect"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/synth"
)

// Accu runs on the calling goroutine (its loops lost to the inline loop on
// two cores: README, "The parallel execution engine"), so what is left of the
// worker-count contract is run-to-run determinism. These tests pin it on
// randomized synthetic worlds, including tie-breaking of chosen values.

func snapshotWorld(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
		Seed:           seed,
		NObjects:       120,
		IndependentAcc: []float64{0.95, 0.85, 0.75, 0.65, 0.55},
		Copiers: []synth.CopierSpec{
			{MasterIndex: 1, CopyRate: 0.9, OwnAcc: 0.6},
			{MasterIndex: 3, CopyRate: 0.7, OwnAcc: 0.8},
		},
		FalsePool: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sw.Dataset
}

// The name is historical: Accu runs on the calling goroutine, so this
// checks run-to-run determinism only.
func TestAccuParallelismInvariant(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		d := snapshotWorld(t, seed)
		var want *Result
		for run := 0; run < 3; run++ {
			got, err := Accu(d, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Accu result of run %d differs from the first", seed, run)
			}
		}
	}
}

// The name is historical: Accu runs on the calling goroutine, so this
// checks run-to-run determinism only.
func TestAccuParallelismInvariantWithSimilarityAndLabels(t *testing.T) {
	d := snapshotWorld(t, 3)
	sim := func(a, b string) float64 {
		if len(a) > 0 && len(b) > 0 && a[0] == b[0] {
			return 0.3
		}
		return 0
	}
	known := map[model.ObjectID]string{
		model.Obj("o00000", "v"): "T0",
		model.Obj("o00007", "v"): "T7",
	}
	var want *Result
	for run := 0; run < 3; run++ {
		cfg := DefaultConfig()
		cfg.ValueSim = sim
		cfg.ValueSimWeight = 0.2
		cfg.Known = known
		got, err := Accu(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		// ValueSim is a func field; compare the data fields.
		if !reflect.DeepEqual(got.Probs, want.Probs) ||
			!reflect.DeepEqual(got.Chosen, want.Chosen) ||
			!reflect.DeepEqual(got.Accuracy, want.Accuracy) ||
			got.Rounds != want.Rounds || got.Converged != want.Converged {
			t.Fatalf("similarity run %d differs from the first", run)
		}
	}
}

// The name is historical: Accu runs on the calling goroutine, so this
// checks run-to-run determinism only.
func TestChosenTieBreakParallelismInvariant(t *testing.T) {
	// Two exactly balanced candidate values per object: the chosen value is
	// decided purely by the deterministic tie-break (smaller string).
	d := dataset.New()
	for i := 0; i < 40; i++ {
		o := model.Obj(string(rune('a'+i%26))+"obj", "v")
		if err := d.Add(model.NewClaim("S1", o, "beta")); err != nil {
			t.Fatal(err)
		}
		if err := d.Add(model.NewClaim("S2", o, "alpha")); err != nil {
			t.Fatal(err)
		}
	}
	d.Freeze()
	var want map[model.ObjectID]string
	for run := 0; run < 3; run++ {
		res, err := Accu(d, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for o, v := range res.Chosen {
			if v != "alpha" {
				t.Fatalf("tie not broken toward smaller string for %v: got %q", o, v)
			}
		}
		if want == nil {
			want = res.Chosen
			continue
		}
		if !reflect.DeepEqual(res.Chosen, want) {
			t.Fatalf("tie-broken Chosen of run %d differs from the first", run)
		}
	}
}
