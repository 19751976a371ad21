package recommend

import (
	"reflect"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/synth"
	"sourcecurrents/internal/temporal"
)

// Golden equivalence: BuildProfiles (compiled dense copy-probability
// table) must be bit-identical — reflect.DeepEqual, no tolerance — to
// buildProfilesMaps (the map-based reference), with and without a dependence
// result and temporal reports.

func goldenProfileWorld(t *testing.T, seed int64) (*dataset.Dataset, *depen.Result) {
	t.Helper()
	sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
		Seed:           seed,
		NObjects:       50,
		IndependentAcc: []float64{0.9, 0.8, 0.7, 0.6, 0.85, 0.75},
		Copiers: []synth.CopierSpec{
			{MasterIndex: 0, CopyRate: 0.85, OwnAcc: 0.7},
			{MasterIndex: 2, CopyRate: 0.6, OwnAcc: 0.65},
		},
		FalsePool: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	dres, err := depen.Detect(sw.Dataset, depen.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sw.Dataset, dres
}

func TestBuildProfilesCompiledMatchesMaps(t *testing.T) {
	for _, seed := range []int64{3, 41} {
		d, dres := goldenProfileWorld(t, seed)
		reports := map[model.SourceID]*temporal.SourceReport{
			d.Sources()[0]: {Metrics: temporal.Metrics{
				Source: d.Sources()[0], Coverage: 0.8, Exactness: 0.9, MeanLag: 1.5, Periods: 10,
			}},
			d.Sources()[2]: {Metrics: temporal.Metrics{
				Source: d.Sources()[2], Exactness: 0.7, MeanLag: 3, Periods: 0,
			}},
		}
		for name, tc := range map[string]struct {
			dep *depen.Result
			rep map[model.SourceID]*temporal.SourceReport
		}{
			"plain":       {nil, nil},
			"dep":         {dres, nil},
			"dep+reports": {dres, reports},
		} {
			want := buildProfilesMaps(d, tc.dep, tc.rep)
			if got := BuildProfiles(d, tc.dep, tc.rep); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d case %q: compiled profiles differ from map reference", seed, name)
			}
		}
	}
}
