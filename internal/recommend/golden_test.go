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

// Golden equivalence: BuildProfiles (one pass over the state's pair records)
// must be bit-identical — reflect.DeepEqual, no tolerance — to
// buildProfilesMaps (the map-based reference), with and without a dependence
// result and temporal reports, on worlds with unanalysed pairs and on an
// appended chain's state.

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
	cfg := depen.DefaultConfig()
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
		// The same world with C1 down to one claim: each of its pairs shares
		// one object, below MinShared, so its cells are never analysed.
		var kept []model.Claim
		for _, cl := range d.Claims() {
			if cl.Source != "C1" || cl.Object == d.Objects()[0] {
				kept = append(kept, cl)
			}
		}
		sparse, err := dataset.FromClaims(kept)
		if err != nil {
			t.Fatal(err)
		}
		sparseRes, err := depen.Detect(sparse, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(sparse.Sources()); len(sparseRes.AllPairs) >= n*(n-1)/2 {
			t.Fatal("the sparse world was meant to leave pairs unanalysed")
		}
		// An appended chain's state: a source that sorts first (every index
		// shifts) speaks on one object, and I3 re-claims ten.
		batch := []model.Claim{model.NewClaim("A-first", d.Objects()[3], "T3")}
		for _, o := range d.Objects()[:10] {
			batch = append(batch, model.NewClaim("I3", o, "F-moved"))
		}
		d2, err := d.Append(batch)
		if err != nil {
			t.Fatal(err)
		}
		st2, err := depen.Solve(d2, dres.State(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, tc := range map[string]struct {
			d   *dataset.Dataset
			dep *depen.Result
			rep map[model.SourceID]*temporal.SourceReport
		}{
			"plain":       {d, nil, nil},
			"dep":         {d, dres, nil},
			"dep+reports": {d, dres, reports},
			"sparse":      {sparse, sparseRes, nil},
			"appended":    {d2, st2.Result(cfg), reports},
		} {
			want := buildProfilesMaps(tc.d, tc.dep, tc.rep)
			if got := BuildProfiles(tc.d, tc.dep.State(), tc.rep); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d case %q: compiled profiles differ from map reference", seed, name)
			}
		}
	}
}
