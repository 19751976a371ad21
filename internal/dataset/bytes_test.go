package dataset_test

import (
	"runtime"
	"slices"
	"testing"

	"sourcecurrents/internal/model"
	"sourcecurrents/internal/raceflag"
	"sourcecurrents/internal/synth"
)

// TestDatasetAppendBytes holds what one chained append allocates on the mid
// shape (100 independents + 10 copiers × 400 objects, 44 000 claims): a
// 220-claim source-major batch that names nothing new, onto a dataset that
// stands at the tip of its log. Copying the claim log and laying every column
// out afresh it was 7.7 MB; extending the log and the id columns where they
// lie it is the six columns that rows are spliced into (176 KB each) and
// what the batch's own rows need — and no []model.Claim at all, which alone
// would be 3.9 MB. The median is 1.32 MB; the ceiling is a tenth above it.
func TestDatasetAppendBytes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation sizes differ under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	accs := make([]float64, 100)
	for i := range accs {
		accs[i] = 0.55 + 0.4*float64(i%9)/8
	}
	var copiers []synth.CopierSpec
	for i := 0; i < 10; i++ {
		copiers = append(copiers, synth.CopierSpec{MasterIndex: i, CopyRate: 0.8, OwnAcc: 0.6})
	}
	sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{Seed: 7, NObjects: 400, IndependentAcc: accs, Copiers: copiers, FalsePool: 5})
	if err != nil {
		t.Fatal(err)
	}
	d := sw.Dataset
	srcs, objs := d.Sources(), d.Objects()
	batch := func(i int) []model.Claim {
		var out []model.Claim
		for k := 0; k < 2; k++ {
			for j := 0; j < 110; j++ {
				o := objs[(37*i+200*k+j)%len(objs)]
				v, _ := d.Value(srcs[0], o)
				out = append(out, model.NewClaim(srcs[(3+i+55*k)%len(srcs)], o, v))
			}
		}
		return out
	}
	// The first append copies the flat dataset's claims into a log with room.
	if d, err = d.Append(batch(0)); err != nil {
		t.Fatal(err)
	}
	const ceiling = 1.45e6
	deltas := make([]uint64, 5)
	for i := range deltas {
		b := batch(i + 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		next, err := d.Append(b)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if &next.Claims()[0] != &d.Claims()[0] {
			t.Fatalf("append %d copied the claim log", i+1)
		}
		deltas[i], d = after.TotalAlloc-before.TotalAlloc, next
	}
	slices.Sort(deltas)
	if got := deltas[2]; float64(got) > ceiling {
		t.Errorf("a chained append allocated %d bytes (median of %v), ceiling %.0f", got, deltas, ceiling)
	} else {
		t.Logf("a chained append allocated %d bytes (ceiling %.0f)", got, ceiling)
	}
}
