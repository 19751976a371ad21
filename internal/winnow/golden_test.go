package winnow

import (
	"reflect"
	"runtime"
	"testing"

	"sourcecurrents/internal/synth"
)

// Golden equivalence: DetectPairs (compiled parallel path) must be
// bit-identical — reflect.DeepEqual, no tolerance — to detectPairsMaps (the
// map-based reference) at every worker count and threshold.

func TestDetectPairsCompiledMatchesMaps(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, seed := range []int64{3, 41} {
		sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
			Seed:           seed,
			NObjects:       60,
			IndependentAcc: []float64{0.9, 0.8, 0.7, 0.6, 0.85, 0.75},
			Copiers: []synth.CopierSpec{
				{MasterIndex: 0, CopyRate: 0.9, OwnAcc: 0.7},
				{MasterIndex: 1, CopyRate: 0.7, OwnAcc: 0.65},
			},
			FalsePool: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		d := sw.Dataset
		for _, threshold := range []float64{0, 0.3, 0.9} {
			want := detectPairsMaps(d, DefaultConfig(), threshold)
			for _, p := range []int{1, 4, 16} {
				runtime.GOMAXPROCS(p)
				got, err := DetectPairs(d, DefaultConfig(), threshold)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d threshold %v: compiled pairs at GOMAXPROCS=%d differ from map reference",
						seed, threshold, p)
				}
			}
		}
	}
}
