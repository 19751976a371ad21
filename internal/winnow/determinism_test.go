package winnow

import (
	"reflect"
	"runtime"
	"testing"

	"sourcecurrents/internal/synth"
)

// Repeated-run determinism: fingerprinting walks map-backed snapshot views,
// so rebuild the world per run and require bit-identical pair lists at
// every worker count (GOMAXPROCS 1, 4, 16).

func TestDetectPairsDeterministicAcrossRunsAndParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []Pair
	for run := 0; run < 3; run++ {
		sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
			Seed:           11,
			NObjects:       60,
			IndependentAcc: []float64{0.9, 0.8, 0.7, 0.6},
			Copiers:        []synth.CopierSpec{{MasterIndex: 0, CopyRate: 0.9, OwnAcc: 0.7}},
			FalsePool:      4,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4, 16} {
			runtime.GOMAXPROCS(p)
			got, err := DetectPairs(sw.Dataset, DefaultConfig(), 0.1)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pair list differs across runs (GOMAXPROCS=%d)", p)
			}
		}
	}
}
