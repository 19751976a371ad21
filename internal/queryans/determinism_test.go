package queryans

import (
	"reflect"
	"testing"
)

// Repeated runs produce bit-identical traces (the planner runs on the calling
// goroutine, so there is no worker count to vary). The dataset is
// rebuilt per run so Go's randomized map iteration order gets a fresh
// chance to leak into the output if any path forgets to canonicalize.

// The name is historical: the planner runs on the calling goroutine, so this
// checks run-to-run determinism only.
func TestAnswerDeterministicAcrossRunsAndParallelism(t *testing.T) {
	for _, seed := range []int64{5, 21} {
		var want *Result
		for run := 0; run < 3; run++ {
			d, cfg := goldenQueryWorld(t, seed)
			got, err := AnswerObjects(d, d.Objects(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: trace differs across runs (run %d)", seed, run)
			}
		}
	}
}
