package queryans

import (
	"testing"

	"sourcecurrents/internal/model"
	"sourcecurrents/internal/raceflag"
)

// Steady-state allocation counts of one planner call on the 48-source world
// (5-object query). Scratch is pooled, so the counts are deterministic per
// build and must not creep: raise one only with a reason.
const (
	// The Result, the Step slice, the maxProbes × len(query) Answer backing
	// array the steps (and Final) slice, and Probed.
	plannerAnswerAllocs = 4
	// The Result, Final (len(query) answers) and Probed — and nothing of the
	// trace, in particular not its backing array. The same whether the
	// answers come from the per-object memo or from the fold.
	plannerFinalAllocs = 3
)

func TestPlannerAnswerAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops scratch under -race; counts are not deterministic")
	}
	d, cfg := benchWorld(t, 48)
	p, err := NewPlanner(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	query := d.Objects()[:5]
	for _, tc := range []struct {
		name string
		call func([]model.ObjectID) (*Result, error)
		max  float64
	}{
		{"Answer", p.Answer, plannerAnswerAllocs},
		{"Final", p.Final, plannerFinalAllocs},
		{"Final (memo-less)", memoless(p).Final, plannerFinalAllocs},
	} {
		if _, err := tc.call(query); err != nil { // warm the scratch pool (and Final's memo)
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(50, func() {
			if _, err := tc.call(query); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Planner.%s: %v allocs", tc.name, n)
		if n > tc.max {
			t.Fatalf("steady-state Planner.%s allocates %v times, want <= %v", tc.name, n, tc.max)
		}
	}
	// What "Final" timed above were memo hits.
	for _, o := range query {
		if oi, _ := d.Compiled().ObjectIndex(o); p.final[oi].Load() == nil {
			t.Fatalf("%v is not memoized after a plan that probed every candidate", o)
		}
	}
}
