package queryans

import (
	"testing"

	"sourcecurrents/internal/raceflag"
)

// plannerAnswerAllocs is the steady-state allocation count of one
// Planner.Answer call on the 48-source world (5-object query), measured on
// go1.24 at the commit before the benchmark-baseline guard was retired. The
// count is deterministic per build — scratch is pooled, so only the Result
// and its trace allocate — and must not creep: raise it only with a reason.
const plannerAnswerAllocs = 12

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
	if _, err := p.Answer(query); err != nil { // warm the scratch pool
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		if _, err := p.Answer(query); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Planner.Answer: %v allocs", n)
	if n > plannerAnswerAllocs {
		t.Fatalf("steady-state Planner.Answer allocates %v times, want <= %d", n, plannerAnswerAllocs)
	}
}
