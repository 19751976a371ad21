package session

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sourcecurrents/internal/queryans"
	"sourcecurrents/internal/raceflag"
)

// The allocation counts of the zero-alloc paths are deterministic per
// build, so they are asserted in tier-1 rather than watched by a benchmark
// baseline: a retained-epoch AsOf is a spine lookup that allocates nothing,
// a served answer allocates what it returns and not its trace, and opening
// a snapshot file of the 500-source acceptance world — which builds the
// dataset over the stored interning tables and claim log, a few allocations
// per table it lays out and none per claim or string, and no index map, the
// tables being binary-searched — stays within a tenth of the 73 allocations
// it was measured at.
func TestServePathAllocs(t *testing.T) {
	base := benchWorld(t)

	t.Run("retained AsOf", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.RetainEpochs = -1
		cur, err := New(base.Dataset(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 4; i++ {
			if cur, err = cur.Append(randomBatch(rng, cur.Dataset(), i)); err != nil {
				t.Fatal(err)
			}
		}
		epoch := 0
		if n := testing.AllocsPerRun(100, func() {
			if _, err := cur.AsOf(epoch % 5); err != nil {
				t.Fatal(err)
			}
			epoch++
		}); n != 0 {
			t.Fatalf("retained AsOf allocates %v times per call, want 0", n)
		}
	})

	// The serving answer on the 550-source world: the Result, Final and
	// Probed (queryans.TestPlannerAnswerAllocs) — and nothing that grows with
	// probes × query, which is the trace's and only TraceObjects pays. A
	// per-call configuration adds the derived planner.
	t.Run("answer", func(t *testing.T) {
		if raceflag.Enabled {
			t.Skip("sync.Pool drops scratch under -race; counts are not deterministic")
		}
		q := base.Dataset().Objects()[:5]
		for _, tc := range []struct {
			name string
			call func() (*queryans.Result, error)
			max  float64
		}{
			{"AnswerObjects", func() (*queryans.Result, error) { return base.AnswerObjects(q) }, 3},
			{"AnswerObjectsWith", func() (*queryans.Result, error) { return base.AnswerObjectsWith(q, base.QueryConfig()) }, 4},
		} {
			if n := testing.AllocsPerRun(20, func() {
				if _, err := tc.call(); err != nil {
					t.Fatal(err)
				}
			}); n > tc.max {
				t.Fatalf("%s allocates %v times per call, want <= %v", tc.name, n, tc.max)
			}
		}
	})

	t.Run("v2 snapshot load", func(t *testing.T) {
		var buf bytes.Buffer
		if err := base.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "world.scs2")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		if n := testing.AllocsPerRun(10, func() {
			if _, err := LoadSnapshotFile(path, cfg); err != nil {
				t.Fatal(err)
			}
		}); n > 80 {
			t.Fatalf("snapshot load allocates %v times, want <= 80 (measured: 73)", n)
		} else {
			t.Logf("snapshot load: %v allocs", n)
		}
	})
}
