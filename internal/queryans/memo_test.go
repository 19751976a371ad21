package queryans

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sourcecurrents/internal/model"
)

// The per-object answer memo (see the package comment) against the fold it
// replaces. One planner per seed and dependence form is warmed by queries in
// shuffled orders — repeated objects and objects absent from the dataset
// included — under every policy that chooses, probe cap and early stop its
// derived planners share the memo under, and every Final is held bit for bit
// to the trace's final and to a memo-less planner's. A plan that does not
// probe every candidate, the trace, a StopProb plan and a NaN-accuracy
// planner must leave the memo as they found it; a planner derived under
// another N or CopyRate must fold for itself.

// memoless is p without its memo: a planner that folds every plan.
func memoless(p *Planner) *Planner {
	q := *p
	q.final = nil
	return &q
}

// memoState copies the memo's entries, to show a plan left them alone.
func memoState(p *Planner) []*Answer {
	out := make([]*Answer, len(p.final))
	for i := range p.final {
		out[i] = p.final[i].Load()
	}
	return out
}

// candidateCount is the number of sources claiming some object of q — what a
// plan must probe to be one the memo answers.
func candidateCount(p *Planner, q []model.ObjectID) int {
	c, n := p.c, 0
	for si := 0; si < c.NumSources(); si++ {
		for _, o := range q {
			if oi, ok := c.ObjectIndex(o); ok && c.ClaimOf(int32(si), oi) >= 0 {
				n++
				break
			}
		}
	}
	return n
}

// memoQueries draws n queries over objs: all of them in a shuffled order,
// then random queries of one to six objects with repeats and absent objects
// mixed in.
func memoQueries(objs []model.ObjectID, rng *rand.Rand, n int) [][]model.ObjectID {
	ghosts := []model.ObjectID{model.Obj("ghost", "v"), model.Obj("ghost2", "v")}
	all := append([]model.ObjectID(nil), objs...)
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	queries := [][]model.ObjectID{all}
	for len(queries) < n {
		q := make([]model.ObjectID, 1+rng.Intn(6))
		for i := range q {
			switch rng.Intn(8) {
			case 0:
				q[i] = ghosts[rng.Intn(len(ghosts))]
			case 1:
				if i > 0 {
					q[i] = q[rng.Intn(i)]
					continue
				}
				fallthrough
			default:
				q[i] = objs[rng.Intn(len(objs))]
			}
		}
		queries = append(queries, q)
	}
	return queries
}

func TestFinalMemoMatchesFold(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if !testing.Short() {
		seeds = []int64{1, 2, 3, 4, 5, 6}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			d, accOf := finalWorld(t, seed, rng)
			objs, n := d.Objects(), d.Compiled().NumSources()
			for depName, base := range finalPlanners(t, d, accOf, rng) {
				queries := memoQueries(objs, rng, 24)
				type variant struct {
					cfg Config
					p   *Planner
				}
				var variants []variant
				for _, pol := range []Policy{GreedyGain, AccuracyCoverage} {
					for _, maxSrc := range []int{0, 1, n / 2} {
						for _, stop := range []float64{0, 0.9} {
							cfg := DefaultConfig()
							cfg.Policy, cfg.MaxSources, cfg.StopProb = pol, maxSrc, stop
							p, err := base.Derive(cfg)
							if err != nil {
								t.Fatal(err)
							}
							variants = append(variants, variant{cfg, p})
						}
					}
				}
				// Every (variant, query) pair once, in a shuffled order, so
				// the memo is filled by whichever plan gets to an object
				// first and read by everything after.
				order := rng.Perm(len(variants) * len(queries))
				for _, k := range order {
					v, q := variants[k/len(queries)], queries[k%len(queries)]
					where := fmt.Sprintf("dep=%s policy=%v max=%d stop=%v query=%v",
						depName, v.cfg.Policy, v.cfg.MaxSources, v.cfg.StopProb, q)
					before := memoState(base)
					trace, err := v.p.Answer(q)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(memoState(base), before) {
						t.Fatalf("%s: the trace wrote the memo", where)
					}
					got, err := v.p.Final(q)
					if err != nil {
						t.Fatal(err)
					}
					want, err := memoless(v.p).Final(q)
					if err != nil {
						t.Fatal(err)
					}
					assertSameFinal(t, got, trace, where+" (vs the trace)")
					assertSameFinal(t, got, want, where+" (vs the memo-less fold)")
					after := memoState(base)
					if v.cfg.StopProb > 0 || len(got.Probed) < candidateCount(base, q) {
						if !reflect.DeepEqual(after, before) {
							t.Fatalf("%s: a plan that probed %d of %d candidates (stop=%v) wrote the memo",
								where, len(got.Probed), candidateCount(base, q), v.cfg.StopProb)
						}
						continue
					}
					for _, o := range q {
						if oi, ok := d.Compiled().ObjectIndex(o); ok && after[oi] == nil {
							t.Fatalf("%s: a plan that probed every candidate left %v out of the memo", where, o)
						}
					}
				}
				// Derived under another N or CopyRate, the fold differs: such a
				// planner must not read the warmed memo.
				for _, mut := range []func(*Config){
					func(c *Config) { c.N = 7 },
					func(c *Config) { c.CopyRate = 0.5 },
				} {
					cfg := DefaultConfig()
					mut(&cfg)
					p, err := base.Derive(cfg)
					if err != nil {
						t.Fatal(err)
					}
					// Derived back to the base's config it still has none:
					// BenchmarkPlanWide's final_memoless is built this way.
					back, err := p.Derive(DefaultConfig())
					if err != nil {
						t.Fatal(err)
					}
					if p.final != nil || back.final != nil {
						t.Fatalf("dep=%s N=%d CopyRate=%v: a memo survived a Derive that changed the fold (there: %v, back: %v)",
							depName, cfg.N, cfg.CopyRate, p.final != nil, back.final != nil)
					}
					for _, q := range queries {
						where := fmt.Sprintf("dep=%s N=%d CopyRate=%v query=%v", depName, cfg.N, cfg.CopyRate, q)
						trace, err := p.Answer(q)
						if err != nil {
							t.Fatal(err)
						}
						got, err := p.Final(q)
						if err != nil {
							t.Fatal(err)
						}
						assertSameFinal(t, got, trace, where)
					}
				}
			}
		})
	}
}

// TestFinalMemoSkipsNaNAccuracy pins that a planner with a NaN accuracy —
// whose rank sort then depends on which other sources a query brings in —
// and everything derived from it carry no memo.
func TestFinalMemoSkipsNaNAccuracy(t *testing.T) {
	d, cfg := benchWorld(t, 12)
	cfg.Accuracy[model.SourceID("S003")] = math.NaN()
	p, err := NewPlanner(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	derived, err := p.Derive(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range []*Planner{p, derived} {
		if pl.final != nil {
			t.Fatal("a planner with a NaN accuracy has a memo")
		}
		for _, q := range [][]model.ObjectID{d.Objects(), d.Objects()[:3]} {
			trace, err := pl.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pl.Final(q)
			if err != nil {
				t.Fatal(err)
			}
			assertSameFinal(t, got, trace, "NaN accuracy")
		}
	}
}

// TestFinalMemoConcurrentFill runs overlapping queries from several
// goroutines against one fresh planner, so plans race to publish the same
// objects; every result must equal the memo-less fold. Run it under -race.
func TestFinalMemoConcurrentFill(t *testing.T) {
	d, cfg := benchWorld(t, 24)
	p, err := NewPlanner(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	queries := memoQueries(d.Objects()[:12], rng, 40)
	want := make([]*Result, len(queries))
	for i, q := range queries {
		if want[i], err = memoless(p).Final(q); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		order := rng.Perm(len(queries))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range order {
				got, err := p.Final(queries[i])
				if err == nil && !reflect.DeepEqual(got, want[i]) {
					err = fmt.Errorf("query %v: %+v, the memo-less fold gives %+v", queries[i], got.Final, want[i].Final)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
