package queryans

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/synth"
)

// Seeded differential suite for the trace-free call. Planner.Final selects
// the probes without scoring them and folds the probed claims once, in rank
// order; Planner.Answer scores after every probe. Both must end in the same
// place: each seed draws a world (ragged random coverage, a synth copier
// world, the full-coverage benchWorld, or — seeds above 12 — a world of 430+
// sources whose value groups hit every remainder of the bulk fold's
// four-at-a-time product) with a dense random dependence table, and every
// policy × probe cap × early stop × dependence form × query shape is
// answered both ways and compared bit for bit.
// The trace itself is pinned to the map oracle by the CompiledMatchesMaps
// suites. A failure names its seed; rerun it with -run 'FinalMatchesTrace/seed=N'.

// finalWorld draws one seed's dataset and per-source accuracies.
func finalWorld(t *testing.T, seed int64, rng *rand.Rand) (*dataset.Dataset, map[model.SourceID]float64) {
	t.Helper()
	acc := map[model.SourceID]float64{}
	if seed > 12 {
		// Wide groups. Object i's sources, in a random order, claim: the
		// first 401+i the true value (a group of 401..404 members, one per
		// remainder mod 4), the next 1, 2 and 3 three false ones (groups too
		// small for a block), the rest a fourth. Five accuracy levels, so
		// most ranks are decided by the id tie-break.
		d := dataset.New()
		nSrc := 430 + rng.Intn(8)
		for i := 0; i < 4; i++ {
			for k, s := range rng.Perm(nSrc) {
				v := "F4"
				switch rest := k - (401 + i); {
				case rest < 0:
					v = "T"
				case rest < 1:
					v = "F1"
				case rest < 3:
					v = "F2"
				case rest < 6:
					v = "F3"
				}
				id := model.SourceID(fmt.Sprintf("S%03d", s))
				acc[id] = 0.5 + 0.1*float64(s%5)
				_ = d.Add(model.NewClaim(id, model.Obj(fmt.Sprintf("o%d", i), "v"), v))
			}
		}
		d.Freeze()
		return d, acc
	}
	switch seed % 3 {
	case 0:
		// Full coverage, 40 objects: a whole-world query covers >= 32 slots
		// per probe, which is what sends the trace's refresh to goroutines.
		d, cfg := benchWorld(t, 8+rng.Intn(40))
		return d, cfg.Accuracy
	case 1:
		cfg := synth.SnapshotConfig{Seed: seed, NObjects: 6 + rng.Intn(30), FalsePool: 1 + rng.Intn(4)}
		for i, n := 0, 3+rng.Intn(30); i < n; i++ {
			cfg.IndependentAcc = append(cfg.IndependentAcc, 0.55+0.1*float64(rng.Intn(5)))
		}
		for i, n := 0, rng.Intn(6); i < n; i++ {
			cfg.Copiers = append(cfg.Copiers, synth.CopierSpec{
				MasterIndex: rng.Intn(len(cfg.IndependentAcc)), CopyRate: 0.8, OwnAcc: 0.6})
		}
		sw, err := synth.GenerateSnapshot(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range sw.Independents {
			acc[id] = cfg.IndependentAcc[i]
		}
		// Copiers are left to DefaultAccuracy.
		return sw.Dataset, acc
	}
	// Ragged: each source covers a random object window; accuracies collide
	// on a few levels so the (accuracy desc, id asc) tie-break decides ranks.
	d := dataset.New()
	nObj, nSrc := 6+rng.Intn(40), 2+rng.Intn(50)
	for s := 0; s < nSrc; s++ {
		id := model.SourceID(fmt.Sprintf("S%02d", s))
		if rng.Intn(3) > 0 {
			acc[id] = 0.5 + 0.1*float64(rng.Intn(5))
		} else {
			acc[id] = 0.05 + 0.9*rng.Float64()
		}
		lo := rng.Intn(nObj)
		for i, hi := lo, lo+1+rng.Intn(nObj); i < hi && i < nObj; i++ {
			v := fmt.Sprintf("T%d", i)
			if rng.Intn(3) == 0 {
				v = fmt.Sprintf("F%d_%d", i, rng.Intn(3))
			}
			_ = d.Add(model.NewClaim(id, model.Obj(fmt.Sprintf("o%02d", i), "v"), v))
		}
	}
	d.Freeze()
	return d, acc
}

// finalPlanners builds the three dependence forms over one world under a
// dense random table.
func finalPlanners(t *testing.T, d *dataset.Dataset, accOf map[model.SourceID]float64, rng *rand.Rand) map[string]*Planner {
	t.Helper()
	nS := d.Compiled().NumSources()
	// Symmetric and dense, with the exact endpoints mixed in: a 1 zeroes an
	// independence product (gain ties), a 0 is a factor of exactly 1.
	depTab := make([]float64, nS*nS)
	for a := 0; a < nS; a++ {
		for b := a + 1; b < nS; b++ {
			v := rng.Float64()
			switch rng.Intn(12) {
			case 0:
				v = 0
			case 1:
				v = 1
			}
			depTab[a*nS+b], depTab[b*nS+a] = v, v
		}
	}
	planners, _ := plannersOver(t, d, accOf, depTab)
	return planners
}

// plannersOver builds the three dependence forms over one world and one
// table: the dense table (what a session serves from), the same table behind
// the Dependence closure, and no dependence at all. It also returns the
// closure form's Config — what the map oracle takes.
func plannersOver(t *testing.T, d *dataset.Dataset, accOf map[model.SourceID]float64, depTab []float64) (map[string]*Planner, Config) {
	t.Helper()
	c := d.Compiled()
	nS := c.NumSources()
	cfg := DefaultConfig()
	acc := make([]float64, nS)
	index := map[model.SourceID]int{}
	for i := range acc {
		index[c.Source(i)] = i
		acc[i] = cfg.DefaultAccuracy
		if a, ok := accOf[c.Source(i)]; ok {
			acc[i] = a
		}
	}
	dense, err := NewPlannerDense(d, cfg, acc, depTab)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Accuracy = accOf
	cfg.Dependence = func(a, b model.SourceID) float64 { return depTab[index[a]*nS+index[b]] }
	closure, err := NewPlanner(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	indep := cfg
	indep.Dependence = nil
	none, err := NewPlanner(d, indep)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Planner{"dense": dense, "closure": closure, "nil": none}, cfg
}

func finalQueries(d *dataset.Dataset, rng *rand.Rand) map[string][]model.ObjectID {
	objs := d.Objects()
	ghost := model.Obj("ghost", "v")
	some := make([]model.ObjectID, 5)
	for i := range some {
		some[i] = objs[rng.Intn(len(objs))] // may repeat
	}
	a, b := objs[rng.Intn(len(objs))], objs[rng.Intn(len(objs))]
	return map[string][]model.ObjectID{
		"all":       objs,
		"five":      some,
		"dups":      {a, ghost, b, a, a, ghost, b},
		"uncovered": {ghost, model.Obj("ghost2", "v")},
	}
}

func TestFinalMatchesTrace(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 13}
	if !testing.Short() {
		seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			d, accOf := finalWorld(t, seed, rng)
			planners := finalPlanners(t, d, accOf, rng)
			queries := finalQueries(d, rng)
			n := d.Compiled().NumSources()
			stops := []float64{0, 0.9}
			if seed > 12 {
				// A trace over 430 sources is tens of milliseconds a query,
				// several times that behind the closure: keep to what reaches
				// the bulk fold's block kernel (an early stop scores per probe
				// on both sides; the closure takes the single chain the
				// narrower seeds cover) and to the queries that cover.
				stops = []float64{0}
				delete(planners, "closure")
				delete(queries, "five")
				delete(queries, "uncovered")
			}
			for depName, base := range planners {
				for _, pol := range []Policy{GreedyGain, AccuracyCoverage, ByID} {
					for _, maxSrc := range []int{0, 1, 5, n / 2} {
						for _, stop := range stops {
							cfg := DefaultConfig()
							cfg.Policy, cfg.MaxSources, cfg.StopProb = pol, maxSrc, stop
							p, err := base.Derive(cfg)
							if err != nil {
								t.Fatal(err)
							}
							for qName, q := range queries {
								where := fmt.Sprintf("dep=%s policy=%v max=%d stop=%v query=%s",
									depName, pol, maxSrc, stop, qName)
								assertFinalMatchesTrace(t, p, q, where)
							}
						}
					}
				}
			}
		})
	}
}

func assertFinalMatchesTrace(t *testing.T, p *Planner, q []model.ObjectID, where string) {
	t.Helper()
	want, err := p.Answer(q)
	if err != nil {
		t.Fatalf("%s: trace: %v", where, err)
	}
	got, err := p.Final(q)
	if err != nil {
		t.Fatalf("%s: final: %v", where, err)
	}
	if got.Steps != nil {
		t.Fatalf("%s: the trace-free result carries %d steps", where, len(got.Steps))
	}
	assertSameFinal(t, got, want, where+" (vs the trace)")
}

// assertSameFinal holds got's Probed and Final to want's, bit for bit.
func assertSameFinal(t *testing.T, got, want *Result, where string) {
	t.Helper()
	if !reflect.DeepEqual(got.Probed, want.Probed) {
		t.Fatalf("%s: probed %v, want %v", where, got.Probed, want.Probed)
	}
	if (got.Final == nil) != (want.Final == nil) || len(got.Final) != len(want.Final) {
		t.Fatalf("%s: final has %d answers (nil=%t), want %d (nil=%t)", where,
			len(got.Final), got.Final == nil, len(want.Final), want.Final == nil)
	}
	for i, w := range want.Final {
		g := got.Final[i]
		if g.Object != w.Object || g.Value != w.Value || math.Float64bits(g.Prob) != math.Float64bits(w.Prob) {
			t.Fatalf("%s: final[%d] = %+v, want %+v", where, i, g, w)
		}
	}
}

// TestDiscountProductsMatchReference holds the bulk fold's four-at-a-time
// discount kernel to the reference's loop, product by product and bit for
// bit, on groups of every block remainder (k < 4 included) — a last-bit
// difference in one product of 400 seldom survives the score's sum and the
// softmax, so the end-to-end suites above would let it through.
func TestDiscountProductsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, accOf := finalWorld(t, 13, rng)
	for depName, p := range finalPlanners(t, d, accOf, rng) {
		nS, cr := len(p.acc), p.cfg.CopyRate
		for _, k := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 401, 402, 403, 404} {
			members := make([]int32, k)
			for i, s := range rng.Perm(nS)[:k] {
				members[i] = int32(s)
			}
			fs := make([]float64, k)
			p.discountProducts(members, fs, cr)
			for r, s := range members {
				want := 1.0
				for _, e := range members[:r] {
					want *= 1 - cr*p.dep(s, e)
				}
				if math.Float64bits(fs[r]) != math.Float64bits(want) {
					t.Fatalf("dep=%s k=%d: product %d is %v, the reference's %v", depName, k, r, fs[r], want)
				}
			}
		}
	}
}
