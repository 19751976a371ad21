package depen

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/synth"
)

// Seeded differential suite. Each seed draws a world (independents, copier
// cliques sharing a master, a ring of sources copying one another, optional
// Known labels and ValueSim) and an append schedule over it (source-major,
// object-major and mixed batches; sources and objects held out of the base
// so batches introduce them mid-log), then checks the two equivalences the
// single loop must keep:
//
//   - flat:   Detect(base) == detectMaps(base), the map oracle, and
//   - replay: Detect(successor) == the live Refine chain, at every epoch,
//
// bit for bit (reflect.DeepEqual over the whole Result) at GOMAXPROCS 1 and
// 4. A failure names its seed; rerun it with -run 'Differential/seed=N'.

// diffCase is one seed's world, configuration and append schedule.
type diffCase struct {
	cfg     Config
	base    []model.Claim
	batches [][]model.Claim
}

// diffRing adds k sources that copy one another: per object one member (in
// rotation) answers on its own and the others repeat it with probability
// 0.8 — a dependence cycle no master/copier direction explains.
func diffRing(rng *rand.Rand, objs []model.ObjectID, k int) []model.Claim {
	var out []model.Claim
	for oi, o := range objs {
		own := func() string {
			if rng.Float64() < 0.7 {
				return fmt.Sprintf("T%d", oi)
			}
			return fmt.Sprintf("F%d_%d", oi, rng.Intn(3))
		}
		lead := own()
		for m := 0; m < k; m++ {
			v := lead
			if m != oi%k && rng.Float64() >= 0.8 {
				v = own()
			}
			out = append(out, model.NewClaim(model.SourceID(fmt.Sprintf("R%d", m)), o, v))
		}
	}
	return out
}

func newDiffCase(t *testing.T, seed int64) diffCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	accs := make([]float64, 4+rng.Intn(5))
	for i := range accs {
		accs[i] = 0.55 + 0.4*rng.Float64()
	}
	copiers := make([]synth.CopierSpec, rng.Intn(5))
	for i := range copiers {
		// Masters drawn from the first two independents, so copiers share one.
		copiers[i] = synth.CopierSpec{MasterIndex: rng.Intn(2), CopyRate: 0.5 + 0.45*rng.Float64(), OwnAcc: 0.5 + 0.3*rng.Float64()}
	}
	sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
		Seed: seed, NObjects: 12 + rng.Intn(24), IndependentAcc: accs, Copiers: copiers, FalsePool: 2 + rng.Intn(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	world := sw.Dataset
	claims := append([]model.Claim(nil), world.Claims()...)
	if rng.Intn(2) == 0 {
		claims = append(claims, diffRing(rng, world.Objects(), 3)...)
	}

	cfg := DefaultConfig()
	cfg.MinShared = 1 + rng.Intn(3)
	cfg.MaxRounds = 3 + rng.Intn(6)
	cfg.RefineRounds = rng.Intn(4) // 0 selects the default
	if rng.Intn(2) == 0 {
		cfg.Truth.ValueSim = goldenSim
		cfg.Truth.ValueSimWeight = 0.3
	}
	if rng.Intn(2) == 0 {
		objs := world.Objects()
		cfg.Truth.Known = map[model.ObjectID]string{
			objs[rng.Intn(len(objs))]: "T0",
			objs[rng.Intn(len(objs))]: "A_unseen",
		}
	}

	// Hold some sources and objects out of the base entirely, and a random
	// share of everything else.
	heldSrc, heldObj := map[model.SourceID]bool{}, map[model.ObjectID]bool{}
	for _, i := range rng.Perm(len(world.Sources()))[:rng.Intn(3)] {
		heldSrc[world.Sources()[i]] = true
	}
	for _, i := range rng.Perm(len(world.Objects()))[:rng.Intn(4)] {
		heldObj[world.Objects()[i]] = true
	}
	dc := diffCase{cfg: cfg}
	var pool []model.Claim
	for _, cl := range claims {
		if heldSrc[cl.Source] || heldObj[cl.Object] || rng.Float64() < 0.3 {
			pool = append(pool, cl)
		} else {
			dc.base = append(dc.base, cl)
		}
	}

	// take moves the pool claims matching keep into one batch.
	take := func(keep func(model.Claim) bool) {
		var batch, rest []model.Claim
		for _, cl := range pool {
			if keep(cl) {
				batch = append(batch, cl)
			} else {
				rest = append(rest, cl)
			}
		}
		pool = rest
		if len(batch) > 0 {
			dc.batches = append(dc.batches, batch)
		}
	}
	for b := 2 + rng.Intn(3); b > 0 && len(pool) > 0; b-- {
		pick := pool[rng.Intn(len(pool))]
		switch rng.Intn(3) {
		case 0: // source-major: everything one source still owes
			take(func(cl model.Claim) bool { return cl.Source == pick.Source })
		case 1: // object-major: everything still owed on one object
			take(func(cl model.Claim) bool { return cl.Object == pick.Object })
		default: // mixed, plus one source contradicting its base claim
			take(func(model.Claim) bool { return rng.Intn(4) == 0 })
			if n := len(dc.batches); n > 0 {
				old := dc.base[rng.Intn(len(dc.base))]
				dc.batches[n-1] = append(dc.batches[n-1], model.NewClaim(old.Source, old.Object, "B_changed"))
			}
		}
	}
	take(func(model.Claim) bool { return true })
	return dc
}

// newSaturatedCase is a world whose pairs share 300 objects each: 24
// independents and 6 copiers, four of them copying one master, so the
// master and its copiers form a clique of five. Every other pair's copy
// posterior is so small that its discount factor is exactly 1, so from
// round 2 on the truth step takes the partner lists, the kernel no other
// seed's world reaches; inside the clique a member has up to four partners
// ranked above it. One copier's claims and two objects are held out of the
// base, one batch each.
func newSaturatedCase(t *testing.T) diffCase {
	t.Helper()
	accs := make([]float64, 24)
	for i := range accs {
		accs[i] = 0.55 + 0.4*float64(i%7)/6
	}
	var copiers []synth.CopierSpec
	for _, m := range []int{0, 0, 0, 0, 1, 2} {
		copiers = append(copiers, synth.CopierSpec{MasterIndex: m, CopyRate: 0.8, OwnAcc: 0.6})
	}
	sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
		Seed: 30*31 + 300, NObjects: 300, IndependentAcc: accs, Copiers: copiers, FalsePool: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	objs := sw.Dataset.Objects()
	heldObj := map[model.ObjectID]int{objs[7]: 1, objs[200]: 2}
	dc := diffCase{cfg: DefaultConfig(), batches: make([][]model.Claim, 3)}
	for _, cl := range sw.Dataset.Claims() {
		b, ok := heldObj[cl.Object]
		switch {
		case cl.Source == "C0": // a copier of the clique's master
			dc.batches[0] = append(dc.batches[0], cl)
		case ok:
			dc.batches[b] = append(dc.batches[b], cl)
		default:
			dc.base = append(dc.base, cl)
		}
	}
	return dc
}

func runDiff(t *testing.T, name string, dc diffCase) {
	base, err := dataset.FromClaims(dc.base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := detectMaps(base, dc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := dc.cfg
	var first []*Result // one worker's result per epoch
	for _, p := range []int{1, 4} {
		runtime.GOMAXPROCS(p)
		live, err := Detect(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live, want) {
			t.Fatalf("%s, GOMAXPROCS %d: flat Detect differs from the map oracle", name, p)
		}
		cur := base
		for e, batch := range dc.batches {
			if cur, err = cur.Append(batch); err != nil {
				t.Fatal(err)
			}
			if live, err = Refine(cur, live, cfg); err != nil {
				t.Fatal(err)
			}
			rebuilt, err := Detect(cur, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(live, rebuilt) {
				t.Fatalf("%s, GOMAXPROCS %d, epoch %d of %d: live Refine chain differs from Detect(successor)",
					name, p, e+1, len(dc.batches))
			}
			if p == 1 {
				first = append(first, live)
			} else if !reflect.DeepEqual(live, first[e]) {
				t.Fatalf("%s, epoch %d: GOMAXPROCS %d differs from GOMAXPROCS 1", name, e+1, p)
			}
		}
	}
}

func TestDifferential(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runDiff(t, fmt.Sprintf("seed %d", seed), newDiffCase(t, seed)) })
	}
	// The seeded worlds' pairs share a few dozen objects at most, and no
	// seed's solved table takes the partner lists; this world's does.
	t.Run("saturated", func(t *testing.T) {
		dc := newSaturatedCase(t)
		base, err := dataset.FromClaims(dc.base)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Solve(base, nil, dc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		nS := base.Compiled().NumSources()
		disc := newDiscount(base.Compiled(), st.tot, dc.cfg.CopyRate, true)
		disc.rank(st.acc)
		_, nonUnit := discountMuls(base.Compiled(), disc)
		if !disc.sparse || nonUnit == 0 {
			t.Fatalf("the solved table takes the partner lists: %v, with %d pairs off 1 and %d multiplies by them",
				disc.sparse, len(disc.part), nonUnit)
		}
		t.Logf("%d of %d pairs off 1, %d multiplies by them per round", len(disc.part), nS*(nS-1)/2, nonUnit)
		runDiff(t, "saturated world", dc)
	})
}
