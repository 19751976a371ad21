package depen

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/synth"
	"sourcecurrents/internal/truth"
)

// TestFillFactorsMatchOracle holds both discount kernels, the column-wise
// product over the ranked rows and the factor table and the partner lists, to
// the reference product loop (discountTable.fillFactors) bit for bit on
// groups the seeded worlds of the differential suite never reach: sizes on
// both sides of every block boundary and one as large as the wide world's,
// accuracy ties (broken by index), and cells that are exactly 0, exactly 1,
// and above 1 (clamped). Bystanders voting another value sit between the
// members in index order, so a group's positions, its sources' indexes and
// their ranks all differ. The members are ranked by the round's own scatter
// (rankGroups) and the factors read back by source.
//
// Each group is drawn twice: over a dense table, and over a sparse one whose
// cells are mostly exactly 0 or too small to move a factor off 1 (dep ≤
// 2⁻⁵⁴/c), and otherwise random or clamped at 1 + 2⁻⁵². On the sparse tables
// members have three and more partners ranked above them in the group, so a
// product taken out of rank order shows, and partners among the bystanders
// and ranked below, so one taken from outside the group or from below shows.
func TestFillFactorsMatchOracle(t *testing.T) {
	const copyRate = 0.8
	o := model.ObjectID{Entity: "e", Attribute: "a"}
	deepest := 0 // on the sparse tables: the most partners ranked above a member in its group
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 64, 431} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, sparse := range []bool{false, true} {
				rng := rand.New(rand.NewSource(seed*1000 + int64(k)))
				nS := k + 1 + k/3
				member := make([]bool, nS)
				for _, i := range rng.Perm(nS)[:k] {
					member[i] = true
				}
				var claims []model.Claim
				for i := 0; i < nS; i++ {
					v := "other"
					if member[i] {
						v = "v"
					}
					claims = append(claims, model.NewClaim(model.SourceID(fmt.Sprintf("S%04d", i)), o, v))
				}
				d, err := dataset.FromClaims(claims)
				if err != nil {
					t.Fatal(err)
				}
				c := d.Compiled()

				// Accuracies from a pool of a few values, so ties are the rule; the
				// two directions of every pair drawn apart, so totals reach 2.
				acc := make([]float64, nS)
				accOf := map[model.SourceID]float64{}
				for i := range acc {
					acc[i] = 0.5 + 0.1*float64(rng.Intn(4))
					accOf[c.Source(i)] = acc[i]
				}
				tot := make([]float64, nS*nS)
				dir := map[model.SourceID]map[model.SourceID]float64{}
				draw := func() (ab, ba float64) {
					if sparse {
						switch r := rng.Intn(20); {
						case r < 9:
							return 0, 0
						case r < 17:
							return rng.Float64() * 0x1p-54 / copyRate, 0
						case r < 18:
							return 1, 0x1p-52
						default:
							return rng.Float64(), 0
						}
					}
					one := func() float64 {
						switch rng.Intn(5) {
						case 0:
							return 0
						case 1:
							return 1
						default:
							return rng.Float64()
						}
					}
					ab, ba = one(), one()
					if rng.Intn(3) == 0 {
						ba = 0 // a total of exactly 0 or exactly 1 now and then
					}
					return ab, ba
				}
				for i := 0; i < nS; i++ {
					for j := i + 1; j < nS; j++ {
						ab, ba := draw()
						setDir(dir, c.Source(i), c.Source(j), ab)
						setDir(dir, c.Source(j), c.Source(i), ba)
						tot[i*nS+j], tot[j*nS+i] = ab+ba, ab+ba
					}
				}

				want := map[model.SourceID]float64{}
				makeDiscount(d, accOf, dir, copyRate).fillFactors(o, "v", want)

				vi, _ := c.ValueIndex("v")
				g := slices.Index(c.GroupValue, vi)
				srcs := c.GroupSrc[c.GroupSrcStart[g]:c.GroupSrcStart[g+1]]
				if len(srcs) != k || len(want) != k {
					t.Fatalf("k=%d: group has %d sources, oracle %d", k, len(srcs), len(want))
				}
				dc := newDiscount(c, tot, copyRate, true)
				rankSources(acc, dc.order, dc.pos)
				if !dc.partners(nS * nS) {
					t.Fatalf("k=%d seed=%d: partner lists refused with no limit", k, seed)
				}
				dc.rankGroups()
				dc.fillTable()
				for _, s := range srcs {
					above := 0
					for _, pt := range dc.part[dc.partStart[s]:dc.partStart[s+1]] {
						if member[pt.q] && sparse {
							above++
						}
					}
					deepest = max(deepest, above)
				}
				sc := newDepenScratch(truth.NewDenseSolver(c, truth.DefaultConfig()), 1)
				for kernel, fill := range map[string]func() []float64{
					"ranked": func() []float64 {
						clear(sc.facOf)
						fillFactorsRanked(dc.ranked[c.GroupSrcStart[g]:c.GroupSrcStart[g+1]], dc, sc)
						fac := make([]float64, len(srcs))
						for p, s := range srcs {
							fac[p] = sc.facOf[s]
						}
						return fac
					},
					"sparse": func() []float64 { return fillFactorsSparse(srcs, dc, sc) },
				} {
					got := fill()
					for p, si := range srcs {
						if w := want[c.Source(int(si))]; math.Float64bits(got[p]) != math.Float64bits(w) {
							t.Fatalf("k=%d seed=%d sparse table %v, %s kernel: factor of %s (position %d, rank %d) = %v, oracle %v",
								k, seed, sparse, kernel, c.Source(int(si)), p, dc.pos[si], got[p], w)
						}
					}
				}
			}
		}
	}
	if deepest < 3 {
		t.Fatalf("no member of a sparse table's group had three partners ranked above it in the group (at most %d)", deepest)
	}
}

// TestDiscountSwitch holds the kernel choice to its rule, that the table
// alone picks: the partner lists when at most an eighth of the pairs have a
// factor other than exactly 1 (here 66 of 33 sources' 528), the column-wise
// product otherwise, with nothing allocated for what the kernel it does not
// pick reads: a dense round builds no partner list, and a sparse one neither
// the ranked rows nor the factor table, which a dense round allocates once
// for the solve. Each list it builds must be exactly the sources ranked
// above its owner whose factor for it is off 1, in rank order, with that
// factor's bits — also when one discount is rebuilt over a sparser table, as
// the rounds of a solve rebuild it.
func TestDiscountSwitch(t *testing.T) {
	const nS, copyRate, limit = 33, 0.8, 33 * 32 / 16
	rng := rand.New(rand.NewSource(5))
	var claims []model.Claim
	for i := 0; i < nS; i++ {
		for k := 0; k < 3; k++ {
			o := model.ObjectID{Entity: fmt.Sprintf("e%d", (i+k)%7), Attribute: "a"}
			claims = append(claims, model.NewClaim(model.SourceID(fmt.Sprintf("S%02d", i)), o, fmt.Sprintf("v%d", rng.Intn(3))))
		}
	}
	d, err := dataset.FromClaims(claims)
	if err != nil {
		t.Fatal(err)
	}
	c := d.Compiled()
	acc := make([]float64, nS)
	for i := range acc {
		acc[i] = 0.5 + 0.1*float64(rng.Intn(4))
	}
	// table returns a totals table with off pairs whose factor is not 1; the
	// rest are 0 or round their factor to exactly 1.
	table := func(off int) []float64 {
		tot := make([]float64, nS*nS)
		for k, pair := range rng.Perm(nS * nS) {
			i, j := pair/nS, pair%nS
			if i >= j {
				continue
			}
			v := rng.Float64() * 0x1p-54 / copyRate
			if off > 0 {
				v = []float64{1 + 0x1p-52, 0.5 * rng.Float64(), 1e-9}[k%3]
				off--
			}
			tot[i*nS+j], tot[j*nS+i] = v, v
		}
		return tot
	}
	dc := newDiscount(c, table(limit+1), copyRate, true)
	if dc.rank(acc); dc.sparse || dc.partStart != nil || dc.part != nil || dc.keys != nil {
		t.Fatalf("%d pairs off 1 of %d: sparse %v, lists allocated %v", limit+1, nS*(nS-1)/2, dc.sparse, dc.partStart != nil)
	}
	if len(dc.ranked) != len(c.GroupSrc) || len(dc.table) != nS*(nS+1)/2 {
		t.Fatalf("%d pairs off 1: a dense round built %d ranked members of %d and a table of %d entries, want %d",
			limit+1, len(dc.ranked), len(c.GroupSrc), len(dc.table), nS*(nS+1)/2)
	}
	dc = newDiscount(c, nil, copyRate, true)
	for _, off := range []int{limit, 10, 0} {
		dc.tot = table(off)
		if dc.rank(acc); !dc.sparse || len(dc.part) != off {
			t.Fatalf("%d pairs off 1: sparse %v with %d partners", off, dc.sparse, len(dc.part))
		}
		if dc.ranked != nil || dc.next != nil || dc.table != nil {
			t.Fatalf("%d pairs off 1: a sparse round allocated the ranked rows (%v) or the factor table (%v)",
				off, dc.ranked != nil, dc.table != nil)
		}
		for s := int32(0); s < nS; s++ {
			var want []partner
			for _, q := range dc.order[:dc.pos[s]] {
				if f := indep(dc.tot[int(q)*nS:][:nS], s, copyRate); f != 1 {
					want = append(want, partner{q: q, f: f})
				}
			}
			got := dc.part[dc.partStart[s]:dc.partStart[s+1]]
			if !slices.EqualFunc(got, want, func(a, b partner) bool {
				return a.q == b.q && math.Float64bits(a.f) == math.Float64bits(b.f)
			}) {
				t.Fatalf("%d pairs off 1: source %d (rank %d) has partners %v, want %v", off, s, dc.pos[s], got, want)
			}
		}
	}
}

// TestRankedGroupsMatchSort holds what a dense round's rank lays out for the
// ranked kernel, at every dense round of the differential suite's worlds and
// schedules (sources held out of the base, so chains add them) and of a
// wide-shaped world with a source-major batch, an object-major one, and a new
// source that sorts first: every value group's ranked row is its GroupSrc row
// sorted by the round's ranks, and every entry of the factor table is indep
// of the totals the round reads, under the round's ranking.
func TestRankedGroupsMatchSort(t *testing.T) {
	dense := 0
	check := func(what string) func(*discount) {
		return func(dc *discount) {
			if !dc.on || dc.sparse {
				return
			}
			dense++
			c, nS := dc.c, len(dc.pos)
			for g := range c.GroupValue {
				want := slices.Clone(c.GroupSrc[c.GroupSrcStart[g]:c.GroupSrcStart[g+1]])
				slices.SortFunc(want, func(x, y int32) int { return cmp.Compare(dc.pos[x], dc.pos[y]) })
				if got := dc.ranked[c.GroupSrcStart[g]:c.GroupSrcStart[g+1]]; !slices.Equal(got, want) {
					t.Fatalf("%s: group %d ranked %v, sorted by rank %v", what, g, got, want)
				}
			}
			for i := int32(0); i < int32(nS); i++ {
				row, from := dc.row(i), dc.tot[int(dc.order[i])*nS:][:nS]
				for j := i + 1; j < int32(nS); j++ {
					if f := indep(from, dc.order[j], dc.copyRate); math.Float64bits(row[j]) != math.Float64bits(f) {
						t.Fatalf("%s: table[%d][%d] = %v, the round's totals give %v", what, i, j, row[j], f)
					}
				}
			}
		}
	}
	defer func() { rankedHook = nil }()
	chain := func(what string, base *dataset.Dataset, batches [][]model.Claim, cfg Config) {
		t.Helper()
		rankedHook = check(what)
		st, err := Solve(base, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cur := base
		for e, batch := range batches {
			rankedHook = check(fmt.Sprintf("%s, epoch %d", what, e+1))
			if cur, err = cur.Append(batch); err != nil {
				t.Fatal(err)
			}
			if st, err = Solve(cur, st, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	seeds := 32
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		dc := newDiffCase(t, seed)
		base, err := dataset.FromClaims(dc.base)
		if err != nil {
			t.Fatal(err)
		}
		chain(fmt.Sprintf("seed %d", seed), base, dc.batches, dc.cfg)
	}
	fromDiff := dense

	wide := snapshotWorld(t, 120, 30)
	srcs, objs := wide.Sources(), wide.Objects()
	var srcMajor, objMajor, first []model.Claim
	for _, o := range objs {
		v, _ := wide.Value(srcs[0], o)
		srcMajor = append(srcMajor, model.NewClaim(srcs[7], o, v))
		first = append(first, model.NewClaim("!first", o, v))
	}
	for _, s := range srcs {
		objMajor = append(objMajor, model.NewClaim(s, objs[3], "fresh"))
	}
	chain("wide", wide, [][]model.Claim{srcMajor, objMajor, first}, DefaultConfig())
	if fromDiff == 0 || dense == fromDiff {
		t.Fatalf("dense rounds checked: %d in the differential worlds, %d in the wide one", fromDiff, dense-fromDiff)
	}
}

// raggedWorld draws TestCandidatesMatchJoin's world for rng: nS sources
// claiming from a handful to every one of nO objects, values from a small
// pool, so agreement is mixed; D0 and D1, which claim every object and agree
// with no one; L, which claims one object; and Z, whose two objects no other
// source claims. It returns the dataset and the object namer.
func raggedWorld(t *testing.T, rng *rand.Rand) (*dataset.Dataset, func(int) model.ObjectID) {
	t.Helper()
	nS, nO := 6+rng.Intn(20), 4+rng.Intn(30)
	var claims []model.Claim
	obj := func(k int) model.ObjectID {
		return model.ObjectID{Entity: fmt.Sprintf("e%02d", k), Attribute: "a"}
	}
	for k := 0; k < nO; k++ {
		claims = append(claims,
			model.NewClaim("D0", obj(k), fmt.Sprintf("d0-%d", k)),
			model.NewClaim("D1", obj(k), fmt.Sprintf("d1-%d", k)))
	}
	claims = append(claims, model.NewClaim("L", obj(rng.Intn(nO)), "v0"))
	for k := 0; k < 2; k++ {
		claims = append(claims, model.NewClaim("Z", model.ObjectID{Entity: fmt.Sprintf("z%d", k), Attribute: "a"}, "z"))
	}
	for i := 0; i < nS; i++ {
		share := rng.Float64()
		for k := 0; k < nO; k++ {
			if rng.Float64() < share {
				v := fmt.Sprintf("v%d", rng.Intn(1+rng.Intn(4)))
				claims = append(claims, model.NewClaim(model.SourceID(fmt.Sprintf("S%02d", i)), obj(k), v))
			}
		}
	}
	d, err := dataset.FromClaims(claims)
	if err != nil {
		t.Fatal(err)
	}
	return d, obj
}

// TestCandidatesMatchJoin holds buildCandidates' layout to a brute-force
// join of every pair through the dataset's by-name accessors, on seeded
// ragged worlds (raggedWorld: rows from one claim to every object, and a
// source no other shares an object with), with every source dirty and with
// a random part of them: each candidate's n and same, its stored value
// groups object by object, and no pair below MinShared. Two planted sources
// share every object and agree on none: their pair is kept with no entries
// and scores kd == n with kt and kf +0 bit for bit. Each join, flat and
// partial, makes one reservation per array and never regrows it: after the
// join the overlap array's capacity is Σ_g [C(|g|, 2) − C(|g ∖ dirty|, 2)]
// plus the longest row and one, and the candidate list's is the lesser of
// the pairs with a dirty member and Σ_o C(k_o, 2), both counted here member
// by member.
//
// On the same worlds it holds ClassMass's group-to-object lookup, under a
// ValueSim and with Known labels no source asserts, to classMass over
// the explicit object's values, for every group of every object.
func TestCandidatesMatchJoin(t *testing.T) {
	sim := func(a, b string) float64 { return 0.25 + 0.5*float64(len(a)%2+len(b)%2)/2 }
	dropped := 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, obj := raggedWorld(t, rng)
		c := d.Compiled()
		nS, nO := c.NumSources(), c.NumObjects()

		cfg := DefaultConfig()
		cfg.MinShared = 1 + rng.Intn(4)
		cfg.Truth.ValueSim = sim
		cfg.Truth.Known = map[model.ObjectID]string{obj(0): "unseen", obj(nO - 1): "v0"}
		simSolver := truth.NewDenseSolver(c, cfg.Truth)
		solver := truth.NewDenseSolver(c, DefaultConfig().Truth)
		probs := make([]float64, len(c.GroupValue))
		for g := range probs {
			probs[g] = rng.Float64()
		}
		acc := make([]float64, nS)
		for i := range acc {
			acc[i] = 0.3 + 0.6*rng.Float64()
		}
		logPrior := [3]float64{math.Log(1 - cfg.Alpha), math.Log(cfg.Alpha / 2), math.Log(cfg.Alpha / 2)}
		sc := newDepenScratch(solver, maxMemoSlots)

		groupOf := func(oi int, v string) int32 {
			for g := c.GroupStart[oi]; g < c.GroupStart[oi+1]; g++ {
				if c.Value(int(c.GroupValue[g])) == v {
					return g
				}
			}
			t.Fatalf("seed %d: object %d has no group %q", seed, oi, v)
			return -1
		}
		for _, partial := range []bool{false, true} {
			var dirtySrc []bool
			if partial {
				dirtySrc = make([]bool, nS)
				for i := range dirtySrc {
					dirtySrc[i] = rng.Intn(3) == 0
				}
			}
			what := fmt.Sprintf("seed %d, partial %v", seed, partial)
			cands, ov := buildCandidates(c, cfg.MinShared, dirtySrc)
			isDirty := func(s int32) bool { return dirtySrc == nil || dirtySrc[s] }
			var wantOv, longest, dirtyPairs, sharedPairs int
			for g := range c.GroupValue {
				for p, s := range c.GroupSrc[c.GroupSrcStart[g]:c.GroupSrcStart[g+1]] {
					for _, q := range c.GroupSrc[c.GroupSrcStart[g]:][:p] {
						if isDirty(s) || isDirty(q) {
							wantOv++
						}
					}
				}
			}
			for i := 0; i < nS; i++ {
				longest = max(longest, int(c.SrcStart[i+1]-c.SrcStart[i]))
				for j := i + 1; j < nS; j++ {
					if isDirty(int32(i)) || isDirty(int32(j)) {
						dirtyPairs++
					}
				}
			}
			for oi := 0; oi < nO; oi++ {
				k := int(c.GroupSrcStart[c.GroupStart[oi+1]] - c.GroupSrcStart[c.GroupStart[oi]])
				sharedPairs += k * (k - 1) / 2
			}
			if want := wantOv + longest + 1; cap(ov) != want {
				t.Fatalf("%s: the overlap array's capacity is %d after the join, want %d", what, cap(ov), want)
			}
			if want := min(dirtyPairs, sharedPairs); cap(cands) != want {
				t.Fatalf("%s: the candidate list's capacity is %d after the join, want %d", what, cap(cands), want)
			}
			next, disagree := 0, 0
			for i := 0; i < nS; i++ {
				for j := i + 1; j < nS; j++ {
					if dirtySrc != nil && !dirtySrc[i] && !dirtySrc[j] {
						continue
					}
					var n int32
					var groups []int32
					for oi := 0; oi < nO; oi++ {
						va, okA := d.Value(c.Source(i), c.Object(oi))
						vb, okB := d.Value(c.Source(j), c.Object(oi))
						if !okA || !okB {
							continue
						}
						n++
						if va == vb {
							groups = append(groups, groupOf(oi, va))
						}
					}
					if int(n) < cfg.MinShared {
						if n > 0 {
							dropped++
						}
						continue
					}
					if next == len(cands) {
						t.Fatalf("%s: pair (%d, %d) missing: %d candidates", what, i, j, len(cands))
					}
					cand := cands[next]
					next++
					got := ov[cand.off : cand.off+cand.same]
					if cand.a != int32(i) || cand.b != int32(j) || cand.n != n || int(cand.same) != len(groups) || !slices.Equal(got, groups) {
						t.Fatalf("%s: candidate %+v (groups %v), join (%d, %d) n=%d groups %v",
							what, cand, got, i, j, n, groups)
					}
					rec := scorePairDense(solver, cand, ov, probs, acc, cfg, logPrior, sc)
					if rec.kd != float64(n)-float64(len(groups)) {
						t.Fatalf("%s: pair (%d, %d) kd = %v, want %d", what, i, j, rec.kd, int(n)-len(groups))
					}
					if len(groups) == 0 {
						disagree++
						if math.Float64bits(rec.kt) != 0 || math.Float64bits(rec.kf) != 0 {
							t.Fatalf("%s: all-disagreeing pair (%d, %d) kt = %v, kf = %v, want +0", what, i, j, rec.kt, rec.kf)
						}
					}
				}
			}
			if next != len(cands) {
				t.Fatalf("%s: %d candidates, the join keeps %d", what, len(cands), next)
			}
			if !partial && disagree == 0 {
				t.Fatalf("%s: the planted all-disagreeing pair was not kept", what)
			}
		}

		for oi := 0; oi < nO; oi++ {
			row := map[string]float64{}
			simSolver.EachValue(probs, oi, func(v string, p float64) { row[v] = p })
			for g := c.GroupStart[oi]; g < c.GroupStart[oi+1]; g++ {
				want := classMass(row, c.Value(int(c.GroupValue[g])), sim)
				if got := simSolver.ClassMass(probs, g); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d: ClassMass of group %d = %v, over its object %d's values %v", seed, g, got, oi, want)
				}
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no pair of any world shared fewer objects than MinShared")
	}
}

// TestPairMemoMatchesDirect holds the pair step's posterior table to the
// Bayes step it skips: every candidate of a world is scored twice, through
// one scratch shared by all of them, whose table hits whenever a pair's
// (acc[a], acc[b], kt, kf, kd) repeat, and through a fresh scratch of its
// own, which computes every posterior; the records must agree bit for bit.
// The worlds are the golden worlds under each golden configuration and the
// differential suite's saturated world, solved; the wide shape at 120
// sources, solved, whose pairs repeat their tuples four times over; and
// ragged worlds (raggedWorld) scored under accuracies of two values and
// posteriors of exactly 0 or 1, where pairs differ in kd alone and in acc[b]
// alone, so a key without either returns another pair's posteriors. Each
// runs at its solve's table size and at one and two slots, where unequal
// keys keep meeting in a slot.
func TestPairMemoMatchesDirect(t *testing.T) {
	// check scores c's flat candidates under (acc, probs) and returns how
	// many of them repeat another's tuple, and how many pairs of tuples
	// differ in kd alone and in acc[b] alone.
	check := func(what string, c *dataset.Compiled, cfg Config, acc, probs []float64) (repeats, kdTwins, bTwins int) {
		t.Helper()
		solver := truth.NewDenseSolver(c, cfg.Truth)
		cands, ov := buildCandidates(c, cfg.MinShared, nil)
		logPrior := [3]float64{math.Log(1 - cfg.Alpha), math.Log(cfg.Alpha / 2), math.Log(cfg.Alpha / 2)}
		tuples := map[[5]uint64]bool{}
		for _, slots := range []int{memoSlots(len(cands)), 1, 2} {
			shared := newDepenScratch(solver, slots)
			for _, cand := range cands {
				got := scorePairDense(solver, cand, ov, probs, acc, cfg, logPrior, shared)
				want := scorePairDense(solver, cand, ov, probs, acc, cfg, logPrior, newDepenScratch(solver, 1))
				if got != want || math.Float64bits(got.probAB) != math.Float64bits(want.probAB) ||
					math.Float64bits(got.probBA) != math.Float64bits(want.probBA) {
					t.Fatalf("%s, %d slots: pair (%d, %d) scores %+v through the shared table, %+v alone",
						what, slots, cand.a, cand.b, got, want)
				}
				tuples[[5]uint64{math.Float64bits(acc[cand.a]), math.Float64bits(acc[cand.b]),
					math.Float64bits(got.kt), math.Float64bits(got.kf), math.Float64bits(got.kd)}] = true
			}
		}
		noKd, noB := map[[4]uint64]int{}, map[[4]uint64]int{}
		for k := range tuples {
			noKd[[4]uint64{k[0], k[1], k[2], k[3]}]++
			noB[[4]uint64{k[0], k[2], k[3], k[4]}]++
		}
		for _, n := range noKd {
			kdTwins += n - 1
		}
		for _, n := range noB {
			bTwins += n - 1
		}
		return len(cands) - len(tuples), kdTwins, bTwins
	}
	solved := func(what string, d *dataset.Dataset, cfg Config) int {
		t.Helper()
		st, err := Solve(d, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		repeats, _, _ := check(what, d.Compiled(), cfg, st.acc, st.probs)
		return repeats
	}

	for _, seed := range []int64{5, 23, 131} {
		d := goldenSnapshot(t, seed)
		for name, cfg := range goldenConfigs(d) {
			solved(fmt.Sprintf("golden seed %d, %s", seed, name), d, cfg)
		}
	}
	dc := newSaturatedCase(t)
	base, err := dataset.FromClaims(dc.base)
	if err != nil {
		t.Fatal(err)
	}
	solved("saturated", base, dc.cfg)
	if repeats := solved("wide, 120 sources", snapshotWorld(t, 120, 30), DefaultConfig()); repeats == 0 {
		t.Fatal("no pair of the wide world repeats another's tuple: the table never hits")
	}

	var kdTwins, bTwins int
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, _ := raggedWorld(t, rng)
		c := d.Compiled()
		acc := make([]float64, c.NumSources())
		for i := range acc {
			acc[i] = []float64{0.6, 0.8}[rng.Intn(2)]
		}
		probs := make([]float64, len(c.GroupValue))
		for g := range probs {
			probs[g] = float64(rng.Intn(2))
		}
		_, kd, b := check(fmt.Sprintf("ragged seed %d", seed), c, DefaultConfig(), acc, probs)
		kdTwins += kd
		bTwins += b
	}
	if kdTwins == 0 || bTwins == 0 {
		t.Fatalf("the ragged worlds have %d tuples differing in kd alone and %d in acc[b] alone, want some of each",
			kdTwins, bTwins)
	}
}

// checkDense asserts what the discount kernel leans on in a state: the
// totals table is symmetric bit for bit (the kernel reads the transposed
// cell), and every accuracy is finite (rankSources' order is total).
func checkDense(t *testing.T, what string, st *State) {
	t.Helper()
	nS := st.c.NumSources()
	for i := 0; i < nS; i++ {
		if a := st.acc[i]; math.IsNaN(a) || math.IsInf(a, 0) {
			t.Fatalf("%s: accuracy of source %d is %v", what, i, a)
		}
		for j := i + 1; j < nS; j++ {
			if math.Float64bits(st.tot[i*nS+j]) != math.Float64bits(st.tot[j*nS+i]) {
				t.Fatalf("%s: tot[%d][%d] = %v but tot[%d][%d] = %v", what, i, j, st.tot[i*nS+j], j, i, st.tot[j*nS+i])
			}
		}
	}
}

// imported returns st rebuilt from its Result view through StateFromParts,
// over c.
func imported(st *State, c *dataset.Compiled, cfg Config) *State {
	return stateOf(st.Result(cfg), c, cfg)
}

// TestTotalsSymmetric walks the differential suite's worlds and append
// schedules — batches that add sources, so the table is re-indexed by carry,
// included — and checks every epoch's state, the state StateFromParts
// assembles from its Result, and the successor refined from that.
//
// On the same walk it holds the two users of dirtyRuns to a scan of every
// record: mergePairs to mergePairsRef, the two-pass record-by-record merge it
// replaced (the inputs of every epoch's merge are recovered from its output
// and merged again both ways), with no slack in the merged list; and
// State.Delta's records, since the epoch before and since epoch 0, to the
// records with a member the batches since then name. The walk ends with
// newEnumerationCase, whose batches dirty the first and the last source, a
// source in no candidate pair and all sources but one, add a source, and make
// a dirty pair newly reach MinShared; each must be seen.
func TestTotalsSymmetric(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 4
	}
	cases := map[string]diffCase{"enumeration": newEnumerationCase(t)}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		cases[fmt.Sprintf("seed %d", seed)] = newDiffCase(t, seed)
	}
	seen := map[string]bool{}
	for name, dc := range cases {
		cur, err := dataset.FromClaims(dc.base)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Solve(cur, nil, dc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkDense(t, name+", flat", st)
		for e, batch := range dc.batches {
			what := fmt.Sprintf("%s, epoch %d", name, e+1)
			prev := st
			if cur, err = cur.Append(batch); err != nil {
				t.Fatal(err)
			}
			if st, err = Solve(cur, prev, dc.cfg); err != nil {
				t.Fatal(err)
			}
			checkDense(t, what, st)
			checkDense(t, what+", imported", imported(st, cur.Compiled(), dc.cfg))
			viaImport, err := Solve(cur, imported(prev, cur.Compiled(), dc.cfg), dc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkDense(t, what+", refined from an import", viaImport)

			c := cur.Compiled()
			nS := c.NumSources()
			dirtySrc, _, _ := dirtySets(c, batch, false)
			srcOf := grownIndex(prev.c.NumSources(), nS, dirtySrc,
				func(i, j int) bool { return c.Source(i) == prev.c.Source(j) })
			fresh := slices.Clip(scanDirty(st.pairs, dirtySrc))
			want := mergePairsRef(prev, srcOf, dirtySrc, fresh)
			if got := mergePairs(prev, srcOf, dirtySrc, fresh); !slices.Equal(got, want) || !slices.Equal(got, st.pairs) {
				t.Fatalf("%s: mergePairs differs from the reference merge (%d, %d, %d records)",
					what, len(got), len(want), len(st.pairs))
			} else if cap(got) != len(got) {
				t.Fatalf("%s: merged list of %d records carries %d of slack", what, len(got), cap(got)-len(got))
			}
			for _, since := range []int{e, 0} {
				dl, err := st.Delta(cur, since)
				if err != nil {
					t.Fatal(err)
				}
				dirty, _, _ := dirtySets(c, cur.Claims()[cur.LogBounds()[since]:], false)
				if want := scanDirty(st.pairs, dirty); !bytes.Equal(dl.Pairs, recBytes(want)) {
					t.Fatalf("%s: the delta since epoch %d carries %d records, a scan finds %d",
						what, since, len(dl.Pairs)/pairRecBytes, len(want))
				}
			}

			if name != "enumeration" {
				continue
			}
			inPair := map[int32]bool{}
			for _, p := range append(slices.Clone(st.pairs), prev.pairs...) {
				inPair[p.a], inPair[p.b] = true, true
			}
			for s, d := range dirtySrc {
				if d && !inPair[int32(s)] && s < prev.c.NumSources() {
					seen["a dirty source in no pair"] = true
				}
			}
			seen["the first source dirty"] = seen["the first source dirty"] || dirtySrc[0]
			seen["the last source dirty"] = seen["the last source dirty"] || dirtySrc[nS-1]
			seen["all sources but one dirty"] = seen["all sources but one dirty"] || countTrue(dirtySrc) == nS-1
			seen["a source added"] = seen["a source added"] || srcOf != nil
			old := map[[2]model.SourceID]bool{}
			for _, p := range prev.pairs {
				old[[2]model.SourceID{prev.c.Source(int(p.a)), prev.c.Source(int(p.b))}] = true
			}
			for _, p := range fresh {
				a, b := c.Source(int(p.a)), c.Source(int(p.b))
				if !old[[2]model.SourceID{a, b}] && a != "B045" && b != "B045" {
					seen["a fresh pair of old sources absent from the old list"] = true
				}
			}
		}
	}
	for _, what := range []string{"the first source dirty", "the last source dirty", "a dirty source in no pair",
		"all sources but one dirty", "a source added", "a fresh pair of old sources absent from the old list"} {
		if !seen[what] {
			t.Errorf("the enumeration schedule never had %s", what)
		}
	}
}

// scanDirty returns the records with a member dirty marks, by a scan of
// every record.
func scanDirty(pairs []pairRec, dirty []bool) []pairRec {
	var out []pairRec
	for _, p := range pairs {
		if dirty[p.a] || dirty[p.b] {
			out = append(out, p)
		}
	}
	return out
}

// recBytes returns records in PairBytes' layout; nil for none.
func recBytes(recs []pairRec) []byte {
	if len(recs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&recs[0])), len(recs)*pairRecBytes)
}

// newEnumerationCase is a world whose batches reach the edges of the pair
// list: A00 and Y99, the first and the last source, re-claim an object; Z,
// whose objects no one else claims, claims another; every source but B04
// claims one; B045, new, sorts in among the old sources; and N1, which shares
// one object with N2 under MinShared 2, claims a second of N2's, so their
// pair joins the list.
func newEnumerationCase(t *testing.T) diffCase {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	obj := func(k int) model.ObjectID { return model.ObjectID{Entity: fmt.Sprintf("o%02d", k), Attribute: "a"} }
	priv := func(s string, k int) model.ObjectID {
		return model.ObjectID{Entity: s, Attribute: fmt.Sprintf("p%d", k)}
	}
	val := func() string { return fmt.Sprintf("v%d", rng.Intn(3)) }
	srcs := []string{"A00", "B01", "B02", "B03", "B04", "B05", "B06", "B07", "Y99"}
	var base []model.Claim
	for _, s := range srcs {
		for k := 0; k < 12; k++ {
			if rng.Intn(4) != 0 {
				base = append(base, model.NewClaim(model.SourceID(s), obj(k), val()))
			}
		}
	}
	for k := 0; k < 3; k++ {
		base = append(base, model.NewClaim("Z", priv("z", k), "z"),
			model.NewClaim("N1", priv("n1", k), "n"), model.NewClaim("N2", priv("n2", k), "n"))
	}
	base = append(base, model.NewClaim("N1", priv("n", 0), "n"), model.NewClaim("N2", priv("n", 0), "n"),
		model.NewClaim("N2", priv("n", 1), "n"))

	var everyButB04 []model.Claim
	for _, s := range append(srcs, "Z", "N1", "N2") {
		if s != "B04" {
			everyButB04 = append(everyButB04, model.NewClaim(model.SourceID(s), obj(12), val()))
		}
	}
	var added []model.Claim
	for k := 0; k < 6; k++ {
		added = append(added, model.NewClaim("B045", obj(k), val()))
	}
	cfg := DefaultConfig()
	cfg.MinShared = 2
	return diffCase{cfg: cfg, base: base, batches: [][]model.Claim{
		{model.NewClaim("A00", obj(0), "changed")},
		{model.NewClaim("Y99", obj(1), "changed")},
		{model.NewClaim("Z", priv("z", 9), "z")},
		everyButB04,
		added,
		{model.NewClaim("N1", priv("n", 1), "n")},
	}}
}

// mergePairsRef is mergePairs as it was: count the kept records, then merge
// them with the fresh ones one comparison and one copy at a time.
func mergePairsRef(prev *State, srcOf []int32, dirtySrc []bool, fresh []pairRec) []pairRec {
	kept := func(p *pairRec) bool {
		if srcOf != nil {
			p.a, p.b = srcOf[p.a], srcOf[p.b]
		}
		return !dirtySrc[p.a] && !dirtySrc[p.b]
	}
	nKept := 0
	for _, p := range prev.pairs {
		if kept(&p) {
			nKept++
		}
	}
	if nKept == 0 {
		return fresh
	}
	all := make([]pairRec, 0, nKept+len(fresh))
	fi := 0
	for _, p := range prev.pairs {
		if !kept(&p) {
			continue
		}
		for fi < len(fresh) && comparePairs(fresh[fi], p) < 0 {
			all = append(all, fresh[fi])
			fi++
		}
		all = append(all, p)
	}
	return append(all, fresh[fi:]...)
}

// snapshotWorld is the root package's benchSnapshotWorld: nSources
// independents with accuracies spread over 0.55-0.95, one copier per ten,
// nObjects objects.
func snapshotWorld(tb testing.TB, nSources, nObjects int) *dataset.Dataset {
	accs := make([]float64, nSources)
	for i := range accs {
		accs[i] = 0.55 + 0.4*float64(i%9)/8
	}
	var copiers []synth.CopierSpec
	for i := 0; i < nSources/10; i++ {
		copiers = append(copiers, synth.CopierSpec{MasterIndex: i, CopyRate: 0.8, OwnAcc: 0.6})
	}
	sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
		Seed: int64(nSources)*31 + int64(nObjects), NObjects: nObjects, IndependentAcc: accs, Copiers: copiers, FalsePool: 5,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sw.Dataset
}

var benchScores []float64 // keeps the benchmarked call's result live

// BenchmarkTruthStepWide times the truth step of one discounted round over
// the wide world (the shape bench/ calls wide: 500 + 50 sources × 30
// objects) — the objects a source-major append dirties — on one core, from
// the world's solved state, through a discount made as refine makes it:
// rank the sources and, as the table picks, list the partners or rank the
// value groups and fill the factor table, then score every value group of
// every object. ns/mul divides by the reference's multiplies, Σ k(k−1)/2
// over the groups (muls/op, 2 587 302); discount_muls/op counts those the
// kernel the table picks performs. The table is dense, so the column-wise
// product runs and performs them all.
func BenchmarkTruthStepWide(b *testing.B) {
	benchTruthStep(b, snapshotWorld(b, 500, 30))
}

// BenchmarkTruthStepMid is the same on the mid shape (100 + 10 sources × 400
// objects), the one bench/'s ingest_mixed appends to. Its pairs share 400
// objects, so all but the planted copiers' factors are exactly 1 and the
// partner lists run: discount_muls/op, the multiplies by a factor other than
// 1, is a few thousand of muls/op's 1.4 million.
func BenchmarkTruthStepMid(b *testing.B) {
	benchTruthStep(b, snapshotWorld(b, 100, 400))
}

func benchTruthStep(b *testing.B, d *dataset.Dataset) {
	cfg := DefaultConfig()
	st, err := Solve(d, nil, cfg)
	if err != nil {
		b.Fatal(err)
	}
	c := d.Compiled()
	solver := truth.NewDenseSolver(c, cfg.Truth)
	weights := make([]float64, c.NumSources())
	solver.FillWeights(st.acc, weights)
	dc := newDiscount(c, st.tot, cfg.CopyRate, true)
	dc.rank(st.acc)
	muls, nonUnit := discountMuls(c, dc)
	performed := muls
	if dc.sparse {
		performed = nonUnit
	}
	sc := newDepenScratch(solver, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dc.rank(st.acc)
		for oi := 0; oi < c.NumObjects(); oi++ {
			benchScores = scoreObjectDiscounted(solver, oi, weights, dc, sc)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(muls), "ns/mul")
	b.ReportMetric(float64(muls), "muls/op")
	b.ReportMetric(float64(performed), "discount_muls/op")
}

// discountMuls counts, over every value group of c, the multiplies of the
// reference product loop under dc's ranking, Σ k(k−1)/2, and those of them
// by a factor other than exactly 1.
func discountMuls(c *dataset.Compiled, dc *discount) (all, nonUnit int) {
	nS := c.NumSources()
	for g := range c.GroupValue {
		srcs := c.GroupSrc[c.GroupSrcStart[g]:c.GroupSrcStart[g+1]]
		all += len(srcs) * (len(srcs) - 1) / 2
		for _, s := range srcs {
			for _, q := range srcs {
				if dc.pos[q] < dc.pos[s] && indep(dc.tot[int(q)*nS:][:nS], s, dc.copyRate) != 1 {
					nonUnit++
				}
			}
		}
	}
	return all, nonUnit
}
