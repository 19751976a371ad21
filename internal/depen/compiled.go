// Dense (compiled-index) building blocks of the ACCUCOPY loop in refine.go.
//
// They re-express the map reference (detectMaps, in reference_test.go) over
// dataset.Compiled: a candidate's overlap becomes its shared-object count
// plus a slice of one flat int32 array of the value groups its members
// agree on, built by a gather join (one source's groups scattered over the
// objects, each partner's claim list looked up in them; every entry writes
// its group and only a shared, agreeing one is kept, so no branch depends
// on the data) into arrays the join reserves exactly once (joinRoom); the
// directional posteriors become a flat source×source table, and each worker
// remembers the posteriors of the (acc[a], acc[b], kt, kf, kd) it has
// scored, which repeat across pairs; and the per-object discount factors
// come from one ranking of the sources per round and one of two kernels per
// value group, which the round's table picks:
//
//   - where more than an eighth of the pairs have a factor 1 − c·min(dep, 1)
//     other than exactly 1 (the wide world: 99.8 % of them), the column-wise
//     product, fillFactorsRanked, which multiplies every factor. Once per
//     round, the sources are scattered in rank order into rows laid over the
//     value groups, so every group's members lie ranked without a sort, and
//     every factor is evaluated once into a table over pairs of ranks; the
//     kernel multiplies table entries;
//   - where fewer do (the mid world: its pairs share 400 objects, so every
//     posterior but the planted copiers' rounds the factor to 1), the partner
//     lists, fillFactorsSparse: each source's partners, the sources ranked
//     above it whose factor for it is not exactly 1, are listed once per
//     round, and a member's factor multiplies only those in its group.
//
// Both take every factor that is not exactly 1 in the reference's order, and
// x·1 == x, so they give the same bits; a remembered posterior is the bits
// its computation gave, found under the exact bits of all its inputs.
// Iteration, summation and product orders match the reference exactly, so
// results are bit-identical (enforced by the golden equivalence tests,
// TestFillFactorsMatchOracle for both kernels, TestRankedGroupsMatchSort for
// the ranked rows, the differential suite's saturated world, whose table
// takes the partner lists, and TestPairMemoMatchesDirect for the posterior
// tables).
package depen

import (
	"math"
	"math/bits"
	"slices"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/stats"
	"sourcecurrents/internal/truth"
)

// pairCand is one candidate pair: its n shared objects, and the same of
// them on which both members assert one value, stored as the overlap slice
// [off, off+same).
type pairCand struct {
	a, b   int32
	off, n int32
	same   int32
}

// overlaps holds every candidate's agreeing shared objects, ascending, as
// the global value group both members assert: all a pair's score reads of
// them. A disagreeing shared object only counts, in n − same.
type overlaps []int32

// depenScratch is one worker's buffers for both the per-object truth step
// (score + discount factors) and the per-pair Bayes step.
type depenScratch struct {
	ds *truth.DenseScratch
	// The largest value group long: the ranked kernel's ranks (ord) and
	// products (f); the partner lists' members with a list (ord) and factors
	// (fac).
	ord    []int32
	f, fac []float64
	// One per source, made on first use: the ranked kernel's factors by
	// source, and the partner lists' group members.
	facOf []float64
	in    []bool
	logs  [3]float64
	post  [3]float64
	// memo is the pair step's posterior table, direct-mapped and a power of
	// two long: a key's slot is its hash shifted right by memoShift, 64 less
	// the table's log2 length.
	memo      []memoEntry
	memoShift uint
}

// memoEntry is one remembered pair posterior: the exact bits of the pair's
// (acc[a], acc[b], kt, kf, kd) and the (probAB, probBA) they give.
type memoEntry struct {
	key    [5]uint64
	ab, ba float64
	used   bool
}

// maxMemoSlots caps a worker's posterior table: 4 096 slots of 64 bytes.
const maxMemoSlots = 4096

// memoSlots is the posterior table's length for a solve that scores pairs
// pairs: the next power of two at or above it, at most maxMemoSlots.
func memoSlots(pairs int) int {
	n := 1
	for n < pairs && n < maxMemoSlots {
		n <<= 1
	}
	return n
}

// newDepenScratch makes one worker's scratch for a solve over solver's
// index, with a posterior table of slots entries, a power of two. The
// table is only valid for one solve's configuration (c, N, the prior), so a
// scratch never outlives its solve.
func newDepenScratch(solver *truth.DenseSolver, slots int) *depenScratch {
	k := solver.Compiled().MaxSourcesPerGroup()
	return &depenScratch{ds: solver.NewScratch(), ord: make([]int32, k),
		f: make([]float64, k), fac: make([]float64, k),
		memo: make([]memoEntry, slots), memoShift: uint(64 - bits.TrailingZeros(uint(slots)))}
}

// joinRoom is what buildCandidates reserves for a join of the pairs with a
// member dirtySrc marks (every pair when it is nil), so that neither array
// regrows. cands is the lesser of the number of those pairs and Σ_o C(k_o, 2)
// over the objects' claimant counts k_o, which bounds the pairs sharing an
// object. overlap is exactly what those pairs can store: a pair's entries are
// the value groups both members assert, so Σ_g [C(|g|, 2) − C(|g ∖ dirty|, 2)]
// over the value groups, plus the room the join writes into ahead of a pair's
// verdict, at most the longest row and one.
func joinRoom(c *dataset.Compiled, dirtySrc []bool) (cands, overlap int) {
	nS := c.NumSources()
	pairs := nS * (nS - 1) / 2
	if dirtySrc != nil {
		clean := nS - countTrue(dirtySrc)
		pairs -= clean * (clean - 1) / 2
	}
	shared := 0
	for oi := 0; oi < c.NumObjects(); oi++ {
		k := int(c.GroupSrcStart[c.GroupStart[oi+1]] - c.GroupSrcStart[c.GroupStart[oi]])
		shared += k * (k - 1) / 2
	}
	for g := range c.GroupValue {
		srcs := c.GroupSrc[c.GroupSrcStart[g]:c.GroupSrcStart[g+1]]
		k, clean := len(srcs), 0
		for _, s := range srcs {
			if dirtySrc != nil && !dirtySrc[s] {
				clean++
			}
		}
		overlap += k*(k-1)/2 - clean*(clean-1)/2
	}
	longest := 0
	for i := 0; i < nS; i++ {
		longest = max(longest, int(c.SrcStart[i+1]-c.SrcStart[i]))
	}
	return min(pairs, shared), overlap + longest + 1
}

// countTrue counts the marked entries of a mask.
func countTrue(mask []bool) int {
	n := 0
	for _, m := range mask {
		if m {
			n++
		}
	}
	return n
}

// buildCandidates joins the claim lists of every source pair with a dirty
// member, keeping pairs with at least minShared shared objects — the dense
// equivalent of Dataset.Pairs, in the same (i asc, j asc) order. A nil
// dirtySrc means every source is dirty: the full candidate set.
//
// The join is a gather: source i's group of each object it claims is
// scattered into one array over the objects, once per row, and each
// partner j's row looks its objects up in it, in j's (ascending) object
// order, so the agreeing groups come out ascending. No branch depends on
// the data: every entry of j's row writes its group, and only a shared and
// agreeing one keeps it by moving the write index past it.
func buildCandidates(c *dataset.Compiled, minShared int, dirtySrc []bool) ([]pairCand, overlaps) {
	// One reservation each, so neither array regrows or leaves its outgrown
	// copies behind: on the 550-source × 30-object world of
	// BenchmarkTruthStepWide a flat join reserves 10.35 MB of overlap, and
	// its pairs use all but 31 entries of it.
	nCands, nOv := joinRoom(c, dirtySrc)
	cands := make([]pairCand, 0, nCands)
	ov := make(overlaps, 0, nOv)
	nS := c.NumSources()
	// groupOf[o] is one more than row i's group for object o, and 0 where
	// row i does not claim o; scattered on i's first candidate pair and
	// cleared when its row ends.
	groupOf := make([]int32, c.NumObjects())
	for i := 0; i < nS; i++ {
		ai, ae := c.SrcStart[i], c.SrcStart[i+1]
		iDirty := dirtySrc == nil || dirtySrc[i]
		scattered := false
		for j := i + 1; j < nS; j++ {
			if !iDirty && !dirtySrc[j] {
				continue
			}
			if !scattered {
				for p := ai; p < ae; p++ {
					groupOf[c.SrcObj[p]] = c.SrcGroup[p] + 1
				}
				scattered = true
			}
			bi, be := c.SrcStart[j], c.SrcStart[j+1]
			// Room for the pair's largest possible overlap, and one more for
			// the write past its end an entry of j's row i does not claim
			// makes: joinRoom left at least that past what the kept pairs use.
			need := int(min(ae-ai, be-bi)) + 1
			off := int32(len(ov))
			n, w := gather(groupOf, c.SrcObj[bi:be], c.SrcGroup[bi:be], ov[off:int(off)+need])
			if int(n) < minShared {
				continue
			}
			ov = ov[:off+w]
			cands = append(cands, pairCand{a: int32(i), b: int32(j), off: off, n: n, same: w})
		}
		if scattered {
			for p := ai; p < ae; p++ {
				groupOf[c.SrcObj[p]] = 0
			}
		}
	}
	return cands, ov
}

// gather joins one row, (objs, grps), against the groups groupOf holds for
// its partner: every entry writes its group into buf, and only a shared,
// agreeing one keeps it, by moving the write index w past it; n counts the
// shared entries. buf holds one entry more than the pair can share.
func gather(groupOf, objs, grps, buf []int32) (n, w int32) {
	grps = grps[:len(objs)]
	for k, o := range objs {
		g, gi := grps[k], groupOf[o]
		buf[w] = g
		var shared, agree int32
		if gi != 0 {
			shared = 1
		}
		if gi == g+1 {
			agree = 1
		}
		n += shared
		w += agree
	}
	return n, w
}

// discount is one round's vote-discount inputs, which the truth step's
// workers share read-only: the round's ranking of the sources, the totals
// going into the round, and what the kernel the table picks reads: when the
// table is sparse, each source's partners, and when it is dense, the value
// groups ranked and the factor table. on is false while no verdict exists
// (round 1 of a flat solve): every factor is then exactly 1 and scoring skips
// the discount.
type discount struct {
	c          *dataset.Compiled
	on         bool
	order, pos []int32
	tot        []float64
	copyRate   float64
	// sparse says this round's partner lists are built: source s's are
	// part[partStart[s]:partStart[s+1]], ascending by rank.
	sparse    bool
	partStart []int32
	part      []partner
	keys      []uint64
	// Built in a dense round, allocated in the first: value group g's members
	// in rank order are ranked[GroupSrcStart[g]:GroupSrcStart[g+1]] (next is
	// the scatter's cursor per group), and table holds the factor
	// 1 − c·min(tot[order[i]][order[j]], 1) of each pair of ranks i < j at
	// row(i)[j], a packed upper triangle of nS(nS+1)/2 entries.
	ranked, next []int32
	table        []float64
}

// newDiscount makes the discount of a solve over c whose rounds read the
// totals table tot; on says whether it holds a verdict yet.
func newDiscount(c *dataset.Compiled, tot []float64, copyRate float64, on bool) *discount {
	nS := c.NumSources()
	return &discount{c: c, on: on, order: make([]int32, nS), pos: make([]int32, nS), tot: tot, copyRate: copyRate}
}

// partner is a source q ranked above the list's owner s whose factor for s,
// f = 1 − c·min(tot[q][s], 1), is not exactly 1.
type partner struct {
	q int32
	f float64
}

// rank ranks the sources by acc for the round about to run and picks its
// kernel: the partner lists when at most an eighth of the table's pairs have
// a factor other than exactly 1, the column-wise product otherwise, for
// which it ranks the value groups and fills the factor table.
func (dc *discount) rank(acc []float64) {
	rankSources(acc, dc.order, dc.pos)
	nS := len(dc.pos)
	dc.sparse = dc.on && dc.partners(nS*(nS-1)/16)
	if dc.on && !dc.sparse {
		dc.rankGroups()
		dc.fillTable()
	}
}

// rankGroups lays every value group's members out in rank order: it walks
// the sources by rank over their claim rows and appends each to the row of
// the group it asserts, one pass over the claims where a sort per group
// would cost Σ k log k.
func (dc *discount) rankGroups() {
	c := dc.c
	nG := len(c.GroupValue)
	if dc.ranked == nil {
		dc.ranked, dc.next = make([]int32, len(c.GroupSrc)), make([]int32, nG)
	}
	next := dc.next
	copy(next, c.GroupSrcStart[:nG])
	for _, s := range dc.order {
		for _, g := range c.SrcGroup[c.SrcStart[s]:c.SrcStart[s+1]] {
			dc.ranked[next[g]] = s
			next[g]++
		}
	}
}

// fillTable evaluates every pair's factor once for the round, in rank space:
// row(i)[j] = 1 − c·min(dep, 1) of the cell tot[order[i]][order[j]], i < j.
func (dc *discount) fillTable() {
	nS, tot, c := len(dc.pos), dc.tot, dc.copyRate
	if dc.table == nil {
		dc.table = make([]float64, nS*(nS+1)/2)
	}
	for i := 0; i < nS; i++ {
		from, row := tot[int(dc.order[i])*nS:][:nS], dc.row(int32(i))
		for j := i + 1; j < nS; j++ {
			row[j] = indep(from, dc.order[j], c)
		}
	}
}

// row returns the factor table's row of rank i, indexed by rank: its entries
// past i are rank i's factors, entry i is unused, and those before i belong
// to earlier rows.
func (dc *discount) row(i int32) []float64 {
	nS, r := len(dc.pos), int(i)
	return dc.table[r*nS-r*(r+1)/2:][:nS]
}

// partners builds every source's partner list under the current ranking
// and reports true, or reports false without building any when more than
// limit pairs have a factor other than exactly 1. The count stops at the
// first row past the limit, so a dense table pays a fraction of one pass,
// and nothing is allocated unless the lists are built.
func (dc *discount) partners(limit int) bool {
	nS, tot, c := len(dc.pos), dc.tot, dc.copyRate
	n := 0
	for i := 0; i < nS && n <= limit; i++ {
		row := tot[i*nS:][:nS]
		for j := i + 1; j < nS; j++ {
			if indep(row, int32(j), c) != 1 {
				n++
			}
		}
	}
	if n > limit {
		return false
	}
	// One key per pair, (the upper member's rank, the lower member), so that
	// sorting the keys puts every list in rank order.
	keys := slices.Grow(dc.keys[:0], n)
	for i := 0; i < nS; i++ {
		for j := i + 1; j < nS; j++ {
			hi, lo := int32(i), int32(j)
			if dc.pos[lo] < dc.pos[hi] {
				hi, lo = lo, hi
			}
			if indep(tot[int(hi)*nS:][:nS], lo, c) != 1 {
				keys = append(keys, uint64(dc.pos[hi])<<32|uint64(lo))
			}
		}
	}
	slices.Sort(keys)
	if dc.partStart == nil {
		dc.partStart = make([]int32, nS+1)
	}
	start := dc.partStart
	clear(start)
	for _, key := range keys {
		start[uint32(key)+1]++
	}
	for s := 0; s < nS; s++ {
		start[s+1] += start[s]
	}
	// Fill each list from its start, which leaves start[s] at s's end, then
	// shift the ends back into starts.
	part := slices.Grow(dc.part[:0], len(keys))[:len(keys)]
	for _, key := range keys {
		hi, lo := dc.order[key>>32], uint32(key)
		part[start[lo]] = partner{q: hi, f: indep(tot[int(hi)*nS:][:nS], int32(lo), c)}
		start[lo]++
	}
	copy(start[1:], start[:nS])
	start[0] = 0
	dc.keys, dc.part = keys, part
	return true
}

// fillFactorsSparse is fillFactorsRanked from the round's partner lists:
// member s's factor is the product of the f of its partners that are in the
// group, taken in the list's rank order. Every factor the dense product
// multiplies and this one skips is exactly 1, and x·1 == x, so the two give
// the same bits; a group in which no member has a partner gets ones alone.
func fillFactorsSparse(srcs []int32, dc *discount, sc *depenScratch) []float64 {
	fac, withList := sc.fac[:len(srcs)], sc.ord[:0]
	for p, s := range srcs {
		fac[p] = 1
		if dc.partStart[s] < dc.partStart[s+1] {
			withList = append(withList, int32(p))
		}
	}
	if len(withList) == 0 {
		return fac
	}
	if sc.in == nil {
		sc.in = make([]bool, len(dc.pos))
	}
	in := sc.in
	for _, s := range srcs {
		in[s] = true
	}
	for _, p := range withList {
		s, x := srcs[p], 1.0
		for _, pt := range dc.part[dc.partStart[s]:dc.partStart[s+1]] {
			if in[pt.q] {
				x *= pt.f
			}
		}
		fac[p] = x
	}
	for _, s := range srcs {
		in[s] = false
	}
	return fac
}

// fillFactorsRanked is discountTable.fillFactors over the dense view: charge
// each of a group's members, ranked (accuracy desc, index asc) by the
// round's rankGroups, the probability it did not copy from any
// higher-ranked one, and store it in the worker's facOf by source. It runs
// where the round's table is dense; where it is sparse, most of its
// multiplies would be by exactly 1 and fillFactorsSparse skips them.
// The product runs column-wise: each ranked member q in turn scales every
// lower-ranked f[r] by its factor, four q to one load and store of f[r].
// Every f[r] still takes its factors in the order q = 0 … r−1 — the
// reference's operations in its order, so its bits — but the inner iterations
// are independent instead of one chain of multiplies per member. A factor is
// read from the round's table along q's row, at r's rank: the value indep
// gives for the cell tot[q][r], the transpose of the reference's; tot is
// symmetric, both cells of a pair always being written together (refine,
// carry, StateFromParts; TestTotalsSymmetric).
func fillFactorsRanked(ranked []int32, dc *discount, sc *depenScratch) {
	k := len(ranked)
	rk, f := sc.ord[:k], sc.f[:k]
	for r, s := range ranked {
		rk[r] = dc.pos[s]
		f[r] = 1
	}
	for q := 0; q < k; q += 4 {
		// The block's own triangle, then everything ranked below it.
		hi := min(q+4, k)
		for i := q; i < hi; i++ {
			ri := dc.row(rk[i])
			for r := i + 1; r < hi; r++ {
				f[r] *= ri[rk[r]]
			}
		}
		if hi == k {
			break
		}
		r0, r1, r2, r3 := dc.row(rk[q]), dc.row(rk[q+1]), dc.row(rk[q+2]), dc.row(rk[q+3])
		for r := hi; r < k; r++ {
			j, x := rk[r], f[r]
			x *= r0[j]
			x *= r1[j]
			x *= r2[j]
			x *= r3[j]
			f[r] = x
		}
	}
	if sc.facOf == nil {
		sc.facOf = make([]float64, len(dc.pos))
	}
	for r, s := range ranked {
		sc.facOf[s] = f[r]
	}
}

// indep is 1 − c·min(dep, 1) for the cell of source s in a row of totals.
func indep(row []float64, s int32, copyRate float64) float64 {
	dep := row[s]
	if dep > 1 {
		dep = 1
	}
	return 1 - copyRate*dep
}

// scoreObjectDiscounted scores object oi's candidates with the dependence
// discount over the dense view: per candidate, sum each source's weight
// times its independence factor, in ascending source order. Without any
// verdict to discount by (dc.on false) every factor is exactly 1 and the
// score is the plain vote sum.
func scoreObjectDiscounted(solver *truth.DenseSolver, oi int, weights []float64, dc *discount,
	sc *depenScratch) []float64 {
	if !dc.on {
		return solver.ScoreObject(oi, weights, sc.ds)
	}
	c := solver.Compiled()
	gs, ge := c.GroupStart[oi], c.GroupStart[oi+1]
	scores := sc.ds.Scores(int(ge - gs))
	for k := range scores {
		g := gs + int32(k)
		lo, hi := c.GroupSrcStart[g], c.GroupSrcStart[g+1]
		srcs := c.GroupSrc[lo:hi]
		var cum float64
		if dc.sparse {
			fac := fillFactorsSparse(srcs, dc, sc)
			for p, si := range srcs {
				cum += weights[si] * fac[p]
			}
		} else {
			fillFactorsRanked(dc.ranked[lo:hi], dc, sc)
			for _, si := range srcs {
				cum += weights[si] * sc.facOf[si]
			}
		}
		scores[k] = cum
	}
	return scores
}

// scorePairDense accumulates one candidate's evidence — kt and kf over its
// agreeing shared objects, ascending as in the reference path, and kd, the
// count of the rest — and applies the three-hypothesis Bayes step. Without a
// ValueSim a group's class mass is its own posterior, read directly.
func scorePairDense(solver *truth.DenseSolver, cand pairCand,
	ov overlaps, probs, acc []float64, cfg Config, logPrior [3]float64,
	sc *depenScratch) pairRec {
	var kt, kf float64
	agree := ov[cand.off : cand.off+cand.same]
	if cfg.Truth.ValueSim == nil {
		for _, g := range agree {
			p := probs[g]
			kt += p
			kf += 1 - p
		}
	} else {
		for _, g := range agree {
			p := solver.ClassMass(probs, g)
			kt += p
			kf += 1 - p
		}
	}
	kd := float64(cand.n - cand.same)
	ab, ba := sc.posteriors(acc[cand.a], acc[cand.b], kt, kf, kd, cfg, logPrior)
	return pairRec{
		a: cand.a, b: cand.b, shared: cand.n, same: cand.same,
		probAB: ab, probBA: ba,
		kt: kt, kf: kf, kd: kd,
	}
}

// posteriors is the Bayes step of a pair whose members' accuracies are a1
// and a2 and whose evidence is (kt, kf, kd): P(a copies b), P(b copies a).
// Under one solve's configuration they are a pure function of those five
// values' bits, which repeat across pairs (the 150 975 pairs of the wide
// world have 3 848 distinct tuples), so the worker's table remembers them:
// a hit, which compares the whole key, returns the bits a miss computed and
// skips the logs and exps.
func (sc *depenScratch) posteriors(a1, a2, kt, kf, kd float64, cfg Config, logPrior [3]float64) (ab, ba float64) {
	key := [5]uint64{math.Float64bits(a1), math.Float64bits(a2),
		math.Float64bits(kt), math.Float64bits(kf), math.Float64bits(kd)}
	var h uint64
	for _, k := range key {
		h = (h ^ k) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	e := &sc.memo[h*0xbf58476d1ce4e5b9>>sc.memoShift]
	if e.used && e.key == key {
		return e.ab, e.ba
	}
	li, lab, lba := pairHypotheses(kt, kf, kd, a1, a2, cfg.CopyRate, cfg.Truth.N)
	sc.logs[0] = li + logPrior[0]
	sc.logs[1] = lab + logPrior[1]
	sc.logs[2] = lba + logPrior[2]
	post := sc.post[:]
	if err := stats.NormalizeLogInto(post, sc.logs[:]); err != nil {
		post[0], post[1], post[2] = 1, 0, 0
	}
	*e = memoEntry{key: key, ab: post[1], ba: post[2], used: true}
	return post[1], post[2]
}
