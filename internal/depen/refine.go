// The ACCUCOPY loop: one implementation for flat and incremental solves,
// from dense state to dense state.
//
// A State is everything a solve derives, in the compiled index's own terms:
// the accuracy vector, the posterior vector over the value groups, the
// source×source table of total dependence posteriors, and the analysed pairs
// as pointer-free records in (a, b) order. refine takes a dataset and the
// State of its previous epoch and returns the State of this one: it clones
// the predecessor's tables with a plain copy (through an index remap only
// when the batch grew a table), then, for a batch that marks a set of sources
// and objects dirty, each round
//
//   - ranks the sources once, by (accuracy desc, index asc): the vote
//     discount's order within any value group is that one order, restricted.
//     When at most an eighth of the totals table's pairs have a factor other
//     than exactly 1, it lists each source's partners — the sources ranked
//     above it whose factor for it is not 1 — so the discount multiplies
//     those alone; otherwise it scatters the sources, in rank order, into
//     every value group they assert, so each group's members lie ranked, and
//     evaluates each pair's factor once into a table over ranks, which the
//     discount multiplies from (discount.rank in compiled.go),
//   - rescores only the dirty objects' posteriors (untouched objects keep
//     their converged rows),
//   - re-estimates every source's accuracy over the full posterior vector
//     (cheap, and it keeps the global accuracy/vote-weight coupling exact),
//   - rescores only the dirty pairs — pairs with a dirty member, which
//     includes every pair new to the candidate set — and overwrites their
//     cells of the table. A pair's posteriors depend on nothing but its
//     members' accuracies and its evidence (kt, kf, kd), so each worker
//     keeps a table of those it has computed this solve and a pair whose
//     five inputs repeat another's, bit for bit, takes its posteriors from
//     there (depenScratch.posteriors in compiled.go).
//
// Past finding the batch's sources and objects in the index (and, when the
// batch grew a table, where the new names sorted), no step of it reads a
// string or a map. A flat solve (a dataset with no append log) is the
// degenerate case: the predecessor is nil, so accuracies start at
// InitialAccuracy, every source, object and pair is dirty, nothing is kept,
// and the loop runs up to MaxRounds instead of RefineRounds. Its round 1 is
// undiscounted — no verdict exists yet, every independence factor is exactly
// 1 — so it scores plain vote sums and skips the rank-and-discount pass.
//
// Kept pairs are exact where it matters and approximate by design where it
// does not: their Shared/Same counts are provably current, because growing
// a pair's overlap or agreement takes a claim by one of its members, which
// would have dirtied it; their verdicts are the predecessor's, so the
// accuracy and posterior drift a batch induces elsewhere is not re-applied
// to them. That bounds an append's cost (dirtying every pair that merely
// shares an object with the batch is a full rescore on dense datasets).
//
// A Result is a view of a State for library callers that want names:
// posterior and accuracy maps, the chosen values, AllPairs sorted by
// confidence and the thresholded Dependences. State.Result builds one — a
// sort of every pair and a string pair per record, which on a many-source
// world costs more than the append that produced the State — so only those
// callers pay: Detect and Refine return one (and it carries its State, so a
// Refine chain stays dense). Nothing on the serving path builds one: a
// session's answers, fusion, recommendations and appends read the State
// itself. There is no way back from a view: a session loaded from a snapshot
// holds a State too, assembled by StateFromParts from the stored vectors and
// pair records as they lie.
//
// refine is a pure function of (dataset, predecessor state, config). The
// live path (Session.Append advancing its state) and the rebuild path (Solve
// replaying the log from the flat base) run this same code on identical
// inputs, which makes them bit-identical by construction.
package depen

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"unsafe"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/engine"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/truth"
)

// State is the dense outcome of one solve over one dataset epoch. It is
// immutable once returned: successors copy it, sessions alias its vectors.
type State struct {
	c *dataset.Compiled
	// acc is per source, probs per value group (c.GroupValue order).
	acc, probs []float64
	// tot[i*nS+j] is the total (both-direction) dependence posterior of the
	// pair {i, j}, which vote discounting and the query planner read.
	tot []float64
	// pairs holds every analysed pair, ascending by (a, b) — the directional
	// posteriors live here only, found by binary search.
	pairs     []pairRec
	rounds    int
	converged bool
}

// pairRec is one analysed pair's verdict and evidence (see Dependence) by
// dense source index, a < b.
type pairRec struct {
	a, b, shared, same int32
	probAB, probBA     float64
	kt, kf, kd         float64
}

// Accuracy returns the per-source accuracy vector and Totals the flat
// source×source total dependence posterior, both in compiled source order —
// the two tables the query planner serves from. Read-only.
func (st *State) Accuracy() []float64 { return st.acc }
func (st *State) Totals() []float64   { return st.tot }

// CopyProbs returns P(a copies b) and P(b copies a); zeros for an unanalysed
// pair or an unknown source.
func (st *State) CopyProbs(a, b model.SourceID) (ab, ba float64) {
	ai, aok := st.c.SourceIndex(a)
	bi, bok := st.c.SourceIndex(b)
	if !aok || !bok {
		return 0, 0
	}
	lo, hi := min(ai, bi), max(ai, bi)
	at, ok := slices.BinarySearchFunc(st.pairs, pairRec{a: lo, b: hi}, comparePairs)
	if !ok {
		return 0, 0
	}
	p := &st.pairs[at]
	if ai == lo {
		return p.probAB, p.probBA
	}
	return p.probBA, p.probAB
}

// EachPair calls fn with every analysed pair in (a, b) order — compiled
// source indexes, a < b — and its posteriors P(a copies b), P(b copies a).
func (st *State) EachPair(fn func(a, b int, ab, ba float64)) {
	for i := range st.pairs {
		p := &st.pairs[i]
		fn(int(p.a), int(p.b), p.probAB, p.probBA)
	}
}

// pairRecBytes is the size of a stored pair record: pairRec as it lies in
// memory, four int32s and then five float64s, 56 bytes with no padding.
const pairRecBytes = 4*4 + 5*8

// A stored record is a cast of the array, so the struct may not grow a byte.
var _ [pairRecBytes - unsafe.Sizeof(pairRec{})]byte
var _ [unsafe.Sizeof(pairRec{}) - pairRecBytes]byte

// Posteriors returns the posterior vector, one entry per value group in
// compiled order; Rounds and Converged how the solve ended. Read-only.
func (st *State) Posteriors() []float64 { return st.probs }
func (st *State) Rounds() int           { return st.rounds }
func (st *State) Converged() bool       { return st.converged }

// PairBytes returns the analysed pairs as stored in a snapshot: the record
// array itself, pairRecBytes per record in (a, b) order, host byte order.
// The bytes alias the state; read-only.
func (st *State) PairBytes() []byte {
	if len(st.pairs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&st.pairs[0])), len(st.pairs)*pairRecBytes)
}

// StateFromParts assembles a stored state over c, the index of the dataset it
// was solved on: acc per source and probs per value group, and pairs in
// PairBytes' layout, all three taken over as they lie (pairs is copied only
// when it is not 8-byte aligned). The totals table is derived, each analysed
// pair's cell ProbAB + ProbBA as a solve writes it. Parts no solve produces
// are an error: vectors of the wrong length, a partial record, a record whose
// sources are not a < b or out of range, records out of (a, b) order or given
// twice.
func StateFromParts(c *dataset.Compiled, acc, probs []float64, pairs []byte,
	rounds int, converged bool) (*State, error) {
	nS := c.NumSources()
	if len(acc) != nS || len(probs) != len(c.GroupValue) {
		return nil, fmt.Errorf("depen: %d accuracies and %d posteriors for %d sources and %d value groups",
			len(acc), len(probs), nS, len(c.GroupValue))
	}
	recs, err := pairRecs(pairs, nS, nil)
	if err != nil {
		return nil, err
	}
	st := &State{
		c: c, acc: acc, probs: probs,
		tot:    make([]float64, nS*nS),
		pairs:  recs,
		rounds: rounds, converged: converged,
	}
	st.setTotals(recs)
	return st, nil
}

// pairRecs casts pairs, in PairBytes' layout, to records — in place when the
// bytes are 8-byte aligned, a copy otherwise — and checks them: a whole
// number of records, each naming sources a < b < nS, in strictly ascending
// (a, b) order. With dirty non-nil every record must also have a dirty
// member.
func pairRecs(pairs []byte, nS int, dirty []bool) ([]pairRec, error) {
	if len(pairs)%pairRecBytes != 0 {
		return nil, fmt.Errorf("depen: %d bytes of pair records is not a whole number of %d-byte records",
			len(pairs), pairRecBytes)
	}
	n := len(pairs) / pairRecBytes
	if n == 0 {
		return nil, nil
	}
	var recs []pairRec
	if uintptr(unsafe.Pointer(&pairs[0]))%unsafe.Alignof(pairRec{}) == 0 {
		recs = unsafe.Slice((*pairRec)(unsafe.Pointer(&pairs[0])), n)
	} else {
		recs = make([]pairRec, n)
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&recs[0])), len(pairs)), pairs)
	}
	for k := range recs {
		p := &recs[k]
		if p.a < 0 || p.a >= p.b || int(p.b) >= nS {
			return nil, fmt.Errorf("depen: pair %d names sources %d and %d of %d", k, p.a, p.b, nS)
		}
		if k > 0 && comparePairs(recs[k-1], *p) >= 0 {
			return nil, fmt.Errorf("depen: pair %d (sources %d and %d) is out of order or given twice", k, p.a, p.b)
		}
		if dirty != nil && !dirty[p.a] && !dirty[p.b] {
			return nil, fmt.Errorf("depen: pair %d (sources %d and %d) has no member the batch names", k, p.a, p.b)
		}
	}
	return recs, nil
}

// setTotals writes each record's total posterior, ProbAB + ProbBA as a solve
// writes it, into both of its cells of the totals table.
func (st *State) setTotals(recs []pairRec) {
	nS := st.c.NumSources()
	for k := range recs {
		p := &recs[k]
		t := p.probAB + p.probBA
		st.tot[int(p.a)*nS+int(p.b)] = t
		st.tot[int(p.b)*nS+int(p.a)] = t
	}
}

// Solve returns the dense state of d's last epoch — Detect and Refine
// without the Result. Given prev, the state of d's previous epoch
// (d.At(d.Epoch()-1)), it takes it across d's most recently appended batch in
// cfg.RefineRounds bounded passes; given nil it replays d's whole log from
// the flat base, which reaches the same state.
func Solve(d *dataset.Dataset, prev *State, cfg Config) (*State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !d.Frozen() {
		return nil, fmt.Errorf("depen: dataset must be frozen")
	}
	if prev != nil {
		if d.Epoch() == 0 {
			return nil, fmt.Errorf("depen: Refine requires an appended dataset (use Detect for flat datasets)")
		}
		return refine(d, prev, cfg), nil
	}
	for e := 0; e <= d.Epoch(); e++ {
		at, err := d.At(e) // the last is d itself
		if err != nil {
			return nil, err
		}
		prev = refine(at, prev, cfg)
	}
	return prev, nil
}

// Refine advances prev — the Detect result of d's previous epoch — across
// d's most recently appended batch. The result is exactly what Detect(d, cfg)
// produces for the final batch of d's log.
func Refine(d *dataset.Dataset, prev *Result, cfg Config) (*Result, error) {
	if prev == nil || prev.st == nil {
		return nil, fmt.Errorf("depen: Refine requires the predecessor's result")
	}
	st, err := Solve(d, prev.st, cfg)
	if err != nil {
		return nil, err
	}
	return st.Result(cfg), nil
}

// refine solves d given prev, the state of d's previous epoch; a nil prev is
// the empty predecessor of a flat d.
//
// The candidate set is assembled incrementally: a pair either has a dirty
// member (joined fresh over d's claim lists) or is carried over from
// the predecessor verbatim — rebuilding the full pair×overlap structure per
// batch would cost as much as a flat solve.
func refine(d *dataset.Dataset, prev *State, cfg Config) *State {
	c := d.Compiled()
	solver := truth.NewDenseSolver(c, cfg.Truth)
	nS := c.NumSources()
	nO := c.NumObjects()

	// Dirty sets, fixed for the whole solve: the batch's sources and objects,
	// and through them the pairs whose evidence the batch can have moved.
	// All nil for a flat solve, where everything is dirty.
	dirtySrc, dirtyObj, dirtyObjs := dirtySets(c, d.Batch(), prev == nil)
	nDirtyObj := nO
	if dirtyObjs != nil {
		nDirtyObj = len(dirtyObjs)
	}

	// Without a predecessor everything starts at the prior: InitialAccuracy
	// and zero rows. With one, its vectors and tables are copied; every group
	// it never saw belongs to a dirty object and is rescored in round 1
	// before anything reads it.
	st := &State{c: c}
	rounds := cfg.MaxRounds
	var srcOf []int32
	if prev == nil {
		st.acc = make([]float64, nS)
		for i := range st.acc {
			st.acc[i] = cfg.Truth.InitialAccuracy
		}
		st.probs = make([]float64, len(c.GroupValue))
		st.tot = make([]float64, nS*nS)
	} else {
		rounds = cfg.EffectiveRefineRounds()
		srcOf = st.carry(prev, dirtySrc, dirtyObj, cfg.Truth.InitialAccuracy)
	}
	// The discount reads the total dependence posterior going into a round:
	// the predecessor's verdicts, with the dirty pairs' cells overwritten
	// after every round (the kept pairs' never change). dc.on says it holds
	// any verdict at all; until one exists — round 1 of a flat solve — every
	// discount factor is exactly 1 and scoring skips the discount.
	acc, probs := st.acc, st.probs
	dc := newDiscount(c, st.tot, cfg.CopyRate, prev != nil && len(prev.pairs) > 0)

	// A pair with a dirty member is superseded by its freshly-joined
	// candidate (overlap only grows, so it still is one): its old verdict
	// discounts round 1 and is rescored from then on.
	cands, ov := buildCandidates(c, cfg.MinShared, dirtySrc)
	fresh := make([]pairRec, len(cands))

	weights := make([]float64, nS)
	next := make([]float64, nS)
	// Allocated once per solve: every ForNScratch call hands out the same
	// scratch, in the order it asks (on this goroutine, before its workers run).
	// Each worker's posterior table is sized by the pairs the solve scores.
	var scratch []*depenScratch
	taken := 0
	slots := memoSlots(len(cands))
	nextScratch := func() *depenScratch {
		if taken == len(scratch) {
			scratch = append(scratch, newDepenScratch(solver, slots))
		}
		taken++
		return scratch[taken-1]
	}
	forN := func(n int, step func(int, *depenScratch)) {
		taken = 0
		engine.ForNScratch(n, nextScratch, step)
	}
	logPrior := [3]float64{
		math.Log(1 - cfg.Alpha), math.Log(cfg.Alpha / 2), math.Log(cfg.Alpha / 2),
	}

	// The two per-item steps of a round, built once: they read acc, next,
	// probs and dc as the rounds update them.
	truthStep := func(k int, sc *depenScratch) {
		oi := k
		if dirtyObjs != nil {
			oi = int(dirtyObjs[k])
		}
		row := solver.Row(probs, oi)
		if kr := solver.KnownRow(oi); kr != nil {
			copy(row, kr)
			return
		}
		scores := scoreObjectDiscounted(solver, oi, weights, dc, sc)
		solver.FinishObject(oi, scores, row, sc.ds)
	}
	pairStep := func(pi int, sc *depenScratch) {
		fresh[pi] = scorePairDense(solver, cands[pi], ov, probs, next, cfg, logPrior, sc)
	}

	for round := 1; round <= rounds; round++ {
		// Truth step over the dirty objects, with dependence discounts from
		// the previous round.
		solver.FillWeights(acc, weights)
		dc.rank(acc)
		if rankedHook != nil {
			rankedHook(dc)
		}
		forN(nDirtyObj, truthStep)

		// Accuracy step over every source: untouched sources recompute the
		// same sums from unchanged rows, so this keeps the global coupling
		// without costing precision.
		solver.UpdateAccuracy(probs, next)

		// Dependence step over the dirty pairs, in their canonical order.
		forN(len(cands), pairStep)
		st.setTotals(fresh)
		dc.on = dc.on || len(cands) > 0
		st.rounds = round

		if truth.MaxAccuracyDeltaVec(acc, next) < cfg.Tol {
			copy(acc, next)
			st.converged = true
			break
		}
		copy(acc, next)
	}
	st.pairs = mergePairs(prev, srcOf, dirtySrc, fresh)
	return st
}

// rankedHook, when set, is called with each round's discount once it is
// ranked, before the round's truth step reads it.
var rankedHook func(*discount)

// rankSources fills order with the source indexes by (accuracy desc, index
// asc) — a strict total order — and pos with its inverse: pos[s] is s's rank.
func rankSources(acc []float64, order, pos []int32) {
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int {
		if byAcc := cmp.Compare(acc[j], acc[i]); byAcc != 0 {
			return byAcc
		}
		return cmp.Compare(i, j)
	})
	for r, s := range order {
		pos[s] = int32(r)
	}
}

// carry fills st's vectors and table from prev, the state of the previous
// epoch, and returns the map from prev's source indexes to st's (nil when
// the batch added no source). What the batch did not grow is cloned; what it
// did is re-indexed, its new sources at the prior. Posterior rows move
// object by object, since a dirty object's row can change length; dirty rows
// are left for round 1 to fill.
func (st *State) carry(prev *State, dirtySrc, dirtyObj []bool, initialAccuracy float64) []int32 {
	c, pc := st.c, prev.c
	nS, nOld := c.NumSources(), pc.NumSources()
	srcOf := grownIndex(nOld, nS, dirtySrc, func(i, j int) bool { return c.Source(i) == pc.Source(j) })
	if srcOf == nil {
		st.acc, st.tot = slices.Clone(prev.acc), slices.Clone(prev.tot)
	} else {
		st.acc = make([]float64, nS)
		for i := range st.acc {
			st.acc[i] = initialAccuracy
		}
		st.tot = make([]float64, nS*nS)
		for j, i := range srcOf {
			st.acc[i] = prev.acc[j]
			for j2, i2 := range srcOf {
				st.tot[int(i)*nS+int(i2)] = prev.tot[j*nOld+j2]
			}
		}
	}
	nOldObj := pc.NumObjects()
	objOf := grownIndex(nOldObj, c.NumObjects(), dirtyObj, func(i, j int) bool { return c.Object(i) == pc.Object(j) })
	st.probs = make([]float64, len(c.GroupValue))
	for j := 0; j < nOldObj; j++ {
		i := j
		if objOf != nil {
			i = int(objOf[j])
		}
		if !dirtyObj[i] {
			copy(st.probs[c.GroupStart[i]:c.GroupStart[i+1]], prev.probs[pc.GroupStart[j]:pc.GroupStart[j+1]])
		}
	}
	return srcOf
}

// grownIndex maps each index of a sorted interning table of nOld entries to
// its index in the successor's table of nNew, or returns nil when the table
// did not grow (the log is append-only, so equal sizes mean equal tables).
// The old table is a subsequence of the new one and only the batch can have
// named a new entry, so a clean new index is the next old one and only dirty
// ones are compared — same(i, j) reports new[i] == old[j].
func grownIndex(nOld, nNew int, dirty []bool, same func(i, j int) bool) []int32 {
	if nOld == nNew {
		return nil
	}
	newOf := make([]int32, nOld)
	j := 0
	for i := 0; i < nNew && j < nOld; i++ {
		if !dirty[i] || same(i, j) {
			newOf[j] = int32(i)
			j++
		}
	}
	return newOf
}

// mergePairs returns the successor's pair list: prev's pairs without a dirty
// member, re-indexed through srcOf, merged with the rescored ones. Both are
// in (a, b) order — srcOf is increasing — and disjoint. The dropped records
// are found by dirtyRuns, and the kept ones between them are copied a run at
// a time, split only where a fresh one sorts inside, into a list sized
// exactly.
func mergePairs(prev *State, srcOf []int32, dirtySrc []bool, fresh []pairRec) []pairRec {
	if prev == nil || len(prev.pairs) == 0 {
		return fresh
	}
	old := prev.pairs
	dirty := dirtySrc
	if srcOf != nil { // over prev's sources
		dirty = make([]bool, len(srcOf))
		for j, i := range srcOf {
			dirty[j] = dirtySrc[i]
		}
	}
	runs := dirtyRuns(old, dirty)
	kept := len(old)
	for _, r := range runs {
		kept -= int(r[1] - r[0])
	}
	if kept == 0 { // every source dirty, or every pair has a dirty member
		return fresh
	}
	all := make([]pairRec, 0, kept+len(fresh))
	// before reports that fresh record f sorts before old record p.
	before := func(f, p *pairRec) bool {
		a, b := p.a, p.b
		if srcOf != nil {
			a, b = srcOf[a], srcOf[b]
		}
		return f.a < a || f.a == a && f.b < b
	}
	fi, lo := 0, 0
	keep := func(hi int) { // the kept run old[lo:hi], with the fresh records sorting into it
		for lo < hi {
			at := hi
			if fi < len(fresh) && before(&fresh[fi], &old[hi-1]) {
				at = lo + sort.Search(hi-lo, func(k int) bool { return before(&fresh[fi], &old[lo+k]) })
			}
			n := len(all)
			all = append(all, old[lo:at]...)
			for i := n; srcOf != nil && i < len(all); i++ {
				all[i].a, all[i].b = srcOf[all[i].a], srcOf[all[i].b]
			}
			for lo = at; lo < hi && fi < len(fresh) && before(&fresh[fi], &old[lo]); fi++ {
				all = append(all, fresh[fi])
			}
		}
	}
	for _, r := range runs {
		keep(int(r[0]))
		lo = int(r[1])
	}
	keep(len(old))
	return append(all, fresh[fi:]...)
}

// dirtyRuns returns, in ascending order, runs pairs[lo:hi] that together are
// exactly the records, in (a, b) order over sources [0, len(dirty)), with a
// member dirty marks: a dirty source's whole row, and in a clean row the
// record of each dirty column, found by binary search. Rows are found by
// binary search too, so the cost is the rows and the dirty columns, not the
// records. Each search stays inside the records it can end in: row a holds
// at most one record per b > a, in b order, so its end lies within
// len(dirty)−1−a records of its start, and column b within b−a of it.
func dirtyRuns(pairs []pairRec, dirty []bool) [][2]int32 {
	var cols []int32 // the dirty sources, ascending
	for s, d := range dirty {
		if d {
			cols = append(cols, int32(s))
		}
	}
	if len(cols) == 0 {
		return nil
	}
	var runs [][2]int32
	for lo := 0; lo < len(pairs); {
		a := pairs[lo].a
		row := pairs[lo:min(len(pairs), lo+len(dirty)-1-int(a))]
		row = row[:sort.Search(len(row), func(k int) bool { return row[k].a > a })]
		if dirty[a] {
			runs = append(runs, [2]int32{int32(lo), int32(lo + len(row))})
			lo += len(row)
			continue
		}
		next := 0 // the row's records before next are settled
		first, _ := slices.BinarySearch(cols, a+1)
		for _, b := range cols[first:] {
			in := row[next:min(len(row), int(b-a))]
			next += sort.Search(len(in), func(k int) bool { return in[k].b >= b })
			if next == len(row) {
				break
			}
			if row[next].b == b {
				runs = append(runs, [2]int32{int32(lo + next), int32(lo + next + 1)})
				next++
			}
		}
		lo += len(row)
	}
	return runs
}

// comparePairs is the order of State.pairs: by (a, b).
func comparePairs(x, y pairRec) int {
	if x.a != y.a {
		return cmp.Compare(x.a, y.a)
	}
	return cmp.Compare(x.b, y.b)
}

// dirtySets returns a batch's sources and objects as masks over c's tables,
// and the objects again as an ascending index list; all nil when everything
// is dirty.
func dirtySets(c *dataset.Compiled, batch []model.Claim, all bool) (dirtySrc, dirtyObj []bool, dirtyObjs []int32) {
	if all {
		return nil, nil, nil
	}
	nO := c.NumObjects()
	dirtySrc = make([]bool, c.NumSources())
	dirtyObj = make([]bool, nO)
	for _, cl := range batch {
		if si, ok := c.SourceIndex(cl.Source); ok {
			dirtySrc[si] = true
		}
		if oi, ok := c.ObjectIndex(cl.Object); ok {
			dirtyObj[oi] = true
		}
	}
	dirtyObjs = make([]int32, 0, nO)
	for oi := 0; oi < nO; oi++ {
		if dirtyObj[oi] {
			dirtyObjs = append(dirtyObjs, int32(oi))
		}
	}
	return dirtySrc, dirtyObj, dirtyObjs
}
