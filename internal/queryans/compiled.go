// Compiled (columnar-index) execution of the probing planner.
//
// Planner is the reusable form of AnswerObjects: built once from a frozen
// dataset plus accuracies/dependence, it answers unlimited queries against
// precompiled claim lists, a dense accuracy vector and precomputed vote
// weights. Five structural optimizations keep the per-query loop off the
// reference's O(P²·|query|) recompute shape without changing a single bit of
// the output (the golden equivalence tests enforce bit-identity against
// answerObjectsMaps):
//
//   - Selection is the reference's scan, paid for by what the query touches,
//     and it ends. The candidates are the claimants of the queried objects,
//     read off their value groups' source rows, so building them costs the
//     query's claims, not sources × objects lookups. The reference rescans
//     every candidate's gain at every probe step and rebuilds each
//     independence product from scratch. Here each candidate carries its
//     running product (multiplied in probe order, as the reference multiplies
//     it): a round charges every unprobed candidate the probe just made,
//     reading one row of the dependence table, then evaluates each one's gain
//     — same expression, same query-order uncovered sum, same float64 —
//     keeping the first maximum in candidate (== source id) order, and that
//     arg-max is the next probe. Consecutive candidates that cover the same
//     slots form a coverage class and share one uncovered sum per round. A
//     slot's coverage objCov = 1 − (1−cov)(1−a·i) rounds to exactly 1 after
//     a handful of accurate independent probes, and then stays there:
//     1 − (1−1)·x is 1 − 0 for every finite x. Once every slot reads 1 each
//     candidate's uncovered mass is a sum of exact zeros, every gain is
//     accuracy × product × 0 — a zero, of the product's sign — and
//     first-maximum-wins over zeros (−0 > +0 is false) is the first unprobed
//     candidate. So from that probe on nothing is swept or scanned: the rest
//     of the plan is the unprobed candidates in ascending index at gain zero
//     — the same tail ByID runs from its first probe. Where coverage never
//     settles (a slot with few or inaccurate claimants) the scan simply runs
//     every round. AccuracyCoverage gains never change, so its order is one
//     sort by (gain desc, candidate asc).
//
//   - Incremental group scoring. The reference rescores every value group
//     of every covered object after every probe, and each group score is an
//     O(k²) dependence-discounted sum. But a group's score is a pure
//     function of its members: a probe changes exactly one group per
//     covered object (the one holding the value it asserts), so every other
//     group's cached score is bit-for-bit what the reference would
//     recompute. The changed group keeps its members in reference rank
//     order (accuracy desc, id asc) with each member's discount product
//     cached; a member that ranks last extends the score in O(k) with the
//     exact same multiply-and-add sequence the reference uses, and a
//     mid-rank insert recomputes the affected suffix in reference order.
//
//   - Select, then score what is read. Probe selection never reads a group
//     score, and a group's final state depends on which sources were probed,
//     not on the order they were probed in. Scoring after every probe exists
//     only to fill Result.Steps and to feed the StopProb test, so Final
//     scores per probe only when StopProb is set; otherwise it runs
//     selection alone and then folds the probed claims in bulk (scoreProbed):
//     the probed sources are ranked once, walking them in rank order drops
//     each claim into its object's compiled value group (SrcGroup names it,
//     GroupSrcStart sizes it), which leaves every group's probed members in
//     reference rank order with no insert, shift or search; each group's
//     discount products are then computed four members at a time — four
//     independent multiply chains, each still taking its factors in rank
//     order — and summed by the reference's left fold. Same member order,
//     same products, same fold: Final and Probed are bit-identical to
//     Answer's.
//
//   - Pooled per-request state. All planning state — the query-slot
//     interning, the candidate CSR built in two passes over the claimant
//     rows (count, fill), the coverage/independence vectors, the per-object
//     group tables and the softmax buffer — lives in a planScratch recycled
//     through a sync.Pool shared by the planner and every planner Derive
//     returns, so a steady-state call allocates only the Result it hands to
//     the caller (for Answer that includes the trace: one Answer per probe
//     per query entry).
//
//   - Each object is answered once per planner. A Final that probed every
//     candidate probed every claimant of every object it asks about, so the
//     object's answer is a function of the planner (accuracies, vote
//     weights, dependence, CopyRate) and the object alone — not of the rest
//     of the query. The planner memoizes it per compiled object: such a plan
//     still selects (Probed is the query's), but when every queried object
//     is memoized it copies their answers out and skips the fold, and
//     otherwise folds and publishes each object's answer. Entries are
//     published atomically, and concurrent plans that race for one store the
//     same bits. Nothing else reads or writes the memo: not the trace, not a
//     StopProb plan, not a plan the cap or a NaN gain stopped short, and not
//     a planner with a NaN accuracy, whose rank sort has no total order and
//     so ranks a group's members by which other sources the query brings in.
//     A planner lives for one epoch, so the memo needs no invalidation;
//     Derive shares it unless N or CopyRate, which the fold reads, change.
//
// Accuracy and dependence inputs are probabilities. The scan is the
// reference's arithmetic whatever the values are; the tail's argument needs
// the products to stay finite (a NaN or infinite gain is not a zero), which
// the map reference never promised sensible output without either.
package queryans

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/stats"
	"sourcecurrents/internal/truth"
)

// Planner is a reusable compiled query planner. It is read-only after
// NewPlanner but for its per-object answer memo, whose entries are published
// atomically, so a single Planner may serve Answer calls from any number of
// concurrent goroutines (each call leases its own scratch from the shared
// pool).
type Planner struct {
	c   *dataset.Compiled
	cfg Config
	// acc and weights are the dense per-source accuracies and the
	// precomputed vote weights ln(n·A/(1−A)).
	acc     []float64
	weights []float64
	// dep returns the (symmetric) dependence posterior of a source-index
	// pair; never nil. The hot loops bypass it when a faster form exists:
	// depTab is the flat nS×nS posterior table when the planner was built
	// dense, and depZero is set when every pair is independent — both give
	// bit-identical arithmetic (a direct load is the same float64 the
	// closure returns, and a zero dependence multiplies by exactly 1).
	dep     func(a, b int32) float64
	depTab  []float64
	depZero bool
	// scratch pools *planScratch between Answer calls. Derived planners
	// share it, so per-request buffers amortize across every planner built
	// over the same compiled index.
	scratch *sync.Pool
	// final is the per-object memo of a plan that probed every candidate,
	// indexed by compiled object; nil where the fold is not a function of
	// the object alone (see the package comment).
	final []atomic.Pointer[Answer]
}

// NewPlanner compiles the configuration against d's columnar index,
// densifying cfg.Accuracy and wrapping cfg.Dependence. The Planner holds no
// reference to cfg's maps afterwards.
func NewPlanner(d *dataset.Dataset, cfg Config) (*Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !d.Frozen() {
		return nil, errors.New("queryans: dataset must be frozen")
	}
	c := d.Compiled()
	acc := make([]float64, c.NumSources())
	for i := range acc {
		if a, ok := cfg.Accuracy[c.Source(i)]; ok {
			acc[i] = a
		} else {
			acc[i] = cfg.DefaultAccuracy
		}
	}
	var dep func(a, b int32) float64
	depZero := cfg.Dependence == nil
	if depZero {
		dep = func(a, b int32) float64 { return 0 }
	} else {
		fn, sources := cfg.Dependence, c.SourceIDs()
		dep = func(a, b int32) float64 { return fn(sources[a], sources[b]) }
	}
	p := newPlanner(c, cfg, acc, dep)
	p.depZero = depZero
	return p, nil
}

// NewPlannerDense is NewPlanner for callers that already hold dense inputs
// (the serving session, however it came by its dataset: New, Append, AsOf or
// a snapshot's open): acc is indexed by d's compiled source order and depTab
// is the flat nS×nS total (both-direction) dependence posterior table. Both
// are retained, not copied, and must not be mutated afterwards. depTab must
// be bitwise symmetric (cell a·nS+b == cell b·nS+a, bit for bit): selection
// reads it by row, charging each candidate the cell in the probe's row where
// the reference reads the one in the candidate's. The session's table,
// depen's totals, is symmetric by construction (TestTotalsSymmetric pins it);
// nothing here checks it.
func NewPlannerDense(d *dataset.Dataset, cfg Config, acc, depTab []float64) (*Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !d.Frozen() {
		return nil, errors.New("queryans: dataset must be frozen")
	}
	c := d.Compiled()
	nS := c.NumSources()
	if len(acc) != nS || len(depTab) != nS*nS {
		return nil, errors.New("queryans: dense input sizes do not match the source count")
	}
	dep := func(a, b int32) float64 { return depTab[int(a)*nS+int(b)] }
	p := newPlanner(c, cfg, acc, dep)
	p.depTab = depTab
	return p, nil
}

func newPlanner(c *dataset.Compiled, cfg Config, acc []float64, dep func(a, b int32) float64) *Planner {
	p := &Planner{c: c, cfg: cfg, acc: acc, dep: dep}
	p.weights = make([]float64, len(acc))
	for i, a := range acc {
		p.weights[i] = truth.WeightOf(a, cfg.N)
	}
	p.scratch = &sync.Pool{New: func() any { return new(planScratch) }}
	if !slices.ContainsFunc(acc, math.IsNaN) {
		p.final = make([]atomic.Pointer[Answer], c.NumObjects())
	}
	return p
}

// Derive returns a lightweight planner over the same compiled index, dense
// accuracies and dependence lookup, under a different per-call configuration
// (policy, probe cap, early stopping). cfg's Accuracy and
// Dependence fields are ignored — the parent's dense state is reused — and
// the scratch pool is shared, so derived planners keep the zero-allocation
// serve path. Vote weights are recycled unless cfg.N differs, and the
// per-object answer memo is shared unless cfg.N or cfg.CopyRate differs —
// then the derived planner has none and folds every plan.
func (p *Planner) Derive(cfg Config) (*Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	np := &Planner{c: p.c, cfg: cfg, acc: p.acc, weights: p.weights, dep: p.dep,
		depTab: p.depTab, depZero: p.depZero, scratch: p.scratch, final: p.final}
	if cfg.N != p.cfg.N || cfg.CopyRate != p.cfg.CopyRate {
		np.final = nil
	}
	if cfg.N != p.cfg.N {
		np.weights = make([]float64, len(p.acc))
		for i, a := range p.acc {
			np.weights[i] = truth.WeightOf(a, cfg.N)
		}
	}
	return np, nil
}

// planScratch is the pooled per-request planning state. Every slice is
// grown to the request's dimensions and fully initialized before use, so a
// recycled scratch carries no information between requests.
type planScratch struct {
	// Query-slot interning: qSlot maps each query position to a compact
	// slot (-1 for objects absent from the dataset); slots maps a slot back
	// to its compiled object index, in first-occurrence order.
	qSlot  []int32
	slotOf map[int32]int32
	slots  []int32
	// posStart/posList CSR: the query positions of each slot, query order.
	posStart []int32
	posCur   []int32
	posList  []int32

	// Per-source coverage counts from candidates' counting pass (query
	// positions, slots), then each source's fill cursors.
	covCount []int32
	objCount []int32

	// Candidate CSR, candidates in source order. candPosSlot lists the slot
	// of every covered query entry (duplicates included, query order) and
	// candSlot/candGroup the distinct covered slots with the compiled value
	// group the candidate's claim falls in, in slot (== first-occurrence)
	// order.
	candSrc      []int32
	candPosStart []int32
	candObjStart []int32
	candPosSlot  []int32
	candSlot     []int32
	candGroup    []int32
	// candClass names each candidate's coverage class by the class's first
	// candidate (see candidates).
	candClass []int32

	// Probe-loop state. unprobed lists the candidates not yet probed, in the
	// order the policy takes them when nothing distinguishes their gains:
	// ascending index, or AccuracyCoverage's (gain desc, index asc).
	unprobed  []int32
	probed    []int32 // candidate indexes in probe order
	rankOrder []int32 // probed, re-sorted into reference rank order
	indepAcc  []float64
	objCov    []float64
	covGain   []float64 // AccuracyCoverage: each candidate's fixed gain

	// Per-slot probed-member state. memStart[slot] is the base of slot's
	// region in rankSi/rankF (capacity = the slot's candidate count) and
	// memLen its fill. Within a region members are grouped by value in
	// sorted-value order (the per-probe refresh packs the groups; the bulk
	// fold leaves each at its compiled group's offset); inside a group they
	// are kept in reference rank order (accuracy desc, id asc) with rankF
	// caching each member's dependence-discount product.
	memStart []int32
	memLen   []int32
	rankSi   []int32
	rankF    []float64

	// Per-slot value-group table, stride groupStride per slot: the distinct
	// claimed values in sorted order, each group's member count and its
	// cached score.
	groupStride int
	groupNum    []int32
	groupVi     []int32
	groupLen    []int32
	groupScore  []float64

	// cur is the current answer per query position.
	cur []Answer

	// softmax is answerSlot's buffer, groupStride long.
	softmax []float64
}

// grown returns s with length n, reusing capacity when possible. Contents
// are unspecified; the caller initializes what it reads.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// intern maps each query position to a compact slot, one per distinct
// object in first-occurrence order (slot order == the reference's
// distinct-pair recording order; -1 for objects absent from the dataset), and
// lists each slot's query positions in query order (posStart/posList).
func (sc *planScratch) intern(c *dataset.Compiled, query []model.ObjectID) {
	if sc.slotOf == nil {
		sc.slotOf = map[int32]int32{}
	} else {
		clear(sc.slotOf)
	}
	sc.qSlot = grown(sc.qSlot, len(query))
	sc.slots = sc.slots[:0]
	for i, o := range query {
		oi, ok := c.ObjectIndex(o)
		if !ok {
			sc.qSlot[i] = -1
			continue
		}
		slot, ok := sc.slotOf[oi]
		if !ok {
			slot = int32(len(sc.slots))
			sc.slotOf[oi] = slot
			sc.slots = append(sc.slots, oi)
		}
		sc.qSlot[i] = slot
	}
	nSlots := len(sc.slots)
	sc.posStart = grown(sc.posStart, nSlots+1)
	clear(sc.posStart)
	for _, s := range sc.qSlot {
		if s >= 0 {
			sc.posStart[s+1]++
		}
	}
	for i := 0; i < nSlots; i++ {
		sc.posStart[i+1] += sc.posStart[i]
	}
	sc.posCur = grown(sc.posCur, nSlots)
	copy(sc.posCur, sc.posStart[:nSlots])
	sc.posList = grown(sc.posList, int(sc.posStart[nSlots]))
	for i, s := range sc.qSlot {
		if s >= 0 {
			sc.posList[sc.posCur[s]] = int32(i)
			sc.posCur[s]++
		}
	}
}

// claimants returns the sources that claim object oi: the GroupSrc rows of
// its value groups, which lie back to back.
func claimants(c *dataset.Compiled, oi int32) []int32 {
	return c.GroupSrc[c.GroupSrcStart[c.GroupStart[oi]]:c.GroupSrcStart[c.GroupStart[oi+1]]]
}

// candidates builds the candidate CSR of the interned query from the queried
// objects' claimant rows, so it costs what the query's claims cost: count each
// source's covered slots and query positions, give every source that covers
// one a region in source order (the reference's iteration order), then fill
// the regions — candSlot/candGroup walking the slots in order and each slot's
// value groups, candPosSlot walking the query positions in order. Each region
// so comes out in slot order and query order respectively. Last, it marks the
// coverage classes (candClass).
func (sc *planScratch) candidates(c *dataset.Compiled) {
	nS := c.NumSources()
	sc.covCount = grown(sc.covCount, nS)
	sc.objCount = grown(sc.objCount, nS)
	clear(sc.covCount)
	clear(sc.objCount)
	for slot, oi := range sc.slots {
		nPos := sc.posStart[slot+1] - sc.posStart[slot]
		for _, si := range claimants(c, oi) {
			sc.objCount[si]++
			sc.covCount[si] += nPos
		}
	}
	sc.candSrc = sc.candSrc[:0]
	sc.candPosStart = sc.candPosStart[:0]
	sc.candObjStart = sc.candObjStart[:0]
	var totPos, totObj int32
	for si := 0; si < nS; si++ {
		nObj, nPos := sc.objCount[si], sc.covCount[si]
		if nObj == 0 {
			continue
		}
		sc.candSrc = append(sc.candSrc, int32(si))
		sc.candPosStart = append(sc.candPosStart, totPos)
		sc.candObjStart = append(sc.candObjStart, totObj)
		// From here on the counts are the source's fill cursors.
		sc.objCount[si], sc.covCount[si] = totObj, totPos
		totPos += nPos
		totObj += nObj
	}
	sc.candPosStart = append(sc.candPosStart, totPos)
	sc.candObjStart = append(sc.candObjStart, totObj)
	sc.candPosSlot = grown(sc.candPosSlot, int(totPos))
	sc.candSlot = grown(sc.candSlot, int(totObj))
	sc.candGroup = grown(sc.candGroup, int(totObj))
	for slot, oi := range sc.slots {
		for g := c.GroupStart[oi]; g < c.GroupStart[oi+1]; g++ {
			for _, si := range c.GroupSrc[c.GroupSrcStart[g]:c.GroupSrcStart[g+1]] {
				k := sc.objCount[si]
				sc.candSlot[k], sc.candGroup[k] = int32(slot), g
				sc.objCount[si] = k + 1
			}
		}
	}
	for _, s := range sc.qSlot {
		if s < 0 {
			continue
		}
		for _, si := range claimants(c, sc.slots[s]) {
			sc.candPosSlot[sc.covCount[si]] = s
			sc.covCount[si]++
		}
	}
	// A coverage class is a run of consecutive candidates covering the same
	// slots; each names its first candidate, whose candPosSlot region every
	// member shares.
	nCand := len(sc.candSrc)
	sc.candClass = grown(sc.candClass, nCand)
	for ci := 0; ci < nCand; ci++ {
		sc.candClass[ci] = int32(ci)
		if ci == 0 {
			continue
		}
		rep := sc.candClass[ci-1]
		if slices.Equal(sc.candSlot[sc.candObjStart[rep]:sc.candObjStart[rep+1]],
			sc.candSlot[sc.candObjStart[ci]:sc.candObjStart[ci+1]]) {
			sc.candClass[ci] = rep
		}
	}
}

// sweepAndScan is one round of GreedyGain selection over the unprobed
// candidates: charge each the probe just made (source last; -1 before the
// first probe), then evaluate its gain exactly as the reference does —
// uncovered mass summed per query entry in query order (duplicates included),
// times the running independence product, times accuracy: same expression,
// same association order, same float64. The uncovered mass is summed once
// per coverage class: unprobed is in ascending candidate order and a class is
// a run of consecutive candidates covering the same slots, so every member's
// sum is the same float64 as its class's. It returns the position in unprobed
// of the first candidate of greatest gain, or -1 when no gain compares above
// the reference's -1 floor. The dense charge reads row last of the table, the
// candidates' cells in ascending order along one row — column last read in
// place, since the table is bitwise symmetric (see NewPlannerDense) — and so
// runs in the scan's loop; the closure form charges in a pass of its own.
func (p *Planner) sweepAndScan(sc *planScratch, unprobed []int32, last int32) (int, float64) {
	var row []float64
	switch dt, nSrc := p.depTab, len(p.acc); {
	case last < 0 || p.depZero:
		// Nothing probed yet, or every factor is exactly 1.
	case dt != nil:
		row = dt[int(last)*nSrc:][:nSrc]
	default:
		for _, j := range unprobed {
			sc.indepAcc[j] *= 1 - p.dep(sc.candSrc[j], last)
		}
	}
	best, bestGain := -1, -1.0
	class, uncovered := int32(-1), 0.0
	for at, j := range unprobed {
		si, indep := sc.candSrc[j], sc.indepAcc[j]
		if row != nil {
			indep *= 1 - row[si]
			sc.indepAcc[j] = indep
		}
		if r := sc.candClass[j]; r != class {
			class, uncovered = r, 0
			for _, slot := range sc.candPosSlot[sc.candPosStart[r]:sc.candPosStart[r+1]] {
				uncovered += 1 - sc.objCov[slot]
			}
		}
		if g := p.acc[si] * indep * uncovered; g > bestGain {
			best, bestGain = at, g
		}
	}
	return best, bestGain
}

// settledGain is the gain the reference reports for candidate ci once every
// slot's coverage is 1: accuracy × independence product × a zero uncovered
// mass. It is a zero whichever candidate it is, but a signed one — a table
// whose two directions sum to a hair over 1 makes a factor, and from there
// the product, negative — and a Step's Gain is served as written. Only the
// trace reads it, so only the trace pays for the product.
func (p *Planner) settledGain(sc *planScratch, ci int32) float64 {
	si, indep := sc.candSrc[ci], 1.0
	for _, pc := range sc.probed {
		indep *= 1 - p.dep(si, sc.candSrc[pc])
	}
	var uncovered float64
	return p.acc[si] * indep * uncovered
}

// Answer probes sources to answer the value of each query object, returning
// the step-by-step trace. Safe for concurrent callers. The returned Result
// is freshly allocated and owned by the caller; all intermediate state is
// recycled.
func (p *Planner) Answer(query []model.ObjectID) (*Result, error) {
	return p.plan(query, true)
}

// Final is Answer for callers that read only where the probing ends: the
// same Probed and the same Final, bit for bit, with Steps nil. Nothing then
// reads the per-probe answers (unless StopProb is set — the stop test does),
// so the probes are selected first and their claims scored once afterwards;
// see the package comment. What it allocates does not grow with probes ×
// len(query): the Result, Final and Probed, not the trace's backing array.
func (p *Planner) Final(query []model.ObjectID) (*Result, error) {
	return p.plan(query, false)
}

// plan runs the probe loop; trace selects whether each probe's answers are
// recorded as a Step.
func (p *Planner) plan(query []model.ObjectID, trace bool) (*Result, error) {
	if len(query) == 0 {
		return nil, errors.New("queryans: empty query")
	}
	c := p.c
	cfg := p.cfg
	nQ := len(query)

	sc, _ := p.scratch.Get().(*planScratch)
	if sc == nil {
		sc = new(planScratch)
	}
	sc.cur = grown(sc.cur, nQ)
	for i, o := range query {
		sc.cur[i] = Answer{Object: o}
	}
	sc.intern(c, query)
	sc.candidates(c)
	nSlots, nCand := len(sc.slots), len(sc.candSrc)
	totObj := sc.candObjStart[nCand]

	maxProbes := nCand
	if cfg.MaxSources > 0 && cfg.MaxSources < maxProbes {
		maxProbes = cfg.MaxSources
	}

	// Per-slot member regions sized to each slot's candidate count — its
	// object's claimant count — plus the per-slot value-group tables.
	sc.memStart = grown(sc.memStart, nSlots+1)
	sc.memStart[0] = 0
	for slot, oi := range sc.slots {
		sc.memStart[slot+1] = sc.memStart[slot] + int32(len(claimants(c, oi)))
	}
	sc.memLen = grown(sc.memLen, nSlots)
	for i := range sc.memLen {
		sc.memLen[i] = 0
	}
	sc.rankSi = grown(sc.rankSi, int(totObj))
	sc.rankF = grown(sc.rankF, int(totObj))
	sc.groupStride = c.MaxGroupsPerObject()
	groupTot := nSlots * sc.groupStride
	sc.groupNum = grown(sc.groupNum, nSlots)
	for i := range sc.groupNum {
		sc.groupNum[i] = 0
	}
	sc.groupVi = grown(sc.groupVi, groupTot)
	sc.groupLen = grown(sc.groupLen, groupTot)
	sc.groupScore = grown(sc.groupScore, groupTot)

	sc.probed = sc.probed[:0]

	// Selection state. GreedyGain maintains objCov (the probability each slot
	// is covered by an independent probed source), indepAcc (each candidate's
	// running independence product over the probed prefix, multiplied in
	// probe order — exactly the product the reference rebuilds from scratch
	// at each step) and live, the slots whose objCov is not yet exactly 1:
	// while any is, the next probe is sweepAndScan's arg-max; after that, and
	// for the other policies from the start, it is the head of the unprobed
	// list (see the package comment).
	sc.unprobed = grown(sc.unprobed, nCand)
	for ci := range sc.unprobed {
		sc.unprobed[ci] = int32(ci)
	}
	unprobed, live, last := sc.unprobed, 0, int32(-1)
	switch cfg.Policy {
	case GreedyGain:
		sc.indepAcc = grown(sc.indepAcc, nCand)
		for i := range sc.indepAcc {
			sc.indepAcc[i] = 1
		}
		sc.objCov = grown(sc.objCov, nSlots)
		for i := range sc.objCov {
			sc.objCov[i] = 0
		}
		live = nSlots
	case AccuracyCoverage:
		// Accuracy×coverage never changes as probes accumulate: the
		// reference's repeated first-maximum scan is one sort.
		sc.covGain = grown(sc.covGain, nCand)
		for ci := range sc.covGain {
			n := sc.candPosStart[ci+1] - sc.candPosStart[ci]
			sc.covGain[ci] = p.acc[sc.candSrc[ci]] * float64(n)
		}
		covGain := sc.covGain
		slices.SortFunc(unprobed, func(a, b int32) int {
			if d := cmp.Compare(covGain[b], covGain[a]); d != 0 {
				return d
			}
			return cmp.Compare(a, b)
		})
	}

	sc.softmax = grown(sc.softmax, sc.groupStride)
	// The probed claims are scored per probe only when something reads the
	// per-probe answers — the trace, or the early-stop test — and otherwise
	// once, after selection.
	perProbe := trace || cfg.StopProb > 0
	var steps []Step
	var backing []Answer
	if trace && maxProbes > 0 {
		steps = make([]Step, 0, maxProbes)
		// Without early stopping the loop runs exactly maxProbes steps, so
		// one backing array sized for all of them replaces a per-step
		// allocation. With StopProb set the step count is unknown — there
		// the steps allocate individually, so an early exit never pays for
		// the probes it skipped.
		if cfg.StopProb == 0 {
			backing = make([]Answer, maxProbes*nQ)
		}
	}

	for len(sc.probed) < maxProbes {
		at, gain := 0, 0.0
		switch {
		case live > 0:
			at, gain = p.sweepAndScan(sc, unprobed, last)
		case cfg.Policy == AccuracyCoverage:
			gain = sc.covGain[unprobed[0]]
		case cfg.Policy == GreedyGain && trace:
			gain = p.settledGain(sc, unprobed[0])
		}
		if at < 0 {
			// No candidate's gain compares above the reference's floor (a
			// NaN accuracy): the reference stops probing here too.
			break
		}
		// Take unprobed[at] out of the list, keeping the rest in order.
		ci := unprobed[at]
		copy(unprobed[1:at+1], unprobed[:at])
		unprobed = unprobed[1:]
		si := sc.candSrc[ci]
		sc.probed = append(sc.probed, ci)
		last = si
		if live > 0 {
			// The new probe's own product is Π over the previous probes of
			// (1−dep(next, p)) in probe order — its running product, which
			// the sweeps stopped touching when it was picked.
			miss := 1 - p.acc[si]*sc.indepAcc[ci]
			for _, slot := range sc.candPosSlot[sc.candPosStart[ci]:sc.candPosStart[ci+1]] {
				if sc.objCov[slot] == 1 {
					continue
				}
				sc.objCov[slot] = 1 - (1-sc.objCov[slot])*miss
				if sc.objCov[slot] == 1 {
					live--
				}
			}
		}
		if perProbe {
			// Incremental answer refresh: only slots the new probe covers
			// can change; fold its claim about each into the slot's group
			// table and rescore the slot.
			for k := sc.candObjStart[ci]; k < sc.candObjStart[ci+1]; k++ {
				slot := sc.candSlot[k]
				p.applyClaim(sc, slot, si, c.GroupValue[sc.candGroup[k]])
				p.refreshSlot(sc, slot)
			}
			if trace {
				var dst []Answer
				if backing != nil {
					stepIdx := len(sc.probed) - 1
					dst = backing[stepIdx*nQ : (stepIdx+1)*nQ : (stepIdx+1)*nQ]
				} else {
					dst = make([]Answer, nQ)
				}
				copy(dst, sc.cur)
				steps = append(steps, Step{Source: c.Source(int(si)), Gain: gain, Answers: dst})
			}
			if cfg.StopProb > 0 && stable(sc.cur, query, cfg.StopProb) {
				break
			}
		}
	}
	if !perProbe {
		// Every candidate probed means every claimant of every queried
		// object probed: the objects' answers are the memo's to give.
		memo := p.final
		if len(sc.probed) < nCand {
			memo = nil
		}
		if !recall(sc, memo) {
			p.scoreProbed(sc)
			publish(sc, memo)
		}
	}

	res := &Result{Steps: steps}
	switch {
	case len(sc.probed) == 0:
		// No source covers the query: nothing was ever answered.
	case trace:
		res.Final = steps[len(steps)-1].Answers
	default:
		res.Final = make([]Answer, nQ)
		copy(res.Final, sc.cur)
	}
	res.Probed = make([]model.SourceID, len(sc.probed))
	for i, ci := range sc.probed {
		res.Probed[i] = c.Source(int(sc.candSrc[ci]))
	}
	p.scratch.Put(sc)
	return res, nil
}

// recall writes each slot's memoized answer to the slot's query positions. It
// reports false at the first slot whose object is not memoized (or at once,
// for a nil memo); scoreProbed then overwrites every position recall wrote.
func recall(sc *planScratch, memo []atomic.Pointer[Answer]) bool {
	if memo == nil {
		return false
	}
	for slot, oi := range sc.slots {
		a := memo[oi].Load()
		if a == nil {
			return false
		}
		for _, pos := range sc.posList[sc.posStart[slot]:sc.posStart[slot+1]] {
			sc.cur[pos] = *a
		}
	}
	return true
}

// publish stores each slot's answer, as scoreProbed left it, in the memo
// (nil: nowhere).
func publish(sc *planScratch, memo []atomic.Pointer[Answer]) {
	if memo == nil {
		return
	}
	for slot, oi := range sc.slots {
		a := sc.cur[sc.posList[sc.posStart[slot]]]
		memo[oi].Store(&a)
	}
}

// scoreProbed is the one-shot form of the per-probe refresh: it scores every
// covered slot from the probed sources' claims and answers it once. A group's
// final state is a function of its member set, not of the order the members
// arrived in, so nothing is inserted: the probed sources are ranked once
// (accuracy desc, source index asc), and walking them in that order appends
// each claim to its compiled value group's share of the slot's member region
// — every group ends up in reference rank order. The groups that received a
// member, in compiled (== value) order, are the reference's groups.
func (p *Planner) scoreProbed(sc *planScratch) {
	sc.rankOrder = append(sc.rankOrder[:0], sc.probed...)
	c, acc, src := p.c, p.acc, sc.candSrc
	slices.SortFunc(sc.rankOrder, func(a, b int32) int {
		if aa, ab := acc[src[a]], acc[src[b]]; aa != ab {
			if aa > ab {
				return -1
			}
			return 1
		}
		// Candidates are in source order, so this is source index asc.
		return cmp.Compare(a, b)
	})
	stride := sc.groupStride
	for i := range sc.groupLen[:len(sc.slots)*stride] {
		sc.groupLen[i] = 0
	}
	for _, ci := range sc.rankOrder {
		si := src[ci]
		for k := sc.candObjStart[ci]; k < sc.candObjStart[ci+1]; k++ {
			slot, g := sc.candSlot[k], sc.candGroup[k]
			g0 := c.GroupStart[sc.slots[slot]]
			n := &sc.groupLen[int(slot)*stride+int(g-g0)]
			sc.rankSi[sc.memStart[slot]+c.GroupSrcStart[g]-c.GroupSrcStart[g0]+*n] = si
			*n++
		}
	}
	cr := p.cfg.CopyRate
	for slot, oi := range sc.slots {
		gBase, num := slot*stride, 0
		g0 := c.GroupStart[oi]
		for g := g0; g < c.GroupStart[oi+1]; g++ {
			k := sc.groupLen[gBase+int(g-g0)]
			if k == 0 {
				continue
			}
			off := sc.memStart[slot] + c.GroupSrcStart[g] - c.GroupSrcStart[g0]
			members, fs := sc.rankSi[off:off+k], sc.rankF[off:off+k]
			p.discountProducts(members, fs, cr)
			var score float64
			for i, m := range members {
				score += p.weights[m] * fs[i]
			}
			sc.groupVi[gBase+num] = c.GroupValue[g]
			sc.groupLen[gBase+num] = k
			sc.groupScore[gBase+num] = score
			num++
		}
		sc.groupNum[slot] = int32(num)
		if num > 0 {
			p.refreshSlot(sc, int32(slot))
		}
	}
}

// refreshSlot re-derives slot's answer from its group table and writes it to
// every query position that asks for the slot's object.
func (p *Planner) refreshSlot(sc *planScratch, slot int32) {
	a := p.answerSlot(sc, slot)
	for _, pos := range sc.posList[sc.posStart[slot]:sc.posStart[slot+1]] {
		sc.cur[pos] = a
	}
}

// applyClaim folds one probed claim (source si asserting value vi about
// slot) into the slot's group table, updating only the group that received
// the member — every other group's cached score is already bit-for-bit what
// the reference would recompute.
//
// The new member's discount product and the group score extension follow
// the reference's exact arithmetic: members iterate in rank order
// (accuracy desc, id asc), each member's product multiplies (1 −
// CopyRate·dep) factors in that order, and the score is the left-fold sum
// of weight×product terms in that order. A member that ranks last extends
// the cached fold in O(k); a mid-rank insert recomputes the suffix products
// it invalidated and re-folds the sum, still in reference order. Mid-rank
// inserts happen only when claims arrive in probe order — the per-probe
// refresh behind a trace or a StopProb test; scoreProbed feeds claims in rank
// order and never takes that branch.
func (p *Planner) applyClaim(sc *planScratch, slot, si, vi int32) {
	gBase := int(slot) * sc.groupStride
	num := int(sc.groupNum[slot])
	gVi := sc.groupVi[gBase : gBase+num]
	// Locate the value group (sorted by value index == string order).
	gi, hi := 0, num
	for gi < hi {
		mid := int(uint(gi+hi) >> 1)
		if gVi[mid] < vi {
			gi = mid + 1
		} else {
			hi = mid
		}
	}
	isNew := gi == num || gVi[gi] != vi
	// Member region offset of group gi within the slot's rank arrays.
	off := int(sc.memStart[slot])
	for g := 0; g < gi; g++ {
		off += int(sc.groupLen[gBase+g])
	}
	memLen := int(sc.memLen[slot])
	if isNew {
		// Shift the group table and the member regions of later groups
		// right by one.
		copy(sc.groupVi[gBase+gi+1:gBase+num+1], sc.groupVi[gBase+gi:gBase+num])
		copy(sc.groupLen[gBase+gi+1:gBase+num+1], sc.groupLen[gBase+gi:gBase+num])
		copy(sc.groupScore[gBase+gi+1:gBase+num+1], sc.groupScore[gBase+gi:gBase+num])
		sc.groupVi[gBase+gi] = vi
		sc.groupLen[gBase+gi] = 0
		sc.groupScore[gBase+gi] = 0
		sc.groupNum[slot] = int32(num + 1)
	}
	k := int(sc.groupLen[gBase+gi])
	// Rank position of the new member inside the group: first index whose
	// member does not rank before (accuracy desc, id asc) the new one.
	accN := p.acc[si]
	r := 0
	for r < k {
		m := sc.rankSi[off+r]
		am := p.acc[m]
		if am > accN || (am == accN && m < si) {
			r++
		} else {
			break
		}
	}
	// Shift the slot's rank arrays open at off+r (later groups included).
	base := int(sc.memStart[slot])
	at := off + r
	copy(sc.rankSi[at+1:base+memLen+1], sc.rankSi[at:base+memLen])
	copy(sc.rankF[at+1:base+memLen+1], sc.rankF[at:base+memLen])
	sc.rankSi[at] = si
	sc.memLen[slot] = int32(memLen + 1)
	sc.groupLen[gBase+gi] = int32(k + 1)

	cr := p.cfg.CopyRate
	members := sc.rankSi[off : off+k+1]
	fs := sc.rankF[off : off+k+1]
	fs[r] = p.discountProduct(si, members[:r], cr)
	if r == k {
		// Ranked last: every earlier term is untouched; extend the fold.
		sc.groupScore[gBase+gi] += p.weights[si] * fs[r]
		return
	}
	// Mid-rank insert: the products of later-ranked members gained a
	// factor at a position the cached value can't reproduce bit-exactly,
	// so recompute them (and the sum) in reference order.
	for i := r + 1; i <= k; i++ {
		fs[i] = p.discountProduct(members[i], members[:i], cr)
	}
	var score float64
	for i := 0; i <= k; i++ {
		score += p.weights[members[i]] * fs[i]
	}
	sc.groupScore[gBase+gi] = score
}

// discountProducts fills fs[r] with member r's discount product over the
// members ranked before it. On the dense table it runs four members at a
// time: four independent multiply chains over four resident table rows, each
// still receiving its factors 1 − cr·dep[members[r]][members[q]] in order
// q = 0…r−1 — the reference's cell and the reference's order, so the same
// float64. The block remainder, and the closure and all-independent forms,
// take discountProduct's single chain.
func (p *Planner) discountProducts(members []int32, fs []float64, cr float64) {
	r := 0
	if dt, nSrc := p.depTab, len(p.acc); dt != nil {
		for ; r+4 <= len(members); r += 4 {
			m0, m1, m2, m3 := members[r], members[r+1], members[r+2], members[r+3]
			row0 := dt[int(m0)*nSrc:][:nSrc]
			row1 := dt[int(m1)*nSrc:][:nSrc]
			row2 := dt[int(m2)*nSrc:][:nSrc]
			row3 := dt[int(m3)*nSrc:][:nSrc]
			f0, f1, f2, f3 := 1.0, 1.0, 1.0, 1.0
			for _, e := range members[:r] {
				f0 *= 1 - cr*row0[e]
				f1 *= 1 - cr*row1[e]
				f2 *= 1 - cr*row2[e]
				f3 *= 1 - cr*row3[e]
			}
			f1 *= 1 - cr*row1[m0]
			f2 *= 1 - cr*row2[m0]
			f2 *= 1 - cr*row2[m1]
			f3 *= 1 - cr*row3[m0]
			f3 *= 1 - cr*row3[m1]
			f3 *= 1 - cr*row3[m2]
			fs[r], fs[r+1], fs[r+2], fs[r+3] = f0, f1, f2, f3
		}
	}
	for ; r < len(members); r++ {
		fs[r] = p.discountProduct(members[r], members[:r], cr)
	}
}

// discountProduct is the reference's discount factor for a member ranked
// after earlier: Π (1 − CopyRate·dep(s, e)) over earlier in rank order. The
// dense and all-independent planner forms run it without the dep closure;
// both produce the identical float64 sequence.
func (p *Planner) discountProduct(s int32, earlier []int32, cr float64) float64 {
	f := 1.0
	switch {
	case p.depZero:
		// Every factor is 1 − cr·0 == 1; the product stays exactly 1.
	case p.depTab != nil:
		dt, nSrc := p.depTab, len(p.acc)
		row := dt[int(s)*nSrc : int(s)*nSrc+nSrc]
		for _, e := range earlier {
			f *= 1 - cr*row[e]
		}
	default:
		for _, e := range earlier {
			f *= 1 - cr*p.dep(s, e)
		}
	}
	return f
}

// answerSlot softmaxes the slot's cached group scores and returns the
// current answer, mirroring the reference computeAnswers: values in sorted
// order, softmax over the per-value scores, first maximum wins.
func (p *Planner) answerSlot(sc *planScratch, slot int32) Answer {
	gBase := int(slot) * sc.groupStride
	num := int(sc.groupNum[slot])
	scores := sc.groupScore[gBase : gBase+num]
	probs := sc.softmax[:num]
	// Group sets are never empty here, so NormalizeLogInto cannot fail.
	_ = stats.NormalizeLogInto(probs, scores)
	bestK, bestP := 0, -1.0
	for k := 0; k < num; k++ {
		if probs[k] > bestP {
			bestK, bestP = k, probs[k]
		}
	}
	return Answer{
		Object: p.c.Object(int(sc.slots[slot])),
		Value:  p.c.Value(int(sc.groupVi[gBase+bestK])),
		Prob:   bestP,
	}
}
