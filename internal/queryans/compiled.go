// Compiled (columnar-index) execution of the probing planner.
//
// Planner is the reusable form of AnswerObjects: built once from a frozen
// dataset plus accuracies/dependence, it answers unlimited queries against
// precompiled claim lists, a dense accuracy vector and precomputed vote
// weights. Four structural optimizations keep the per-query loop off the
// reference's O(P²·|query|) recompute shape without changing a single bit of
// the output (the golden equivalence tests enforce bit-identity against
// answerObjectsMaps):
//
//   - Lazy-greedy (CELF) probe selection. The reference rescans every
//     candidate's gain at every probe step. Under the GreedyGain policy each
//     candidate's gain is monotone non-increasing across steps — the
//     independence product only multiplies factors in [0,1] and the
//     uncovered-object mass only shrinks — so a previously computed gain is
//     an upper bound on the current one. pickNext therefore keeps candidates
//     in a max-heap of stale bounds, re-evaluating only the top until the
//     top's gain is fresh for the current step. The heap orders ties by
//     candidate index (ascending source id), which reproduces the
//     reference's first-maximum-wins scan exactly: when a fresh top is
//     selected, every other candidate's true gain is bounded by a stale
//     value that lost to the top under the reference's ordering. Gains are
//     evaluated with the same expression, the same running independence
//     product (multiplied in probe order) and the same query-order
//     uncovered sum as the reference, so every gain the two paths both
//     compute is the same float64.
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
//     score (a gain is accuracy × running independence product × uncovered
//     mass), and a group's final state depends on which sources were probed,
//     not on the order they were probed in. Scoring after every probe exists
//     only to fill Result.Steps and to feed the StopProb test, and arriving
//     in probe order most members land mid-rank — on a dense dependence
//     table that re-fold was nine tenths of a 550-source plan. Final
//     therefore scores per probe only when StopProb is set; otherwise it
//     runs selection alone and then folds the probed claims in once, sorted
//     into reference rank order, so every insert ranks last and only the
//     O(k) extend runs. It is the same applyClaim/answerSlot the trace uses,
//     producing the same member order, the same products and the same
//     left-fold — Final and Probed are bit-identical to Answer's.
//
//   - Pooled per-request state. All planning state — the query-slot
//     interning, the candidate CSR built in two parallel passes (count,
//     fill), the coverage/independence vectors, the heap, the per-object
//     group tables and the softmax buffers — lives in a planScratch
//     recycled through a sync.Pool shared by the planner and every planner
//     Derive returns, so a steady-state call allocates only the Result it
//     hands to the caller (for Answer that includes the trace: one Answer
//     per probe per query entry).
//
// Accuracy and dependence inputs are probabilities; values outside [0,1]
// void the monotonicity the lazy evaluation relies on (the map reference
// never promised sensible output for them either).
package queryans

import (
	"cmp"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/engine"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/stats"
	"sourcecurrents/internal/truth"
)

// Planner is a reusable compiled query planner. It is read-only after
// NewPlanner, so a single Planner may serve Answer calls from any number of
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
// (the serving session): acc is indexed by c's source order and depTab is
// the flat nS×nS total (both-direction) dependence posterior table. Both are
// retained, not copied, and must not be mutated afterwards.
func NewPlannerDense(d *dataset.Dataset, cfg Config, acc, depTab []float64) (*Planner, error) {
	if !d.Frozen() {
		return nil, errors.New("queryans: dataset must be frozen")
	}
	return NewPlannerFromCompiled(d.Compiled(), cfg, acc, depTab)
}

// NewPlannerFromCompiled is NewPlannerDense for callers that hold a
// compiled view directly — a session serving straight from a mapped
// snapshot, which has no materialized Dataset to hand over.
func NewPlannerFromCompiled(c *dataset.Compiled, cfg Config, acc, depTab []float64) (*Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if c == nil {
		return nil, errors.New("queryans: nil compiled view")
	}
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
	return p
}

// Derive returns a lightweight planner over the same compiled index, dense
// accuracies and dependence lookup, under a different per-call configuration
// (policy, probe cap, early stopping, parallelism). cfg's Accuracy and
// Dependence fields are ignored — the parent's dense state is reused — and
// the scratch pool is shared, so derived planners keep the zero-allocation
// serve path. Vote weights are recycled unless cfg.N differs.
func (p *Planner) Derive(cfg Config) (*Planner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	np := &Planner{c: p.c, cfg: cfg, acc: p.acc, weights: p.weights, dep: p.dep,
		depTab: p.depTab, depZero: p.depZero, scratch: p.scratch}
	if cfg.N != p.cfg.N {
		np.weights = make([]float64, len(p.acc))
		for i, a := range p.acc {
			np.weights[i] = truth.WeightOf(a, cfg.N)
		}
	}
	return np, nil
}

// answerScratch is one worker's softmax buffer.
type answerScratch struct {
	probs []float64
}

// heapEntry is one candidate's (possibly stale) gain bound in the CELF
// max-heap. round records the probe step the gain was evaluated at; a
// popped entry whose round matches the current step holds a fresh gain and
// is the exact greedy choice.
type heapEntry struct {
	gain  float64
	ci    int32
	round int32
}

// heapLess orders the lazy-evaluation heap: gain descending, candidate
// index (== source order) ascending on ties — the reference's
// first-maximum-wins scan order.
func heapLess(a, b heapEntry) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return a.ci < b.ci
}

func siftDown(h []heapEntry, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		best := l
		if r := l + 1; r < len(h) && heapLess(h[r], h[l]) {
			best = r
		}
		if !heapLess(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

func heapify(h []heapEntry) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

func heapPop(h *[]heapEntry) heapEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	if n > 0 {
		siftDown(s, 0)
	}
	return top
}

func heapPush(h *[]heapEntry, e heapEntry) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
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

	// Per-source coverage counts from the parallel counting pass.
	covCount []int32
	objCount []int32

	// Candidate CSR, candidates in source order. candPosSlot lists the slot
	// of every covered query entry (duplicates included, query order) and
	// candSlot/candVal the distinct covered (slot, value) pairs in slot
	// (== first-occurrence) order.
	candSrc      []int32
	candPosStart []int32
	candObjStart []int32
	candPosSlot  []int32
	candSlot     []int32
	candVal      []int32

	// Probe-loop state.
	probedSet []bool
	probed    []int32 // candidate indexes in probe order
	probeCi   int32   // the probe whose claims scoreCovered is folding
	rankOrder []int32 // probed, re-sorted into reference rank order
	indepAcc  []float64
	objCov    []float64
	heap      []heapEntry

	// Per-slot probed-member state. memStart[slot] is the base of slot's
	// region in rankSi/rankF (capacity = the slot's candidate count) and
	// memLen its fill. Within a region members are grouped by value in
	// sorted-value order; inside a group they are kept in reference rank
	// order (accuracy desc, id asc) with rankF caching each member's
	// dependence-discount product.
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

	// workerScore hands one softmax buffer to each rescoring worker via an
	// atomic cursor (reset per probe).
	workerScore []answerScratch
	scoreIdx    atomic.Int32
}

// grown returns s with length n, reusing capacity when possible. Contents
// are unspecified; the caller initializes what it reads.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// containsSlot reports whether sorted (ascending) contains s.
func containsSlot(sorted []int32, s int32) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sorted[mid] < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == s
}

// gainOf evaluates candidate ci's current GreedyGain exactly as the
// reference does: uncovered mass summed per query entry in query order
// (duplicates included), times the running independence product, times
// accuracy — same expression, same association order, same float64.
func (p *Planner) gainOf(sc *planScratch, ci int32) float64 {
	var uncovered float64
	for _, slot := range sc.candPosSlot[sc.candPosStart[ci]:sc.candPosStart[ci+1]] {
		uncovered += 1 - sc.objCov[slot]
	}
	return p.acc[sc.candSrc[ci]] * sc.indepAcc[ci] * uncovered
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
	eng := cfg.Engine()
	nQ := len(query)
	nS := c.NumSources()

	sc, _ := p.scratch.Get().(*planScratch)
	if sc == nil {
		sc = new(planScratch)
	}
	if sc.slotOf == nil {
		sc.slotOf = map[int32]int32{}
	} else {
		clear(sc.slotOf)
	}

	// Query positions per distinct object, interned into compact slots in
	// first-occurrence order (slot order == the reference's distinct-pair
	// recording order).
	sc.qSlot = grown(sc.qSlot, nQ)
	sc.cur = grown(sc.cur, nQ)
	sc.slots = sc.slots[:0]
	for i, o := range query {
		sc.cur[i] = Answer{Object: o}
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
	for i := range sc.posStart {
		sc.posStart[i] = 0
	}
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

	// Candidate sources, compiled in two parallel index-addressed passes
	// (count coverage per source, then fill the CSR regions) and kept in
	// source order — the reference iteration order.
	sc.covCount = grown(sc.covCount, nS)
	sc.objCount = grown(sc.objCount, nS)
	engine.ForN(eng, nS, func(si int) {
		var nPos, nObj int32
		for slot, oi := range sc.slots {
			if c.ClaimOf(int32(si), oi) >= 0 {
				nObj++
				nPos += sc.posStart[slot+1] - sc.posStart[slot]
			}
		}
		sc.covCount[si] = nPos
		sc.objCount[si] = nObj
	})
	sc.candSrc = sc.candSrc[:0]
	sc.candPosStart = sc.candPosStart[:0]
	sc.candObjStart = sc.candObjStart[:0]
	var totPos, totObj int32
	for si := 0; si < nS; si++ {
		if sc.objCount[si] == 0 {
			continue
		}
		sc.candSrc = append(sc.candSrc, int32(si))
		sc.candPosStart = append(sc.candPosStart, totPos)
		sc.candObjStart = append(sc.candObjStart, totObj)
		totPos += sc.covCount[si]
		totObj += sc.objCount[si]
	}
	nCand := len(sc.candSrc)
	sc.candPosStart = append(sc.candPosStart, totPos)
	sc.candObjStart = append(sc.candObjStart, totObj)
	sc.candPosSlot = grown(sc.candPosSlot, int(totPos))
	sc.candSlot = grown(sc.candSlot, int(totObj))
	sc.candVal = grown(sc.candVal, int(totObj))
	engine.ForN(eng, nCand, func(ci int) {
		si := sc.candSrc[ci]
		k := sc.candObjStart[ci]
		for slot, oi := range sc.slots {
			cl := c.ClaimOf(si, oi)
			if cl < 0 {
				continue
			}
			sc.candSlot[k] = int32(slot)
			sc.candVal[k] = c.SrcVal[cl]
			k++
		}
		region := sc.candSlot[sc.candObjStart[ci]:k]
		j := sc.candPosStart[ci]
		for _, s := range sc.qSlot {
			if s >= 0 && containsSlot(region, s) {
				sc.candPosSlot[j] = s
				j++
			}
		}
	})

	maxProbes := nCand
	if cfg.MaxSources > 0 && cfg.MaxSources < maxProbes {
		maxProbes = cfg.MaxSources
	}

	// Per-slot member regions sized to each slot's candidate count, plus
	// the per-slot value-group tables.
	sc.memStart = grown(sc.memStart, nSlots+1)
	for i := range sc.memStart {
		sc.memStart[i] = 0
	}
	for _, slot := range sc.candSlot[:totObj] {
		sc.memStart[slot+1]++
	}
	for i := 0; i < nSlots; i++ {
		sc.memStart[i+1] += sc.memStart[i]
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

	sc.probedSet = grown(sc.probedSet, nS)
	for i := range sc.probedSet {
		sc.probedSet[i] = false
	}
	sc.probed = sc.probed[:0]

	// Selection state: ByID walks candidates in order; the other policies
	// run off the max-heap. GreedyGain additionally maintains objCov (the
	// probability each slot is covered by an independent probed source) and
	// indepAcc (each candidate's running independence product over the
	// probed prefix, multiplied in probe order — exactly the product the
	// reference rebuilds from scratch at each step).
	lazy := cfg.Policy == GreedyGain
	if lazy {
		sc.indepAcc = grown(sc.indepAcc, nCand)
		for i := range sc.indepAcc {
			sc.indepAcc[i] = 1
		}
		sc.objCov = grown(sc.objCov, nSlots)
		for i := range sc.objCov {
			sc.objCov[i] = 0
		}
	}
	switch cfg.Policy {
	case GreedyGain:
		sc.heap = grown(sc.heap, nCand)
		for ci := 0; ci < nCand; ci++ {
			sc.heap[ci] = heapEntry{gain: p.gainOf(sc, int32(ci)), ci: int32(ci)}
		}
		heapify(sc.heap)
	case AccuracyCoverage:
		// Accuracy×coverage never changes as probes accumulate, so every
		// heap entry is permanently fresh.
		sc.heap = grown(sc.heap, nCand)
		for ci := 0; ci < nCand; ci++ {
			n := sc.candPosStart[ci+1] - sc.candPosStart[ci]
			sc.heap[ci] = heapEntry{gain: p.acc[sc.candSrc[ci]] * float64(n), ci: int32(ci)}
		}
		heapify(sc.heap)
	}

	// Softmax buffers: one per potential rescoring worker, sized once to
	// the compiled index's group bound.
	nW := eng.WorkerCount()
	if nW < 1 {
		nW = 1
	}
	if len(sc.workerScore) < nW {
		old := sc.workerScore
		sc.workerScore = make([]answerScratch, nW)
		copy(sc.workerScore, old)
	}
	for i := 0; i < nW; i++ {
		sc.workerScore[i].probs = grown(sc.workerScore[i].probs, sc.groupStride)
	}
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
	// The per-probe refresh's worker callbacks, allocated once per request
	// (and only by a request that can use them) and reused across probes.
	var newScore func() *answerScratch
	var scoreCovered func(i int, as *answerScratch)
	if perProbe && nW > 1 {
		newScore = func() *answerScratch {
			return &sc.workerScore[sc.scoreIdx.Add(1)-1]
		}
		scoreCovered = func(i int, as *answerScratch) { p.scoreCovered(sc, i, as) }
	}

	round := int32(0)
	for len(sc.probed) < maxProbes {
		// Lazy pick: pop the best stale bound; if it was evaluated this
		// round it is the exact greedy maximum (ties already broken in
		// candidate order by the heap), otherwise refresh and reinsert.
		var ci int32
		var gain float64
		if cfg.Policy == ByID {
			ci = int32(len(sc.probed))
		} else {
			for {
				top := heapPop(&sc.heap)
				if !lazy || top.round == round {
					ci, gain = top.ci, top.gain
					break
				}
				top.gain = p.gainOf(sc, top.ci)
				top.round = round
				heapPush(&sc.heap, top)
			}
		}
		si := sc.candSrc[ci]
		sc.probed = append(sc.probed, ci)
		sc.probedSet[si] = true
		if lazy {
			// The new probe's own product is Π over the previous probes of
			// (1−dep(next, p)) in probe order; charge every still-unprobed
			// candidate the new probe exactly once, keeping each running
			// product in probe order.
			indepNext := sc.indepAcc[ci]
			accNext := p.acc[si]
			if p.depZero {
				// All-independent: every factor is exactly 1.
			} else if dt := p.depTab; dt != nil {
				nSrc := len(p.acc)
				for j, sj := range sc.candSrc {
					if !sc.probedSet[sj] {
						sc.indepAcc[j] *= 1 - dt[int(sj)*nSrc+int(si)]
					}
				}
			} else {
				for j, sj := range sc.candSrc {
					if !sc.probedSet[sj] {
						sc.indepAcc[j] *= 1 - p.dep(sj, si)
					}
				}
			}
			for _, slot := range sc.candPosSlot[sc.candPosStart[ci]:sc.candPosStart[ci+1]] {
				sc.objCov[slot] = 1 - (1-sc.objCov[slot])*(1-accNext*indepNext)
			}
		}
		if perProbe {
			// Incremental answer refresh: only slots the new probe covers
			// can change; fold the new claim in and rescore them (in
			// parallel when the request's engine and the covered count
			// warrant goroutines — slots are disjoint per probe, so no
			// synchronization is needed).
			sc.probeCi = ci
			nCov := int(sc.candObjStart[ci+1] - sc.candObjStart[ci])
			if nW == 1 || nCov < 32 {
				for i := 0; i < nCov; i++ {
					p.scoreCovered(sc, i, &sc.workerScore[0])
				}
			} else {
				sc.scoreIdx.Store(0)
				engine.ForNScratch(eng, nCov, newScore, scoreCovered)
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
		round++
	}
	if !perProbe {
		p.scoreProbed(sc)
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

// scoreCovered folds the claim the probe in flight (sc.probeCi) makes about
// the i-th slot it covers into the slot's group table and refreshes the
// slot's answer.
func (p *Planner) scoreCovered(sc *planScratch, i int, as *answerScratch) {
	k := int(sc.candObjStart[sc.probeCi]) + i
	slot := sc.candSlot[k]
	p.applyClaim(sc, slot, sc.candSrc[sc.probeCi], sc.candVal[k])
	p.refreshSlot(sc, slot, as)
}

// scoreProbed is the one-shot form of the per-probe refresh: it folds every
// probed source's claims into the group tables and answers each covered slot
// once. A group's final state is a function of its member set, not of the
// order the members arrived in, so the probes are folded in reference rank
// order (accuracy desc, source index asc): every applyClaim then ranks its
// member last in its group and takes the O(k) extend branch, where the same
// members arriving in probe order re-fold the group after most inserts.
func (p *Planner) scoreProbed(sc *planScratch) {
	sc.rankOrder = append(sc.rankOrder[:0], sc.probed...)
	acc, src := p.acc, sc.candSrc
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
	for _, ci := range sc.rankOrder {
		si := src[ci]
		for k := sc.candObjStart[ci]; k < sc.candObjStart[ci+1]; k++ {
			p.applyClaim(sc, sc.candSlot[k], si, sc.candVal[k])
		}
	}
	for slot := range sc.slots {
		if sc.groupNum[slot] > 0 {
			p.refreshSlot(sc, int32(slot), &sc.workerScore[0])
		}
	}
}

// refreshSlot re-derives slot's answer from its group table and writes it to
// every query position that asks for the slot's object.
func (p *Planner) refreshSlot(sc *planScratch, slot int32, as *answerScratch) {
	a := p.answerSlot(sc, slot, as)
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
func (p *Planner) answerSlot(sc *planScratch, slot int32, as *answerScratch) Answer {
	gBase := int(slot) * sc.groupStride
	num := int(sc.groupNum[slot])
	scores := sc.groupScore[gBase : gBase+num]
	probs := as.probs[:num]
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
