// Epoch deltas: the solves since an epoch, shipped instead of repeated.
//
// A solve across an appended batch (refine given a predecessor) overwrites
// a known part of the state and copies the rest from the predecessor: it
// rewrites the whole accuracy vector, the posterior rows of the objects the
// batch names, and the pair records with a member the batch names (the only
// records whose cells of the totals table it writes), and it ends after some
// rounds, converged or not. A chain of such solves from epoch since to the
// current one overwrites the union of those parts, and what it overwrote
// last is what the current state holds there; everything else is still the
// state at since. That is the Delta since that epoch. Whoever holds the state
// at since and the current dataset rebuilds the current state from it by
// doing what refine does around its rounds — carry the old state over, write
// the overwritten part, merge the pair lists — and reaches the same state bit
// for bit, without running a round. That is how a replica follows its
// primary, however far behind it is: the primary solves each batch once and
// every replica applies the delta since its own epoch.
//
// The delta is read off the current state itself: the batches since the
// epoch give the dirty sources and objects, and the current records with a
// dirty member are exactly the ones some solve since then rescored (every
// record no solve touched has two clean members), so nothing extra is
// recorded while solving.
package depen

import (
	"fmt"
	"unsafe"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/model"
)

// Delta is what the solves across the batches appended since an epoch
// overwrote, in the current dataset's compiled order: Acc the whole accuracy
// vector; Post the posterior rows of the objects the batches name, in
// ascending object order, laid end to end; Pairs the records of the analysed
// pairs with a member the batches name, in PairBytes' layout and (a, b)
// order; and how the last solve ended.
type Delta struct {
	Acc, Post []float64
	Pairs     []byte
	Rounds    int
	Converged bool
}

// claimsSince returns the claims d's log appended after epoch since, which
// must be one of d's earlier epochs.
func claimsSince(d *dataset.Dataset, since int) ([]model.Claim, error) {
	if since < 0 || since >= d.Epoch() {
		return nil, fmt.Errorf("depen: a delta since epoch %d of a dataset at epoch %d", since, d.Epoch())
	}
	return d.Claims()[d.LogBounds()[since]:], nil
}

// Delta returns the delta of d's batches since epoch since, where st is the
// state solved on d (an appended dataset) and since is in [0, d.Epoch()).
// Acc aliases the state; read-only.
func (st *State) Delta(d *dataset.Dataset, since int) (Delta, error) {
	c := st.c
	if d.Compiled() != c {
		return Delta{}, fmt.Errorf("depen: delta of a dataset the state was not solved on")
	}
	claims, err := claimsSince(d, since)
	if err != nil {
		return Delta{}, err
	}
	dirtySrc, _, dirtyObjs := dirtySets(c, claims, false)
	var post []float64
	for _, oi := range dirtyObjs {
		post = append(post, st.probs[c.GroupStart[oi]:c.GroupStart[oi+1]]...)
	}
	var fresh []pairRec
	for _, r := range dirtyRuns(st.pairs, dirtySrc) {
		fresh = append(fresh, st.pairs[r[0]:r[1]]...)
	}
	var pairs []byte
	if len(fresh) > 0 {
		pairs = unsafe.Slice((*byte)(unsafe.Pointer(&fresh[0])), len(fresh)*pairRecBytes)
	}
	return Delta{Acc: st.acc, Post: post, Pairs: pairs, Rounds: st.rounds, Converged: st.converged}, nil
}

// ApplyDelta returns the state of d, an appended dataset, from prev, the state
// of d's epoch since, and the delta of d's batches since then: what Solve
// reaches at d's epoch, without a solve. The records are taken over as they
// lie (see StateFromParts); the vectors are copied. A since outside
// [0, d.Epoch()) is an error, and so is a delta no chain of solves across those
// batches produces: vectors of the wrong length, a partial record, a record
// whose sources are not a < b or out of range or not one of them named by the
// batches, records out of (a, b) order or given twice, no round run.
func ApplyDelta(d *dataset.Dataset, prev *State, since int, dl Delta) (*State, error) {
	if prev == nil || !d.Frozen() {
		return nil, fmt.Errorf("depen: a delta applies to the state of an earlier epoch of a frozen dataset")
	}
	claims, err := claimsSince(d, since)
	if err != nil {
		return nil, err
	}
	c := d.Compiled()
	nS := c.NumSources()
	dirtySrc, dirtyObj, dirtyObjs := dirtySets(c, claims, false)
	nPost := 0
	for _, oi := range dirtyObjs {
		nPost += int(c.GroupStart[oi+1] - c.GroupStart[oi])
	}
	if len(dl.Acc) != nS || len(dl.Post) != nPost {
		return nil, fmt.Errorf("depen: delta of %d accuracies and %d posteriors for %d sources and %d posteriors of the batch's objects",
			len(dl.Acc), len(dl.Post), nS, nPost)
	}
	if dl.Rounds < 1 {
		return nil, fmt.Errorf("depen: delta of a solve that ran %d rounds", dl.Rounds)
	}
	fresh, err := pairRecs(dl.Pairs, nS, dirtySrc)
	if err != nil {
		return nil, err
	}

	st := &State{c: c, rounds: dl.Rounds, converged: dl.Converged}
	srcOf := st.carry(prev, dirtySrc, dirtyObj, 0)
	copy(st.acc, dl.Acc)
	post := dl.Post
	for _, oi := range dirtyObjs {
		n := copy(st.probs[c.GroupStart[oi]:c.GroupStart[oi+1]], post)
		post = post[n:]
	}
	st.setTotals(fresh)
	st.pairs = mergePairs(prev, srcOf, dirtySrc, fresh)
	return st, nil
}
