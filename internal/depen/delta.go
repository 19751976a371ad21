// Epoch deltas: a solve across one batch, shipped instead of repeated.
//
// A solve across an appended batch (refine given a predecessor) overwrites
// a known part of the state and copies the rest from the predecessor: it
// rewrites the whole accuracy vector, the posterior rows of the objects the
// batch names, and the pair records with a member the batch names (the only
// records whose cells of the totals table it writes), and it ends after some
// rounds, converged or not. That part is the epoch's Delta. Whoever holds the
// predecessor's state and the successor dataset rebuilds the successor's
// state from it by doing what refine does around its rounds — carry the
// predecessor over, write the overwritten part, merge the pair lists — and
// reaches the same state bit for bit, without running a round. That is how a
// replica follows its primary: the primary solves the batch once and every
// replica applies the delta.
//
// The delta is read off the successor state itself: the batch gives the dirty
// sources and objects, and the successor's records with a dirty member are
// exactly the ones refine rescored (every kept record has two clean members),
// so nothing extra is recorded while solving.
package depen

import (
	"fmt"
	"unsafe"

	"sourcecurrents/internal/dataset"
)

// Delta is what a solve across one appended batch overwrote, in the successor
// dataset's compiled order: Acc the whole accuracy vector; Post the posterior
// rows of the objects the batch names, in ascending object order, laid end to
// end; Pairs the records of the analysed pairs with a member the batch names,
// in PairBytes' layout and (a, b) order; and how the solve ended.
type Delta struct {
	Acc, Post []float64
	Pairs     []byte
	Rounds    int
	Converged bool
}

// Delta returns the delta of d's last batch, where st is the state solved on
// d (an appended dataset). Acc aliases the state; read-only.
func (st *State) Delta(d *dataset.Dataset) (Delta, error) {
	c := st.c
	if d.Compiled() != c {
		return Delta{}, fmt.Errorf("depen: delta of a dataset the state was not solved on")
	}
	if d.Epoch() == 0 {
		return Delta{}, fmt.Errorf("depen: a flat dataset has no batch to take a delta of")
	}
	dirtySrc, _, dirtyObjs := dirtySets(c, d.Batch(), false)
	var post []float64
	for _, oi := range dirtyObjs {
		post = append(post, st.probs[c.GroupStart[oi]:c.GroupStart[oi+1]]...)
	}
	var fresh []pairRec
	for _, p := range st.pairs {
		if dirtySrc[p.a] || dirtySrc[p.b] {
			fresh = append(fresh, p)
		}
	}
	var pairs []byte
	if len(fresh) > 0 {
		pairs = unsafe.Slice((*byte)(unsafe.Pointer(&fresh[0])), len(fresh)*pairRecBytes)
	}
	return Delta{Acc: st.acc, Post: post, Pairs: pairs, Rounds: st.rounds, Converged: st.converged}, nil
}

// ApplyDelta returns the state of d, an appended dataset, from prev, the state
// of d's previous epoch, and the delta of d's last batch: what Solve(d, prev,
// cfg) returns, without a solve. The records are taken over as they lie (see
// StateFromParts); the vectors are copied. A delta no solve across d's batch
// produces is an error: vectors of the wrong length, a partial record, a
// record whose sources are not a < b or out of range or not one of them named
// by the batch, records out of (a, b) order or given twice, no round run.
func ApplyDelta(d *dataset.Dataset, prev *State, dl Delta) (*State, error) {
	if prev == nil || !d.Frozen() || d.Epoch() == 0 {
		return nil, fmt.Errorf("depen: a delta applies to the state of an appended dataset's previous epoch")
	}
	c := d.Compiled()
	nS := c.NumSources()
	dirtySrc, dirtyObj, dirtyObjs := dirtySets(c, d.Batch(), false)
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
