// Append-only ingest: successor datasets over one shared claim log.
//
// A frozen Dataset never mutates — its claims, its columnar index and any
// running solver may be read concurrently, and that invariant is what makes
// the serving layer lock-free. Live ingest therefore does not edit a
// dataset in place: Append builds a *successor* dataset — the extended claim
// sequence, the batch boundary added to its bounds — and points it at
// nothing: a dataset holds no predecessor, so whoever wants an old epoch kept
// alive keeps it (the session history spine does, within RetainEpochs), and
// At rebuilds any other from the claim prefix. The predecessor keeps serving,
// untouched, until the caller swaps it out.
//
// An append costs its batch, not the log. The claims of a chain of
// successors live in one growing array (claimLog): each dataset reads its own
// prefix of it, and the successor of the dataset standing at the array's tip
// writes its batch into the room behind the tip — one compare-and-swap on the
// tip decides who that is. Everybody else copies, as a successor always did:
// a second successor of one dataset (a sibling), a successor of a dataset At
// rebuilt, a retry after the first successor was dropped, and the successor
// the array has no room for, whose copy is the next, larger array. Whoever
// wins a dataset's tip also holds the one right to extend that dataset's
// per-claim id columns where they lie. The index comes from buildColumns, the
// builder Freeze uses, fed the predecessor's: it lays out the rows — an
// object's, a source's — that the batch names, copies every other row over
// (offsets shifted, ids renumbered when a table grew), and shares the sorted
// tables outright when the batch names no new source, object or value. The result equals a flat build over the same claims field for
// field (TestAppendCompiledMatchesFromScratch).
//
// The log is semantic, not just provenance: depen.Detect on a log-carrying
// dataset replays it — a full solve of the flat base followed by one
// bounded refinement pass per batch — so a session advanced live through
// Session.Append and a session rebuilt from scratch over the same successor
// dataset reach bit-identical state (the equivalence the append suites
// pin).
package dataset

import (
	"fmt"
	"sync/atomic"

	"sourcecurrents/internal/model"
)

// claimLog is the array a chain of successor datasets keeps its claims in.
// buf[:tip] is written and never written again; a dataset of n claims reads
// buf[:n], and only the successor of the one with n == tip may write further.
type claimLog struct {
	buf []model.Claim // at full capacity
	tip atomic.Int64
}

// Append returns a new frozen dataset holding this dataset's claims plus
// batch, recorded as one appended log batch. The receiver must be frozen
// and is not modified. The batch must be non-empty and every claim valid.
func (d *Dataset) Append(batch []model.Claim) (*Dataset, error) {
	if !d.frozen {
		return nil, fmt.Errorf("dataset: append requires a frozen dataset")
	}
	if len(batch) == 0 {
		return nil, fmt.Errorf("dataset: empty append batch")
	}
	for i := range batch {
		if err := batch[i].Validate(); err != nil {
			return nil, fmt.Errorf("dataset: append batch[%d]: %w", i, err)
		}
	}

	n, e := len(d.claims), len(d.bounds)
	end := n + len(batch)
	log := d.log
	atTip := log != nil && end <= len(log.buf) && log.tip.CompareAndSwap(int64(n), int64(end))
	if atTip {
		copy(log.buf[n:end], batch)
	} else {
		// d.claims is capped at its length, so this append copies — into the
		// array that is the successors' log from here, room to grow included.
		buf := append(d.claims, batch...)
		log = &claimLog{buf: buf[:cap(buf)]}
		log.tip.Store(int64(end))
	}
	return &Dataset{
		claims: log.buf[:end:end],
		frozen: true,
		log:    log,
		bounds: append(d.bounds[:e:e], n),
		cols:   buildColumns(log.buf[:end], d.cols, atTip),
	}, nil
}

// Epoch returns the number of appended batches in this dataset's log; 0 for
// a flat dataset built by Freeze or FromClaims.
func (d *Dataset) Epoch() int { return len(d.bounds) }

// At returns the dataset as it stood at the given epoch: the receiver for
// its own epoch, and otherwise a frozen dataset over the claim prefix that
// epoch held — the claims and bounds shared with the receiver, the columns
// built afresh by the one builder, so it costs what Freeze costs and equals
// the dataset that was appended onto then. Epochs outside [0, Epoch()] are
// an error.
func (d *Dataset) At(epoch int) (*Dataset, error) {
	if epoch < 0 || epoch > len(d.bounds) {
		return nil, fmt.Errorf("dataset: epoch %d out of range [0, %d]", epoch, len(d.bounds))
	}
	if epoch == len(d.bounds) {
		return d, nil
	}
	n := d.bounds[epoch]
	at := &Dataset{claims: d.claims[:n:n], frozen: true}
	at.cols = buildColumns(at.claims, nil, false)
	if epoch > 0 { // a flat dataset's bounds are nil
		at.bounds = d.bounds[:epoch:epoch]
	}
	return at, nil
}

// Batch returns the most recently appended batch (empty for a flat
// dataset). The slice aliases internal storage; callers must not mutate it.
func (d *Dataset) Batch() []model.Claim { return d.BatchAt(len(d.bounds)) }

// BatchAt returns the batch whose append reached epoch e, for e in
// [1, Epoch()], and nil otherwise. The slice aliases internal storage;
// callers must not mutate it.
func (d *Dataset) BatchAt(e int) []model.Claim {
	if e < 1 || e > len(d.bounds) {
		return nil
	}
	end := len(d.claims)
	if e < len(d.bounds) {
		end = d.bounds[e]
	}
	return d.claims[d.bounds[e-1]:end]
}

// LogBounds returns the claim-count boundary of every epoch in append
// order: LogBounds()[0] is the flat base's length and each later entry the
// length after one more batch (the final boundary, Len(), is omitted). A
// flat dataset returns nil. The bounds plus the claim sequence are the full
// log. The slice aliases internal storage; callers must not mutate it.
func (d *Dataset) LogBounds() []int { return d.bounds }
