// Append-only ingest: successor datasets over a claim log.
//
// A frozen Dataset never mutates — its claims, its columnar index and any
// running solver may be read concurrently, and that invariant is what makes
// the serving layer lock-free. Live ingest therefore does not edit a
// dataset in place: Append builds a *successor* dataset and records the
// batch boundary in a log chained through Base. The successor's index comes
// from the same builder Freeze uses, over the extended claim sequence. What
// it takes from the predecessor is the interning: the ids of the claims
// already logged (copied, renumbered only when a table grows) and, when the
// batch names no new source, object or value, the sorted tables and index
// maps themselves, shared. Every column is laid out afresh. The predecessor
// keeps serving, untouched, until the caller swaps it out.
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

	"sourcecurrents/internal/model"
)

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

	n := len(d.claims)
	// The three-index slice caps capacity at length, so the append below
	// always copies into a fresh array: a sibling successor (or a caller
	// holding Claims()) can never clobber this epoch's claims.
	claims := append(d.claims[:n:n], batch...)
	return &Dataset{
		claims:  claims,
		frozen:  true,
		base:    d,
		baseLen: n,
		epoch:   d.epoch + 1,
		cols:    buildColumns(claims, d.cols),
	}, nil
}

// Epoch returns the number of appended batches in this dataset's log; 0 for
// a flat dataset built by Freeze or FromClaims.
func (d *Dataset) Epoch() int { return d.epoch }

// At returns the dataset as it stood at the given epoch, walking the append
// log's base chain. Epoch d.Epoch() is the receiver itself; epoch 0 the flat
// origin. Every returned dataset is frozen and shares storage with the
// receiver (the chain retains each epoch's index structures), so At is O(log
// length) pointer chasing — no claims are copied. Epochs outside [0,
// Epoch()] are an error, as is a chain whose early epochs were not retained
// (a dataset rebuilt from a v1 snapshot has no log).
func (d *Dataset) At(epoch int) (*Dataset, error) {
	if epoch < 0 || epoch > d.epoch {
		return nil, fmt.Errorf("dataset: epoch %d out of range [0, %d]", epoch, d.epoch)
	}
	cur := d
	for cur.epoch > epoch {
		if cur.base == nil {
			return nil, fmt.Errorf("dataset: epoch %d not addressable (log truncated at epoch %d)", epoch, cur.epoch)
		}
		cur = cur.base
	}
	if cur.epoch != epoch {
		// The chain stepped past the target: epochs must be contiguous, so
		// this indicates a malformed chain rather than a pruned one.
		return nil, fmt.Errorf("dataset: epoch %d missing from log chain", epoch)
	}
	return cur, nil
}

// Base returns the predecessor this dataset was appended onto, or nil for a
// flat dataset. Walking Base to nil visits every epoch of the log.
func (d *Dataset) Base() *Dataset { return d.base }

// Batch returns the most recently appended batch (empty for a flat
// dataset). The slice aliases internal storage; callers must not mutate it.
func (d *Dataset) Batch() []model.Claim { return d.claims[d.baseLen:] }

// LogBounds returns the claim-count boundary of every epoch in append
// order: LogBounds()[0] is the flat base's length and each later entry the
// length after one more batch (the final boundary, Len(), is omitted). A
// flat dataset returns nil. The bounds plus the claim sequence reconstruct
// the full log: FromClaims over the prefix, then Append per batch.
func (d *Dataset) LogBounds() []int {
	if d.base == nil {
		return nil
	}
	out := make([]int, d.epoch)
	for e := d; e.base != nil; e = e.base {
		out[e.epoch-1] = e.baseLen
	}
	return out
}
