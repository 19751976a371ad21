// Package dataset provides the indexed claim store the discovery algorithms
// run against.
//
// A frozen Dataset is two things: the claim log — the claims in ingestion
// order, a prefix of an array its successors extend, with the batch
// boundaries Append recorded — and one columnar index
// over it (Compiled, see compiled.go): interned ids, each source's claims in
// time order, each object's in source order, the snapshot view (the value
// each source currently asserts per object) and the temporal spans. The
// solvers scan the columns directly; every accessor here — claims by source
// or object, values, overlaps, value groups, update traces, the projection
// "as of" a time the incomplete-observations experiments sample worlds
// with — is a read over the same columns. There is no second representation
// to keep in step, and no link to any other dataset: an earlier epoch is a
// prefix of the claims, rebuilt on request (At, see append.go).
package dataset

import (
	"fmt"
	"slices"

	"sourcecurrents/internal/model"
)

// Dataset is an immutable-after-Freeze collection of claims with its index.
// Build it with Add/AddAll, then call Freeze before handing it to solvers;
// every iteration order the index exposes is deterministic.
type Dataset struct {
	// claims is capped at its length once frozen, so that nobody holding it
	// (Claims and Batch hand it out) can append into what follows it in log.
	claims []model.Claim
	frozen bool

	// log is the array claims is a prefix of, shared along a chain of
	// successors (see append.go); nil for a dataset no Append produced.
	log *claimLog

	// Append-only log (see append.go): bounds[e] is the number of claims the
	// dataset held at epoch e, before batch e+1 was appended; nil for a flat
	// dataset. A dataset points at no other dataset — At rebuilds an earlier
	// epoch from claims[:bounds[e]].
	bounds []int

	// cols is the columnar index (see compiled.go): empty until Freeze,
	// built once by Freeze or Append, never modified after.
	cols *Compiled
}

// New returns an empty dataset.
func New() *Dataset { return &Dataset{cols: &Compiled{}} }

// Add appends one claim. It returns an error for invalid claims or when the
// dataset is already frozen.
func (d *Dataset) Add(c model.Claim) error {
	if d.frozen {
		return fmt.Errorf("dataset: frozen")
	}
	if err := c.Validate(); err != nil {
		return err
	}
	d.claims = append(d.claims, c)
	return nil
}

// AddAll appends claims, stopping at the first invalid one.
func (d *Dataset) AddAll(cs []model.Claim) error {
	for _, c := range cs {
		if err := d.Add(c); err != nil {
			return err
		}
	}
	return nil
}

// Freeze finalizes the dataset: it builds the index (per source by time,
// then object; per object by source) and the snapshot view. For a source
// that asserted multiple values for one object over time, the snapshot view
// keeps the latest claim.
func (d *Dataset) Freeze() {
	if d.frozen {
		return
	}
	d.frozen = true
	d.claims = slices.Clip(d.claims)
	d.cols = buildColumns(d.claims, nil, false)
}

// Frozen reports whether Freeze has run.
func (d *Dataset) Frozen() bool { return d.frozen }

// Len returns the number of claims.
func (d *Dataset) Len() int { return len(d.claims) }

// Sources returns source ids in sorted order. Valid after Freeze.
//
// The slice aliases internal storage and may additionally be shared with
// successor datasets built by Append; callers must treat it as read-only
// (copy before sorting, filtering in place, or appending).
func (d *Dataset) Sources() []model.SourceID { return d.cols.sources }

// Objects returns object ids in sorted order. Valid after Freeze. Shared
// read-only storage — the same ownership rule as Sources.
func (d *Dataset) Objects() []model.ObjectID { return d.cols.objects }

// Claims returns all claims in ingestion order. The slice aliases internal
// storage, which successors and the datasets At returns share; callers must
// not mutate it. Its capacity is its length, so appending to it copies.
func (d *Dataset) Claims() []model.Claim { return d.claims }

// gather copies out the claims a row of claim indexes names.
func (d *Dataset) gather(row []int32) []model.Claim {
	out := make([]model.Claim, len(row))
	for i, ci := range row {
		out[i] = d.claims[ci]
	}
	return out
}

// ClaimsByObject returns all claims about o, ordered by source.
func (d *Dataset) ClaimsByObject(o model.ObjectID) []model.Claim {
	var row []int32
	if oi, ok := d.cols.ObjectIndex(o); ok {
		row = d.cols.objectClaims(oi)
	}
	return d.gather(row)
}

// Value returns the (snapshot) value source s asserts for object o.
func (d *Dataset) Value(s model.SourceID, o model.ObjectID) (string, bool) {
	c := d.cols
	si, okS := c.SourceIndex(s)
	oi, okO := c.ObjectIndex(o)
	if okS && okO {
		if k := c.ClaimOf(si, oi); k >= 0 {
			return c.values[c.SrcVal[k]], true
		}
	}
	return "", false
}

// snapshotRow returns the bounds of s's row in the per-source snapshot
// columns (SrcObj, SrcVal, SrcGroup); empty for a source with no claims.
func (d *Dataset) snapshotRow(s model.SourceID) (lo, hi int32) {
	si, ok := d.cols.SourceIndex(s)
	if !ok {
		return 0, 0
	}
	return d.cols.SrcStart[si], d.cols.SrcStart[si+1]
}

// ObjectsOf returns the objects s provides values for, sorted.
func (d *Dataset) ObjectsOf(s model.SourceID) []model.ObjectID {
	lo, hi := d.snapshotRow(s)
	out := make([]model.ObjectID, 0, hi-lo)
	for _, oi := range d.cols.SrcObj[lo:hi] {
		out = append(out, d.cols.objects[oi])
	}
	return out
}

// Overlap describes the shared objects of a source pair in the snapshot
// view.
type Overlap struct {
	Pair    model.SourcePair
	Objects []model.ObjectID // shared objects, sorted
	Same    int              // shared objects on which the two values agree
}

// OverlapOf computes the overlap between two sources: a merge-join of their
// snapshot rows, both object-ascending.
func (d *Dataset) OverlapOf(a, b model.SourceID) Overlap {
	c := d.cols
	ov := Overlap{Pair: model.NewSourcePair(a, b)}
	i, iEnd := d.snapshotRow(a)
	j, jEnd := d.snapshotRow(b)
	for i < iEnd && j < jEnd {
		switch oa, ob := c.SrcObj[i], c.SrcObj[j]; {
		case oa < ob:
			i++
		case oa > ob:
			j++
		default:
			ov.Objects = append(ov.Objects, c.objects[oa])
			if c.SrcVal[i] == c.SrcVal[j] {
				ov.Same++
			}
			i++
			j++
		}
	}
	return ov
}

// ValuesFor returns the distinct values asserted for object o with the
// sources asserting each, in deterministic (value-sorted) order.
func (d *Dataset) ValuesFor(o model.ObjectID) []ValueGroup {
	c := d.cols
	oi, ok := c.ObjectIndex(o)
	if !ok {
		return []ValueGroup{}
	}
	lo, hi := c.GroupStart[oi], c.GroupStart[oi+1]
	out := make([]ValueGroup, 0, hi-lo)
	for g := lo; g < hi; g++ {
		members := c.GroupSrc[c.GroupSrcStart[g]:c.GroupSrcStart[g+1]]
		srcs := make([]model.SourceID, len(members))
		for i, si := range members {
			srcs[i] = c.sources[si]
		}
		out = append(out, ValueGroup{Value: c.values[c.GroupValue[g]], Sources: srcs})
	}
	return out
}

// ValueGroup is one candidate value for an object with its asserting
// sources.
type ValueGroup struct {
	Value   string
	Sources []model.SourceID
}

// UpdateTrace returns s's timestamped claims in time order, skipping
// snapshot-only claims. The temporal detector consumes these.
func (d *Dataset) UpdateTrace(s model.SourceID) []model.Claim {
	var out []model.Claim
	if si, ok := d.cols.SourceIndex(s); ok {
		for _, ci := range d.cols.sourceClaims(si) {
			if d.claims[ci].HasTime {
				out = append(out, d.claims[ci])
			}
		}
	}
	return out
}

// TimeRange returns the min and max timestamps over all temporal claims;
// ok is false when the dataset has none.
func (d *Dataset) TimeRange() (lo, hi model.Time, ok bool) {
	for _, c := range d.claims {
		if !c.HasTime {
			continue
		}
		if !ok {
			lo, hi, ok = c.Time, c.Time, true
			continue
		}
		if c.Time < lo {
			lo = c.Time
		}
		if c.Time > hi {
			hi = c.Time
		}
	}
	return lo, hi, ok
}
