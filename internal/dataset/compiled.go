// Columnar index of a frozen dataset — its one representation.
//
// A frozen Dataset is a claim log plus this index; there is no second,
// map-shaped copy. The iterative solvers spend their time in loops over
// (object, value, source) triples and (source, source) pairs, so every
// SourceID, ObjectID and value string is interned into a dense int32 index
// and the claims, the snapshot view and the temporal view are laid out as
// CSR-style slices: the hot paths are pointer-free scans over contiguous
// memory, and the Dataset accessors (ClaimsBySource, Value, OverlapOf, …)
// are row reads over the same slices.
//
// All three interning tables are in sorted order, which makes integer index
// comparison equivalent to the string comparisons the map-based reference
// implementations sort by — the property that keeps the solvers
// bit-identical to them (iteration and summation order is preserved
// exactly, including for the ValueSim similarity classes, whose per-object
// candidate enumeration follows the same sorted-value order). It is also
// what lets buildColumns, the one builder Freeze and Append share, order
// claims by integer sort alone.
package dataset

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"sourcecurrents/internal/model"
)

// Compiled is the dense, interned, read-only index of a frozen Dataset.
// Dataset.Compiled() returns the one Freeze or Append built (heap backend);
// CompiledFromMapped loads one zero-copy from a snapshot v2 container
// (mapped backend). All fields are shared and must not be mutated.
// Consumers reach the interning tables through the Source/Object/Value
// accessors, which hide which backend is underneath.
type Compiled struct {
	// Heap backend: interning tables, each sorted, so index order == string
	// order. nil in the mapped backend.
	sources []model.SourceID
	objects []model.ObjectID
	values  []string

	// Heap backend: the claim log as columns. Claim i carries interned ids
	// claimSrc[i], claimObj[i], claimVal[i]; bySrc lists each source's claim
	// indexes ordered by (time, object, ingestion) and byObj each object's
	// ordered by (source, ingestion), both CSR. nil in the mapped backend,
	// which serves the snapshot view only.
	claimSrc, claimObj, claimVal []int32
	bySrcStart, bySrc            []int32
	byObjStart, byObj            []int32

	// Mapped backend: every interned string is a byte range of strBlob
	// (which aliases the mapped snapshot). Table entry i spans
	// off[i]..off[i+1]; objects store two consecutive ranges (entity, then
	// attribute), so objOff holds 2n+1 offsets. nil in the heap backend.
	strBlob []byte
	srcOff  []int32
	objOff  []int32
	valOff  []int32

	// Per-object candidate value groups (snapshot view), CSR. Object oi's
	// groups occupy global group indexes GroupStart[oi]..GroupStart[oi+1],
	// ordered by value; group g's asserting sources (deduped, ascending)
	// occupy GroupSrc[GroupSrcStart[g]:GroupSrcStart[g+1]].
	GroupStart    []int32
	GroupValue    []int32
	GroupSrcStart []int32
	GroupSrc      []int32

	// Per-source snapshot claims, CSR, objects ascending. SrcGroup[k] is the
	// global group index holding the value source si asserts for SrcObj[k].
	SrcStart []int32
	SrcObj   []int32
	SrcVal   []int32
	SrcGroup []int32

	// Per-source temporal spans, CSR, sorted by key. SpanKey packs
	// (object index << 32 | value index), so int64 order equals the
	// (entity, attribute, value) order the temporal matcher sorts by.
	// SpanFirst/SpanLast are the first and last assertion times of the
	// (object, value) in the source's update trace.
	SpanStart []int32
	SpanKey   []int64
	SpanFirst []model.Time
	SpanLast  []model.Time

	// Popularity of each distinct timestamped (object, value) assertion:
	// PopCount[k] sources ever assert PopKey[k]. Sorted by key.
	PopKey   []int64
	PopCount []int32

	maxGroups int
	srcIdx    map[model.SourceID]int32
	objIdx    map[model.ObjectID]int32
	valIdx    map[string]int32
}

// Compiled returns the columnar index Freeze or Append built. It returns
// nil before Freeze.
func (d *Dataset) Compiled() *Compiled {
	if !d.frozen {
		return nil
	}
	return d.cols
}

// buildColumns indexes a claim sequence. prev is the index of the claims'
// prefix (the dataset being appended onto) or nil for a flat build; it only
// spares re-interning the prefix — every column is laid out afresh, by the
// same code, whether the claims arrived in one Freeze or over many Appends.
func buildColumns(claims []model.Claim, prev *Compiled) *Compiled {
	c := &Compiled{}
	c.intern(claims, prev)
	c.buildClaimIndex(claims)
	c.buildSnapshotView(claims)
	c.buildSpans(claims)
	return c
}

// intern fills the per-claim id columns and the three interning tables. A
// batch that introduces no new id shares prev's tables and index maps
// (read-only, identical by construction); one that does gets merged tables
// and every id renumbered.
func (c *Compiled) intern(claims []model.Claim, prev *Compiled) {
	n, done := len(claims), 0
	c.claimSrc = make([]int32, n)
	c.claimObj = make([]int32, n)
	c.claimVal = make([]int32, n)
	if prev != nil {
		done = copy(c.claimSrc, prev.claimSrc)
		copy(c.claimObj, prev.claimObj)
		copy(c.claimVal, prev.claimVal)
		c.sources, c.srcIdx = prev.sources, prev.srcIdx
		c.objects, c.objIdx = prev.objects, prev.objIdx
		c.values, c.valIdx = prev.values, prev.valIdx
	}
	c.sources, c.srcIdx = internColumn(c.sources, c.srcIdx, c.claimSrc, done,
		func(i int) model.SourceID { return claims[i].Source }, cmp.Compare[model.SourceID])
	c.objects, c.objIdx = internColumn(c.objects, c.objIdx, c.claimObj, done,
		func(i int) model.ObjectID { return claims[i].Object }, compareObjects)
	c.values, c.valIdx = internColumn(c.values, c.valIdx, c.claimVal, done,
		func(i int) string { return claims[i].Value }, cmp.Compare[string])
}

// compareObjects orders objects by (entity, attribute) — model.SortObjects
// order.
func compareObjects(a, b model.ObjectID) int {
	if a.Entity != b.Entity {
		return cmp.Compare(a.Entity, b.Entity)
	}
	return cmp.Compare(a.Attribute, b.Attribute)
}

// internColumn resolves key(i) to its dense id in col[i] for every i from
// done on, against the sorted table tab and its index map. Keys the table
// lacks go into a fresh sorted table and map — the inputs may be shared with
// a predecessor and are never written — and every id, col[:done] included,
// is renumbered to it.
func internColumn[K comparable](tab []K, idx map[K]int32, col []int32, done int,
	key func(int) K, compare func(a, b K) int) ([]K, map[K]int32) {
	var added []K
	for i := done; i < len(col); i++ {
		k := key(i)
		id, ok := idx[k]
		if !ok {
			if added == nil {
				shared := idx
				idx = make(map[K]int32, len(shared)+1)
				for k, id := range shared {
					idx[k] = id
				}
			}
			id = int32(len(tab) + len(added)) // provisional, until the merge below
			idx[k] = id
			added = append(added, k)
		}
		col[i] = id
	}
	if added == nil {
		return tab, idx
	}
	// Ids so far are positions in tab+added; sorted, each key's new position
	// is its final id.
	merged := append(slices.Clone(tab), added...)
	slices.SortFunc(merged, compare)
	remap := make([]int32, len(merged))
	for at, k := range merged {
		remap[idx[k]] = int32(at)
	}
	for i, id := range col {
		col[i] = remap[id]
	}
	for k, id := range idx {
		idx[k] = remap[id]
	}
	return merged, idx
}

// bucketSort stably reorders the claim indexes in (every claim, in ingestion
// order, when nil) by key — one counting-sort pass — and returns them with
// the CSR bounds of the n buckets.
func bucketSort(in, key []int32, n int) (out, start []int32) {
	start = make([]int32, n+1)
	for _, k := range key {
		start[k+1]++
	}
	for k := 0; k < n; k++ {
		start[k+1] += start[k]
	}
	next := slices.Clone(start[:n])
	out = make([]int32, len(key))
	for p := range key {
		ci := int32(p)
		if in != nil {
			ci = in[p]
		}
		out[next[key[ci]]] = ci
		next[key[ci]]++
	}
	return out, start
}

// buildClaimIndex orders the claim log both ways the accessors read it.
// Index order is string order, so counting sorts do it: by source then by
// object gives each object's claims in (source, ingestion) order, and those
// by source again each source's in (object, ingestion) order. A source's row
// then takes one stable sort by time — skipped when already in time order,
// as every row of a timeless dataset is — to reach (time, object,
// ingestion), the order a source's later claim overwrites its earlier in.
func (c *Compiled) buildClaimIndex(claims []model.Claim) {
	bySource, _ := bucketSort(nil, c.claimSrc, len(c.sources))
	c.byObj, c.byObjStart = bucketSort(bySource, c.claimObj, len(c.objects))
	c.bySrc, c.bySrcStart = bucketSort(c.byObj, c.claimSrc, len(c.sources))
	byTime := func(a, b int32) int { return cmp.Compare(claims[a].Time, claims[b].Time) }
	for si := range c.sources {
		if row := c.sourceClaims(int32(si)); !slices.IsSortedFunc(row, byTime) {
			slices.SortStableFunc(row, byTime)
		}
	}
}

// sourceClaims returns source si's claim indexes in (time, object,
// ingestion) order; objectClaims object oi's in (source, ingestion) order.
func (c *Compiled) sourceClaims(si int32) []int32 {
	return c.bySrc[c.bySrcStart[si]:c.bySrcStart[si+1]]
}

func (c *Compiled) objectClaims(oi int32) []int32 {
	return c.byObj[c.byObjStart[oi]:c.byObjStart[oi+1]]
}

// buildSnapshotView lays out the snapshot view: per object the candidate
// value groups, per source its claims with the group each falls in. Of a
// source's claims about one object the snapshot keeps the last in the
// source's time order; in an object's row those claims are adjacent and in
// ingestion order, so the keeper is the latest-timed, ties to the later
// ingested. One sweep over the objects in index order fills every source's
// exactly-sized row in ascending-object order.
func (c *Compiled) buildSnapshotView(claims []model.Claim) {
	nS, nO := len(c.sources), len(c.objects)
	// kept packs (value << 32 | source) per snapshot claim, objects in index
	// order. Sorting an object's row orders it by value, then source: each
	// run of one value is a group, its sources ascending.
	kept := make([]int64, 0, len(claims))
	keptStart := make([]int32, nO+1)
	c.GroupStart = make([]int32, nO+1)
	c.SrcStart = make([]int32, nS+1)
	for oi := 0; oi < nO; oi++ {
		row := c.objectClaims(int32(oi))
		for k := 0; k < len(row); {
			last, si := row[k], c.claimSrc[row[k]]
			for k++; k < len(row) && c.claimSrc[row[k]] == si; k++ {
				if claims[row[k]].Time >= claims[last].Time {
					last = row[k]
				}
			}
			kept = append(kept, int64(c.claimVal[last])<<32|int64(si))
			c.SrcStart[si+1]++
		}
		keptStart[oi+1] = int32(len(kept))
		groups := kept[keptStart[oi]:]
		slices.Sort(groups)
		n := 0
		for k, p := range groups {
			if k == 0 || p>>32 != groups[k-1]>>32 {
				n++
			}
		}
		c.GroupStart[oi+1] = c.GroupStart[oi] + int32(n)
		c.maxGroups = max(c.maxGroups, n)
	}
	for si := 0; si < nS; si++ {
		c.SrcStart[si+1] += c.SrcStart[si]
	}

	// kept is now GroupSrc's layout with the values still attached: entry j
	// is the j-th group member, and a group opens wherever the value (or the
	// object) changes.
	nG := c.GroupStart[nO]
	c.GroupValue = make([]int32, nG)
	c.GroupSrcStart = make([]int32, nG+1)
	c.GroupSrc = make([]int32, len(kept))
	c.SrcObj = make([]int32, len(kept))
	c.SrcVal = make([]int32, len(kept))
	c.SrcGroup = make([]int32, len(kept))
	cursor := slices.Clone(c.SrcStart[:nS])
	g := int32(-1)
	for oi := 0; oi < nO; oi++ {
		for j := keptStart[oi]; j < keptStart[oi+1]; j++ {
			vi, si := int32(kept[j]>>32), int32(kept[j])
			if j == keptStart[oi] || vi != c.GroupValue[g] {
				g++
				c.GroupValue[g] = vi
				c.GroupSrcStart[g] = j
			}
			c.GroupSrc[j] = si
			at := cursor[si]
			cursor[si]++
			c.SrcObj[at] = int32(oi)
			c.SrcVal[at] = vi
			c.SrcGroup[at] = g
		}
	}
	c.GroupSrcStart[nG] = int32(len(kept))
}

// buildSpans collapses each source's update trace into per-(object, value)
// first/last assertion spans, sorted by packed key, and tallies how many
// sources ever make each assertion (the temporal rarity denominator).
func (c *Compiled) buildSpans(claims []model.Claim) {
	c.SpanStart = make([]int32, len(c.sources)+1)
	type stamp struct {
		key int64
		t   model.Time
	}
	var trace []stamp
	for si := range c.sources {
		trace = trace[:0]
		for _, ci := range c.sourceClaims(int32(si)) {
			if claims[ci].HasTime {
				trace = append(trace, stamp{int64(c.claimObj[ci])<<32 | int64(c.claimVal[ci]), claims[ci].Time})
			}
		}
		// The row is in time order and the sort stable, so each key's run
		// opens with its first assertion and closes with its last.
		slices.SortStableFunc(trace, func(a, b stamp) int { return cmp.Compare(a.key, b.key) })
		for k := 0; k < len(trace); {
			first := trace[k]
			for k++; k < len(trace) && trace[k].key == first.key; k++ {
			}
			c.SpanKey = append(c.SpanKey, first.key)
			c.SpanFirst = append(c.SpanFirst, first.t)
			c.SpanLast = append(c.SpanLast, trace[k-1].t)
		}
		c.SpanStart[si+1] = int32(len(c.SpanKey))
	}
	// A source contributes each key once, so a key's popularity is its
	// multiplicity over all spans.
	keys := append([]int64{}, c.SpanKey...)
	slices.Sort(keys)
	c.PopCount = []int32{}
	for k, key := range keys {
		if k == 0 || key != keys[k-1] {
			c.PopCount = append(c.PopCount, 0)
		}
		c.PopCount[len(c.PopCount)-1]++
	}
	c.PopKey = slices.Compact(keys)
}

// MaxGroupsPerObject returns the largest candidate-value count over all
// objects; solvers size their per-worker scratch buffers with it.
func (c *Compiled) MaxGroupsPerObject() int { return c.maxGroups }

// MaxSourcesPerGroup returns the largest asserting-source count over all
// value groups.
func (c *Compiled) MaxSourcesPerGroup() int {
	most := int32(0)
	for g := 1; g < len(c.GroupSrcStart); g++ {
		most = max(most, c.GroupSrcStart[g]-c.GroupSrcStart[g-1])
	}
	return int(most)
}

// Accessor API over the interning tables. Index order == string order in
// both backends, so the mapped backend answers lookups by binary search
// over the sorted table instead of rebuilding index maps (which would blow
// the snapshot-load allocation budget).

// NumSources returns the source-table length.
func (c *Compiled) NumSources() int {
	if c.srcOff != nil {
		return len(c.srcOff) - 1
	}
	return len(c.sources)
}

// NumObjects returns the object-table length.
func (c *Compiled) NumObjects() int {
	if c.objOff != nil {
		return (len(c.objOff) - 1) / 2
	}
	return len(c.objects)
}

// NumValues returns the value-table length.
func (c *Compiled) NumValues() int {
	if c.valOff != nil {
		return len(c.valOff) - 1
	}
	return len(c.values)
}

// str returns blob bytes [lo,hi) as a zero-copy string view. The view
// aliases the mapped region and is invalidated by unmapping.
func (c *Compiled) str(lo, hi int32) string {
	if lo == hi {
		return ""
	}
	return unsafe.String(&c.strBlob[lo], int(hi-lo))
}

// Source returns interned source i.
func (c *Compiled) Source(i int) model.SourceID {
	if c.srcOff != nil {
		return model.SourceID(c.str(c.srcOff[i], c.srcOff[i+1]))
	}
	return c.sources[i]
}

// Object returns interned object i.
func (c *Compiled) Object(i int) model.ObjectID {
	if c.objOff != nil {
		return model.ObjectID{
			Entity:    c.str(c.objOff[2*i], c.objOff[2*i+1]),
			Attribute: c.str(c.objOff[2*i+1], c.objOff[2*i+2]),
		}
	}
	return c.objects[i]
}

// Value returns interned value i.
func (c *Compiled) Value(i int) string {
	if c.valOff != nil {
		return c.str(c.valOff[i], c.valOff[i+1])
	}
	return c.values[i]
}

// SourceIDs returns the sorted source table as a slice. The heap backend
// returns the shared interning table (treat as read-only); the mapped
// backend materializes a fresh copy whose strings do not alias the mapping,
// so the result survives unmapping.
func (c *Compiled) SourceIDs() []model.SourceID {
	if c.srcOff == nil {
		return c.sources
	}
	out := make([]model.SourceID, c.NumSources())
	for i := range out {
		out[i] = model.SourceID(strings.Clone(string(c.Source(i))))
	}
	return out
}

// ObjectIDs returns the sorted object table as a slice, under the same
// sharing/copying contract as SourceIDs.
func (c *Compiled) ObjectIDs() []model.ObjectID {
	if c.objOff == nil {
		return c.objects
	}
	out := make([]model.ObjectID, c.NumObjects())
	for i := range out {
		o := c.Object(i)
		out[i] = model.ObjectID{
			Entity:    strings.Clone(o.Entity),
			Attribute: strings.Clone(o.Attribute),
		}
	}
	return out
}

// find adapts sort.Find over a sorted interning table to the index lookups.
func find(n int, compare func(i int) int) (int32, bool) {
	if k, ok := sort.Find(n, compare); ok {
		return int32(k), true
	}
	return 0, false
}

// SourceIndex returns the dense index of s.
func (c *Compiled) SourceIndex(s model.SourceID) (int32, bool) {
	if c.srcIdx != nil {
		i, ok := c.srcIdx[s]
		return i, ok
	}
	return find(c.NumSources(), func(i int) int { return cmp.Compare(s, c.Source(i)) })
}

// ObjectIndex returns the dense index of o.
func (c *Compiled) ObjectIndex(o model.ObjectID) (int32, bool) {
	if c.objIdx != nil {
		i, ok := c.objIdx[o]
		return i, ok
	}
	return find(c.NumObjects(), func(i int) int { return compareObjects(o, c.Object(i)) })
}

// ValueIndex returns the dense index of value v.
func (c *Compiled) ValueIndex(v string) (int32, bool) {
	if c.valIdx != nil {
		i, ok := c.valIdx[v]
		return i, ok
	}
	return find(c.NumValues(), func(i int) int { return cmp.Compare(v, c.Value(i)) })
}

// ClaimOf returns the position in the per-source claim arrays (SrcObj,
// SrcVal, SrcGroup) holding source si's snapshot claim for object oi, or -1
// when si asserts nothing about oi — the dense equivalent of
// Dataset.Value, by binary search over the source's ascending object list.
func (c *Compiled) ClaimOf(si, oi int32) int32 {
	lo := c.SrcStart[si]
	if k, ok := slices.BinarySearch(c.SrcObj[lo:c.SrcStart[si+1]], oi); ok {
		return lo + int32(k)
	}
	return -1
}

// PopularityOf returns how many sources ever assert the timestamped
// (object, value) packed key, by binary search.
func (c *Compiled) PopularityOf(key int64) int32 {
	if k, ok := slices.BinarySearch(c.PopKey, key); ok {
		return c.PopCount[k]
	}
	return 0
}
