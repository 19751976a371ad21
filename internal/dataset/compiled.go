// Compiled columnar view of a frozen dataset.
//
// The iterative solvers spend their time in loops over (object, value,
// source) triples and (source, source) pairs; running those loops over
// string-keyed maps dominates their profile. Compile interns every SourceID,
// ObjectID and value string into a dense int32 index and lays the snapshot
// and temporal views out as CSR-style slices, so the hot paths become
// pointer-free scans over contiguous memory.
//
// All three interning tables are built in sorted order, which makes integer
// index comparison equivalent to the string comparisons the map-based
// helpers sort by — the property that keeps the compiled solvers
// bit-identical to the map-based reference implementations (iteration and
// summation order is preserved exactly, including for the ValueSim
// similarity classes, whose per-object candidate enumeration follows the
// same sorted-value order).
package dataset

import (
	"sort"
	"strings"
	"unsafe"

	"sourcecurrents/internal/model"
)

// Compiled is the dense, interned, read-only view of a frozen Dataset.
// Build it with Dataset.Compiled() (heap backend) or load it zero-copy from
// a snapshot v2 container (mapped backend); all fields are shared and must
// not be mutated. Consumers reach the interning tables through the
// Source/Object/Value accessors, which hide which backend is underneath.
type Compiled struct {
	// Heap backend: interning tables built by compile(), each sorted, so
	// index order == string order. nil in the mapped backend.
	sources []model.SourceID
	objects []model.ObjectID
	values  []string

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

// Compiled returns the compiled columnar view, building it on first use
// (subsequent calls return the cached view). It returns nil before Freeze.
// The build is safe for concurrent callers.
func (d *Dataset) Compiled() *Compiled {
	if !d.frozen {
		return nil
	}
	d.compileOnce.Do(func() { d.compiled = compile(d) })
	return d.compiled
}

func compile(d *Dataset) *Compiled {
	if c := compileShared(d); c != nil {
		return c
	}
	c := &Compiled{
		sources: d.sources,
		objects: d.objects,
	}
	c.srcIdx = make(map[model.SourceID]int32, len(c.sources))
	for i, s := range c.sources {
		c.srcIdx[s] = int32(i)
	}
	c.objIdx = make(map[model.ObjectID]int32, len(c.objects))
	for i, o := range c.objects {
		c.objIdx[o] = int32(i)
	}

	// Intern every claim value, sorted so index order == string order.
	seen := make(map[string]struct{}, len(d.claims))
	for _, cl := range d.claims {
		seen[cl.Value] = struct{}{}
	}
	c.values = make([]string, 0, len(seen))
	for v := range seen {
		c.values = append(c.values, v)
	}
	sort.Strings(c.values)
	c.valIdx = make(map[string]int32, len(c.values))
	for i, v := range c.values {
		c.valIdx[v] = int32(i)
	}

	c.buildGroups(d)
	c.buildSourceClaims(d)
	c.buildSpans(d)
	return c
}

// compileShared builds the compiled view of an appended dataset by reusing
// the predecessor's interning tables when the batch introduced no new
// source, object, or value strings — the steady-state append. Only the
// sorted tables and index maps are shared (they are read-only and identical
// by construction); every CSR layout is rebuilt against the successor. It
// returns nil when the fast path does not apply.
func compileShared(d *Dataset) *Compiled {
	base := d.base
	if base == nil {
		return nil
	}
	// The replay and live-append paths always compile the predecessor before
	// the successor, so this is a cached fetch, not a recursive build.
	bc := base.Compiled()
	// Append only ever adds ids, so equal table lengths mean identical
	// (shared) tables.
	if len(d.sources) != bc.NumSources() || len(d.objects) != bc.NumObjects() {
		return nil
	}
	// The predecessor could be mapped (a session materialized from a v2
	// snapshot): its index maps are nil and its strings alias the mapping,
	// which must not leak into a successor that outlives it. Appends always
	// run against materialized datasets, so just rebuild from scratch.
	if bc.srcIdx == nil {
		return nil
	}
	for _, cl := range d.Batch() {
		if _, ok := bc.valIdx[cl.Value]; !ok {
			return nil
		}
	}
	c := &Compiled{
		sources: bc.sources,
		objects: bc.objects,
		values:  bc.values,
		srcIdx:  bc.srcIdx,
		objIdx:  bc.objIdx,
		valIdx:  bc.valIdx,
	}
	c.buildGroups(d)
	c.buildSourceClaims(d)
	c.buildSpans(d)
	return c
}

// buildGroups lays out the per-object candidate value groups. ValuesFor
// already returns groups in sorted-value order with deduped ascending
// sources, which is exactly the canonical order the solvers iterate in.
func (c *Compiled) buildGroups(d *Dataset) {
	c.GroupStart = make([]int32, len(c.objects)+1)
	c.GroupSrcStart = append(c.GroupSrcStart, 0)
	for oi, o := range c.objects {
		groups := d.ValuesFor(o)
		if len(groups) > c.maxGroups {
			c.maxGroups = len(groups)
		}
		for _, g := range groups {
			c.GroupValue = append(c.GroupValue, c.valIdx[g.Value])
			for _, s := range g.Sources {
				c.GroupSrc = append(c.GroupSrc, c.srcIdx[s])
			}
			c.GroupSrcStart = append(c.GroupSrcStart, int32(len(c.GroupSrc)))
		}
		c.GroupStart[oi+1] = int32(len(c.GroupValue))
	}
}

// buildSourceClaims lays out each source's snapshot claims with the global
// group index of each asserted value. One sweep over the objects in index
// order fills every source's exactly-sized region in ascending-object
// order — the same layout as iterating each source's sorted object list,
// without re-sorting per source.
func (c *Compiled) buildSourceClaims(d *Dataset) {
	nS := len(c.sources)
	c.SrcStart = make([]int32, nS+1)
	for si, s := range c.sources {
		c.SrcStart[si+1] = c.SrcStart[si] + int32(len(d.valueOf[s]))
	}
	total := int(c.SrcStart[nS])
	c.SrcObj = make([]int32, total)
	c.SrcVal = make([]int32, total)
	c.SrcGroup = make([]int32, total)
	cursor := make([]int32, nS)
	copy(cursor, c.SrcStart[:nS])
	for oi, o := range c.objects {
		// byObject is source-sorted after Freeze; a source re-asserting o
		// appears in adjacent entries and contributes one snapshot claim.
		var last model.SourceID
		haveLast := false
		for _, idx := range d.byObject[o] {
			s := d.claims[idx].Source
			if haveLast && s == last {
				continue
			}
			last, haveLast = s, true
			si := c.srcIdx[s]
			vi := c.valIdx[d.valueOf[s][o]]
			k := cursor[si]
			cursor[si]++
			c.SrcObj[k] = int32(oi)
			c.SrcVal[k] = vi
			c.SrcGroup[k] = c.findGroup(int32(oi), vi)
		}
	}
}

// findGroup locates the group of object oi holding value vi by binary search
// over the object's value-sorted groups.
func (c *Compiled) findGroup(oi, vi int32) int32 {
	lo, hi := c.GroupStart[oi], c.GroupStart[oi+1]
	vals := c.GroupValue[lo:hi]
	k := sort.Search(len(vals), func(i int) bool { return vals[i] >= vi })
	return lo + int32(k)
}

// buildSpans collapses each source's update trace into per-(object, value)
// first/last assertion spans, sorted by packed key, and tallies how many
// sources ever make each assertion (the temporal rarity denominator).
func (c *Compiled) buildSpans(d *Dataset) {
	c.SpanStart = make([]int32, len(c.sources)+1)
	pop := map[int64]int32{}
	type span struct{ first, last model.Time }
	for si, s := range c.sources {
		spans := map[int64]span{}
		for _, idx := range d.bySource[s] {
			cl := d.claims[idx]
			if !cl.HasTime {
				continue
			}
			key := int64(c.objIdx[cl.Object])<<32 | int64(c.valIdx[cl.Value])
			sp, ok := spans[key]
			if !ok {
				spans[key] = span{first: cl.Time, last: cl.Time}
				continue
			}
			if cl.Time < sp.first {
				sp.first = cl.Time
			}
			if cl.Time > sp.last {
				sp.last = cl.Time
			}
			spans[key] = sp
		}
		keys := make([]int64, 0, len(spans))
		for k := range spans {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		for _, k := range keys {
			sp := spans[k]
			c.SpanKey = append(c.SpanKey, k)
			c.SpanFirst = append(c.SpanFirst, sp.first)
			c.SpanLast = append(c.SpanLast, sp.last)
			pop[k]++
		}
		c.SpanStart[si+1] = int32(len(c.SpanKey))
	}
	c.PopKey = make([]int64, 0, len(pop))
	for k := range pop {
		c.PopKey = append(c.PopKey, k)
	}
	sort.Slice(c.PopKey, func(a, b int) bool { return c.PopKey[a] < c.PopKey[b] })
	c.PopCount = make([]int32, len(c.PopKey))
	for i, k := range c.PopKey {
		c.PopCount[i] = pop[k]
	}
}

// MaxGroupsPerObject returns the largest candidate-value count over all
// objects; solvers size their per-worker scratch buffers with it.
func (c *Compiled) MaxGroupsPerObject() int { return c.maxGroups }

// MaxSourcesPerGroup returns the largest asserting-source count over all
// value groups.
func (c *Compiled) MaxSourcesPerGroup() int {
	max := 0
	for g := 0; g+1 < len(c.GroupSrcStart); g++ {
		if n := int(c.GroupSrcStart[g+1] - c.GroupSrcStart[g]); n > max {
			max = n
		}
	}
	return max
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

// SourceIndex returns the dense index of s.
func (c *Compiled) SourceIndex(s model.SourceID) (int32, bool) {
	if c.srcIdx != nil {
		i, ok := c.srcIdx[s]
		return i, ok
	}
	n := c.NumSources()
	k := sort.Search(n, func(i int) bool { return c.Source(i) >= s })
	if k < n && c.Source(k) == s {
		return int32(k), true
	}
	return 0, false
}

// ObjectIndex returns the dense index of o.
func (c *Compiled) ObjectIndex(o model.ObjectID) (int32, bool) {
	if c.objIdx != nil {
		i, ok := c.objIdx[o]
		return i, ok
	}
	n := c.NumObjects()
	// Objects are sorted by (entity, attribute) — model.SortObjects order.
	k := sort.Search(n, func(i int) bool {
		ci := c.Object(i)
		if ci.Entity != o.Entity {
			return ci.Entity > o.Entity
		}
		return ci.Attribute >= o.Attribute
	})
	if k < n && c.Object(k) == o {
		return int32(k), true
	}
	return 0, false
}

// ValueIndex returns the dense index of value v.
func (c *Compiled) ValueIndex(v string) (int32, bool) {
	if c.valIdx != nil {
		i, ok := c.valIdx[v]
		return i, ok
	}
	n := c.NumValues()
	k := sort.Search(n, func(i int) bool { return c.Value(i) >= v })
	if k < n && c.Value(k) == v {
		return int32(k), true
	}
	return 0, false
}

// ClaimOf returns the position in the per-source claim arrays (SrcObj,
// SrcVal, SrcGroup) holding source si's snapshot claim for object oi, or -1
// when si asserts nothing about oi — the dense equivalent of
// Dataset.Value, by binary search over the source's ascending object list.
func (c *Compiled) ClaimOf(si, oi int32) int32 {
	lo, hi := c.SrcStart[si], c.SrcStart[si+1]
	objs := c.SrcObj[lo:hi]
	k := sort.Search(len(objs), func(i int) bool { return objs[i] >= oi })
	if k < len(objs) && objs[k] == oi {
		return lo + int32(k)
	}
	return -1
}

// PopularityOf returns how many sources ever assert the timestamped
// (object, value) packed key, by binary search.
func (c *Compiled) PopularityOf(key int64) int32 {
	k := sort.Search(len(c.PopKey), func(i int) bool { return c.PopKey[i] >= key })
	if k < len(c.PopKey) && c.PopKey[k] == key {
		return c.PopCount[k]
	}
	return 0
}
