// Columnar index of a frozen dataset — its one representation.
//
// A frozen Dataset is a claim log plus this index; there is no second,
// map-shaped copy. The iterative solvers spend their time in loops over
// (object, value, source) triples and (source, source) pairs, so every
// SourceID, ObjectID and value string is interned into a dense int32 index
// and the claims, the snapshot view and the temporal view are laid out as
// CSR-style slices: the hot paths are pointer-free scans over contiguous
// memory, and the Dataset accessors (ClaimsByObject, Value, OverlapOf, …)
// are row reads over the same slices.
//
// All three interning tables are in sorted order, which makes integer index
// comparison equivalent to the string comparisons the map-based reference
// implementations sort by — the property that keeps the solvers
// bit-identical to them (iteration and summation order is preserved
// exactly, including for the ValueSim similarity classes, whose per-object
// candidate enumeration follows the same sorted-value order). It is also
// what lets buildColumns, the one builder Freeze and Append share, order
// claims by integer sort alone, and carry a predecessor's rows into its
// successor by renumbering them: a table only grows, and the ids it has
// given out keep their order when it does.
package dataset

import (
	"cmp"
	"slices"
	"sort"

	"sourcecurrents/internal/model"
)

// Compiled is the dense, interned, read-only index of a frozen Dataset:
// the one Freeze or Append built, or the one FromSections laid out over a
// snapshot's tables — the same structure either way. All fields are shared
// and must not be mutated.
type Compiled struct {
	// Interning tables, each sorted, so index order == string order.
	sources []model.SourceID
	objects []model.ObjectID
	values  []string

	// The claim log as columns. Claim i carries interned ids claimSrc[i],
	// claimObj[i], claimVal[i]; bySrc lists each source's claim indexes
	// ordered by (time, object, ingestion) and byObj each object's ordered by
	// (source, ingestion), both CSR.
	claimSrc, claimObj, claimVal []int32
	bySrcStart, bySrc            []int32
	byObjStart, byObj            []int32

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
}

// Compiled returns the columnar index Freeze or Append built. It returns
// nil before Freeze.
func (d *Dataset) Compiled() *Compiled {
	if !d.frozen {
		return nil
	}
	return d.cols
}

// buildColumns indexes a claim sequence as the successor of prev, the index
// of the claims' prefix — nil for the empty prefix, which is what a flat
// build is. A row (an object's or a source's, in any column family) that the
// fresh claims — those past the prefix — do not name is copied from prev, its
// offsets shifted and its ids pushed through the tables' growth; a row they do
// name is laid out by the gather-sort-group code below, the same code that
// lays out every row of a flat build, where every row is named.
//
// cap(claims) is the room the per-claim id columns get, so that they grow in
// step with the claim log; owned says the caller holds the one right to
// extend prev's arrays past their length (see Dataset.Append), so an id
// column whose table did not grow is extended where it lies.
func buildColumns(claims []model.Claim, prev *Compiled, owned bool) *Compiled {
	if prev == nil {
		prev = noColumns
	}
	c := &Compiled{}
	g := c.intern(claims, prev, owned)
	c.buildClaimIndex(claims, prev, g)
	c.buildSnapshotView(claims, prev, g)
	c.buildSpans(claims, prev, g)
	return c
}

// noColumns is the index of no claims: the predecessor of a flat build.
var noColumns = &Compiled{}

// growth is how one interning table grew under a batch. The tables are
// sorted, so the ids the predecessor gave out keep their order: fwd is
// monotone, and a row of ids pushed through it stays sorted.
type growth struct {
	fwd []int32 // predecessor's id → id; nil when the table did not grow
	inv []int32 // id → predecessor's id, -1 for one the batch introduced; nil likewise
}

func (g growth) to(old int32) int32 {
	if g.fwd == nil {
		return old
	}
	return g.fwd[old]
}

func (g growth) from(id int32) int32 {
	if g.inv == nil {
		return id
	}
	return g.inv[id]
}

// invert returns the inverse of a table's growth over its n ids.
func invert(fwd []int32, n int) []int32 {
	if fwd == nil {
		return nil
	}
	inv := make([]int32, n)
	for id := range inv {
		inv[id] = -1
	}
	for old, id := range fwd {
		inv[id] = int32(old)
	}
	return inv
}

// tableGrowth is the growth of the three tables; values are never looked up
// backwards, so val carries no inverse.
type tableGrowth struct{ src, obj, val growth }

// carried returns the predecessor's id of row id when the row came over
// unchanged — a fresh claim adds to every row it names, so a row of unchanged
// length is an unchanged row — and -1 for a row to lay out. start and
// prevStart bound the claim-index rows (byObj's or bySrc's) of the two.
func carried(g growth, id int32, start, prevStart []int32) int32 {
	old := g.from(id)
	if old >= 0 && start[id+1]-start[id] != prevStart[old+1]-prevStart[old] {
		return -1
	}
	return old
}

// intern fills the per-claim id columns and the three interning tables. A
// batch that introduces no new id shares prev's tables (read-only, identical
// by construction); one that does gets merged tables and every id renumbered.
func (c *Compiled) intern(claims []model.Claim, prev *Compiled, owned bool) (g tableGrowth) {
	n, room := len(claims), cap(claims)
	c.sources, c.claimSrc, g.src.fwd = internColumn(prev.sources, prev.claimSrc, n, room, owned,
		func(i int) model.SourceID { return claims[i].Source }, cmp.Compare[model.SourceID])
	c.objects, c.claimObj, g.obj.fwd = internColumn(prev.objects, prev.claimObj, n, room, owned,
		func(i int) model.ObjectID { return claims[i].Object }, compareObjects)
	c.values, c.claimVal, g.val.fwd = internColumn(prev.values, prev.claimVal, n, room, owned,
		func(i int) string { return claims[i].Value }, cmp.Compare[string])
	g.src.inv = invert(g.src.fwd, len(c.sources))
	g.obj.inv = invert(g.obj.fwd, len(c.objects))
	return g
}

// compareObjects orders objects by (entity, attribute) — model.SortObjects
// order.
func compareObjects(a, b model.ObjectID) int {
	if a.Entity != b.Entity {
		return cmp.Compare(a.Entity, b.Entity)
	}
	return cmp.Compare(a.Attribute, b.Attribute)
}

// internColumn extends the predecessor's id column prevCol to n claims,
// resolving key(i) to its dense id for every claim past it by binary search
// over the sorted table tab, and returns the table, the column and the
// table's growth. When no key is new the table is the predecessor's, shared;
// otherwise the new keys, sorted, are merged into a fresh one — the inputs
// are never written — and every id is renumbered. The column is prevCol's
// own array when the caller owns its tail and it has the room, and a fresh
// one of capacity room otherwise; prevCol's first len(prevCol) ids are never
// written either way.
func internColumn[K comparable](tab []K, prevCol []int32, n, room int, owned bool,
	key func(int) K, compare func(a, b K) int) ([]K, []int32, []int32) {
	inPlace := owned && n <= cap(prevCol)
	var col []int32
	if inPlace {
		col = prevCol[:n]
	} else {
		col = make([]int32, n, room)
		copy(col, prevCol)
	}
	fresh := make(map[K]int32) // a key tab lacks → its provisional id, len(tab) up
	var added []K
	for i := len(prevCol); i < n; i++ {
		k := key(i)
		if id, ok := slices.BinarySearchFunc(tab, k, compare); ok {
			col[i] = int32(id)
			continue
		}
		pid, ok := fresh[k]
		if !ok {
			pid = int32(len(tab) + len(added))
			fresh[k] = pid
			added = append(added, k)
		}
		col[i] = pid
	}
	if added == nil {
		return tab, col, nil
	}
	// Merge the sorted additions into tab: an old entry moves up by those
	// ahead of it, and remap takes an old or provisional id to its place.
	slices.SortFunc(added, compare)
	merged := make([]K, len(tab)+len(added))
	remap := make([]int32, len(merged))
	old := 0
	carry := func(to, shift int) {
		for ; old < to; old++ {
			merged[old+shift], remap[old] = tab[old], int32(old+shift)
		}
	}
	for j, k := range added {
		at, _ := slices.BinarySearchFunc(tab, k, compare)
		carry(at, j)
		merged[at+j], remap[fresh[k]] = k, int32(at+j)
	}
	carry(len(tab), len(added))
	renumbered := col
	if inPlace {
		renumbered = make([]int32, n, room)
	}
	for i, id := range col {
		renumbered[i] = remap[id]
	}
	return merged, renumbered, remap[:len(tab)]
}

// bucketSort stably reorders the claim indexes in — the claims from first on,
// in ingestion order, when nil — by key, one counting-sort pass, and returns
// them with the CSR bounds of the n buckets.
func bucketSort(in []int32, first int, key []int32, n int) (out, start []int32) {
	m := len(in)
	if in == nil {
		m = len(key) - first
	}
	// Bucket k is counted two slots up, so that after the running sum slot
	// k+1 is where its next element goes; with every element placed that slot
	// has reached the bucket's end, which is bucket k+1's start.
	start = make([]int32, n+2)
	for p := 0; p < m; p++ {
		ci := int32(first + p)
		if in != nil {
			ci = in[p]
		}
		start[key[ci]+2]++
	}
	for k := 2; k < n+2; k++ {
		start[k] += start[k-1]
	}
	out = make([]int32, m)
	for p := 0; p < m; p++ {
		ci := int32(first + p)
		if in != nil {
			ci = in[p]
		}
		out[start[key[ci]+1]] = ci
		start[key[ci]+1]++
	}
	return out, start[:n+1]
}

// buildClaimIndex orders the claim log both ways the accessors read it.
// Index order is string order, so counting sorts order the fresh claims: by
// source then by object gives each object's in (source, ingestion) order, and
// those by source again each source's in (object, ingestion) order. A
// source's row then takes one stable sort by time — skipped when already in
// time order, as every row of a timeless dataset is — to reach (time, object,
// ingestion), the order a source's later claim overwrites its earlier in.
// Each row is then merged into the predecessor's row of the same order; a
// fresh claim was ingested after every claim there, so it goes behind its
// equals.
func (c *Compiled) buildClaimIndex(claims []model.Claim, prev *Compiled, g tableGrowth) {
	nS, nO := len(c.sources), len(c.objects)
	bySource, _ := bucketSort(nil, len(prev.claimSrc), c.claimSrc, nS)
	byObj, byObjStart := bucketSort(bySource, 0, c.claimObj, nO)
	bySrc, bySrcStart := bucketSort(byObj, 0, c.claimSrc, nS)
	byTime := func(a, b int32) int { return cmp.Compare(claims[a].Time, claims[b].Time) }
	for si := 0; si < nS; si++ {
		if row := bySrc[bySrcStart[si]:bySrcStart[si+1]]; !slices.IsSortedFunc(row, byTime) {
			slices.SortStableFunc(row, byTime)
		}
	}
	c.byObj, c.byObjStart = mergeRows(prev.byObj, prev.byObjStart, g.obj, byObj, byObjStart,
		func(f, p int32) bool { return c.claimSrc[f] < c.claimSrc[p] })
	c.bySrc, c.bySrcStart = mergeRows(prev.bySrc, prev.bySrcStart, g.src, bySrc, bySrcStart,
		func(f, p int32) bool {
			if tf, tp := claims[f].Time, claims[p].Time; tf != tp {
				return tf < tp
			}
			return c.claimObj[f] < c.claimObj[p]
		})
}

// mergeRows lays out the successor's CSR rows of claim indexes: row r is the
// predecessor's row for r (prev and prevStart, row ids through g) with fresh's
// row r merged in, a fresh claim f going ahead of a predecessor's p only where
// ahead(f, p). A row fresh has nothing for is one copy. The fresh rows are
// consumed: returned as they are when the predecessor has none, their bounds
// overwritten with the merged rows' otherwise.
func mergeRows(prev, prevStart []int32, g growth, fresh, freshStart []int32, ahead func(f, p int32) bool) (rows, start []int32) {
	if len(prev) == 0 {
		return fresh, freshStart
	}
	rows = make([]int32, 0, len(prev)+len(fresh))
	lo := int32(0)
	for r := 0; r+1 < len(freshStart); r++ {
		f := fresh[lo:freshStart[r+1]]
		lo = freshStart[r+1]
		freshStart[r] = int32(len(rows))
		var p []int32
		if old := g.from(int32(r)); old >= 0 {
			p = prev[prevStart[old]:prevStart[old+1]]
		}
		for _, x := range f {
			k := sort.Search(len(p), func(k int) bool { return ahead(x, p[k]) })
			rows = append(append(rows, p[:k]...), x)
			p = p[k:]
		}
		rows = append(rows, p...)
	}
	freshStart[len(freshStart)-1] = int32(len(rows))
	return rows, freshStart
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
// ingested. An object the fresh claims do not name keeps the groups the
// predecessor gave it, and in one they do name a source with no fresh claim
// about it keeps its place.
func (c *Compiled) buildSnapshotView(claims []model.Claim, prev *Compiled, g tableGrowth) {
	nS, nO := len(c.sources), len(c.objects)
	done := int32(len(prev.claimSrc))
	named, longest := 0, 0 // claims about the objects to lay out, and about one of them
	for oi := int32(0); oi < int32(nO); oi++ {
		if carried(g.obj, oi, c.byObjStart, prev.byObjStart) < 0 {
			named += len(c.objectClaims(oi))
			longest = max(longest, len(c.objectClaims(oi)))
		}
	}
	// kept packs (value << 32 | source) per snapshot claim of those objects,
	// in index order, each object's sorted: by value, then source, so that
	// each run of one value is a group, its sources ascending.
	kept := make([]int64, 0, named)
	keptStart := make([]int32, nO+1)
	cells := make([]int64, 0, longest) // one object's claims from sources the fresh claims name
	fresh := make([]bool, nS)          // those sources, while the object is laid out
	c.GroupStart = make([]int32, nO+1)
	members := int32(0)
	for oi := int32(0); oi < int32(nO); oi++ {
		n := int32(0)
		if old := carried(g.obj, oi, c.byObjStart, prev.byObjStart); old >= 0 {
			lo, hi := prev.GroupStart[old], prev.GroupStart[old+1]
			n = hi - lo
			members += prev.GroupSrcStart[hi] - prev.GroupSrcStart[lo]
		} else {
			cells = cells[:0]
			row := c.objectClaims(oi)
			for k := 0; k < len(row); {
				lo, si := k, c.claimSrc[row[k]]
				for k++; k < len(row) && c.claimSrc[row[k]] == si; k++ {
				}
				if row[k-1] < done {
					continue // the source's claims about oi are all the predecessor's
				}
				last := row[lo]
				for _, ci := range row[lo+1 : k] {
					if claims[ci].Time >= claims[last].Time {
						last = ci
					}
				}
				cells = append(cells, int64(c.claimVal[last])<<32|int64(si))
				fresh[si] = true
			}
			slices.Sort(cells)
			// The other sources' claims come over from the predecessor's
			// groups, already in this order.
			merge := cells
			if old := g.obj.from(oi); old >= 0 {
				for gi := prev.GroupStart[old]; gi < prev.GroupStart[old+1]; gi++ {
					vi := int64(g.val.to(prev.GroupValue[gi])) << 32
					for _, si := range prev.GroupSrc[prev.GroupSrcStart[gi]:prev.GroupSrcStart[gi+1]] {
						if si = g.src.to(si); fresh[si] {
							continue
						}
						for len(merge) > 0 && merge[0] < vi|int64(si) {
							kept, merge = append(kept, merge[0]), merge[1:]
						}
						kept = append(kept, vi|int64(si))
					}
				}
			}
			kept = append(kept, merge...)
			for _, cell := range cells {
				fresh[int32(cell)] = false
			}
			groups := kept[keptStart[oi]:]
			for k, p := range groups {
				if k == 0 || p>>32 != groups[k-1]>>32 {
					n++
				}
			}
			members += int32(len(groups))
		}
		keptStart[oi+1] = int32(len(kept))
		c.GroupStart[oi+1] = c.GroupStart[oi] + n
		c.maxGroups = max(c.maxGroups, int(n))
	}

	// The group columns, object by object: a carried object's are the
	// predecessor's, and kept is the layout of the others' members with the
	// values still attached — a group opens wherever the value changes.
	nG := c.GroupStart[nO]
	c.GroupValue = make([]int32, nG)
	c.GroupSrcStart = make([]int32, nG+1)
	c.GroupSrc = make([]int32, members)
	at := int32(0)
	for oi := int32(0); oi < int32(nO); oi++ {
		gi := c.GroupStart[oi]
		if old := carried(g.obj, oi, c.byObjStart, prev.byObjStart); old >= 0 {
			lo, hi := prev.GroupStart[old], prev.GroupStart[old+1]
			from, to := prev.GroupSrcStart[lo], prev.GroupSrcStart[hi]
			for k := lo; k < hi; k++ {
				c.GroupValue[gi+k-lo] = g.val.to(prev.GroupValue[k])
				c.GroupSrcStart[gi+k-lo] = at + prev.GroupSrcStart[k] - from
			}
			row := c.GroupSrc[at : at+to-from]
			copy(row, prev.GroupSrc[from:to])
			if g.src.fwd != nil {
				for k, si := range row {
					row[k] = g.src.fwd[si]
				}
			}
			at += to - from
			continue
		}
		for j := keptStart[oi]; j < keptStart[oi+1]; j++ {
			vi := int32(kept[j] >> 32)
			if j == keptStart[oi] || vi != c.GroupValue[gi-1] {
				c.GroupValue[gi] = vi
				c.GroupSrcStart[gi] = at
				gi++
			}
			c.GroupSrc[at] = int32(kept[j])
			at++
		}
	}
	c.GroupSrcStart[nG] = at

	// The per-source columns are the group columns transposed: one sweep over
	// the objects in index order fills every source's row in ascending-object
	// order. The row bounds are counted two slots up, as bucketSort's are.
	start := make([]int32, nS+2)
	for _, si := range c.GroupSrc {
		start[si+2]++
	}
	for k := 2; k < nS+2; k++ {
		start[k] += start[k-1]
	}
	c.SrcObj = make([]int32, members)
	c.SrcVal = make([]int32, members)
	c.SrcGroup = make([]int32, members)
	for oi := int32(0); oi < int32(nO); oi++ {
		for gi := c.GroupStart[oi]; gi < c.GroupStart[oi+1]; gi++ {
			for _, si := range c.GroupSrc[c.GroupSrcStart[gi]:c.GroupSrcStart[gi+1]] {
				k := start[si+1]
				start[si+1]++
				c.SrcObj[k] = oi
				c.SrcVal[k] = c.GroupValue[gi]
				c.SrcGroup[k] = gi
			}
		}
	}
	c.SrcStart = start[:nS+1]
}

// buildSpans collapses each source's update trace into per-(object, value)
// first/last assertion spans, sorted by packed key, and tallies how many
// sources ever make each assertion (the temporal rarity denominator). A
// source the fresh claims do not name keeps its spans; the tally is the
// predecessor's plus one for every key a named source newly asserts.
func (c *Compiled) buildSpans(claims []model.Claim, prev *Compiled, g tableGrowth) {
	nS := len(c.sources)
	rekey := func(key int64) int64 {
		return int64(g.obj.to(int32(key>>32)))<<32 | int64(g.val.to(int32(key)))
	}
	c.SpanStart = make([]int32, nS+1)
	c.SpanKey = slices.Grow(c.SpanKey, len(prev.SpanKey))
	c.SpanFirst = slices.Grow(c.SpanFirst, len(prev.SpanKey))
	c.SpanLast = slices.Grow(c.SpanLast, len(prev.SpanKey))
	type stamp struct {
		key int64
		t   model.Time
	}
	var trace []stamp
	var added []int64
	for si := int32(0); si < int32(nS); si++ {
		var had []int64 // the keys the source asserted in the predecessor
		if old := g.src.from(si); old >= 0 {
			lo, hi := prev.SpanStart[old], prev.SpanStart[old+1]
			had = prev.SpanKey[lo:hi]
			if carried(g.src, si, c.bySrcStart, prev.bySrcStart) >= 0 {
				for _, key := range had {
					c.SpanKey = append(c.SpanKey, rekey(key))
				}
				c.SpanFirst = append(c.SpanFirst, prev.SpanFirst[lo:hi]...)
				c.SpanLast = append(c.SpanLast, prev.SpanLast[lo:hi]...)
				c.SpanStart[si+1] = int32(len(c.SpanKey))
				continue
			}
		}
		trace = trace[:0]
		for _, ci := range c.sourceClaims(si) {
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
			// had is sorted as the keys coming out are, and a key once
			// asserted stays asserted: what had lacks is new.
			for len(had) > 0 && rekey(had[0]) < first.key {
				had = had[1:]
			}
			if len(had) == 0 || rekey(had[0]) != first.key {
				added = append(added, first.key)
			}
		}
		c.SpanStart[si+1] = int32(len(c.SpanKey))
	}

	// A source contributes each key once, so a key's popularity is its
	// multiplicity over all spans: the predecessor's count and the additions,
	// merged in key order.
	slices.Sort(added)
	c.PopKey = slices.Grow(c.PopKey, len(prev.PopKey)+len(added))
	c.PopCount = slices.Grow(c.PopCount, len(prev.PopKey)+len(added))
	tally := func(key int64, n int32) {
		if k := len(c.PopKey) - 1; k >= 0 && c.PopKey[k] == key {
			c.PopCount[k] += n
			return
		}
		c.PopKey = append(c.PopKey, key)
		c.PopCount = append(c.PopCount, n)
	}
	p := 0
	for _, key := range added {
		for ; p < len(prev.PopKey) && rekey(prev.PopKey[p]) <= key; p++ {
			tally(rekey(prev.PopKey[p]), prev.PopCount[p])
		}
		tally(key, 1)
	}
	for ; p < len(prev.PopKey); p++ {
		tally(rekey(prev.PopKey[p]), prev.PopCount[p])
	}
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

// Accessor API over the interning tables.

// NumSources returns the source-table length.
func (c *Compiled) NumSources() int { return len(c.sources) }

// NumObjects returns the object-table length.
func (c *Compiled) NumObjects() int { return len(c.objects) }

// NumValues returns the value-table length.
func (c *Compiled) NumValues() int { return len(c.values) }

// Source returns interned source i.
func (c *Compiled) Source(i int) model.SourceID { return c.sources[i] }

// Object returns interned object i.
func (c *Compiled) Object(i int) model.ObjectID { return c.objects[i] }

// Value returns interned value i.
func (c *Compiled) Value(i int) string { return c.values[i] }

// SourceIDs returns the sorted source table, shared: treat it as read-only.
func (c *Compiled) SourceIDs() []model.SourceID { return c.sources }

// SourceIndex returns the dense index of s, or (0, false).
func (c *Compiled) SourceIndex(s model.SourceID) (int32, bool) {
	return lookup(c.sources, s, cmp.Compare)
}

// ObjectIndex returns the dense index of o, or (0, false).
func (c *Compiled) ObjectIndex(o model.ObjectID) (int32, bool) {
	return lookup(c.objects, o, compareObjects)
}

// ValueIndex returns the dense index of value v, or (0, false).
func (c *Compiled) ValueIndex(v string) (int32, bool) { return lookup(c.values, v, cmp.Compare) }

// lookup finds k in a sorted table by binary search: its index, or (0, false).
func lookup[K any](tab []K, k K, compare func(a, b K) int) (int32, bool) {
	if i, ok := slices.BinarySearchFunc(tab, k, compare); ok {
		return int32(i), true
	}
	return 0, false
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
