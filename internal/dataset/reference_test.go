package dataset

// The map-indexed dataset the columnar index replaced, kept as the oracle.
//
// mapIndex is the previous Dataset verbatim — Add/Freeze/Append maintaining
// string-keyed maps (claims by source, claims by object, snapshot value per
// source and object), the accessors reading them, and compileMaps deriving
// every Compiled column from those maps. The reference solvers in the other
// packages (detectMaps, accuMaps, …) read a Dataset through its accessors,
// so the accessors need a check that does not go through the columns; this
// is it. TestColumnsMatchMaps holds the two together; it draws its worlds
// from package synth, which imports this one, so it lives in the external
// test package and reaches the oracle through the names exported below.

import (
	"fmt"
	"sort"

	"sourcecurrents/internal/model"
)

// MapIndex, NewMapIndex and CompileMaps export the oracle to columns_test.go.
type MapIndex = mapIndex

func NewMapIndex() *MapIndex { return newMapIndex() }

func CompileMaps(d *MapIndex) *Compiled { return compileMaps(d) }

func (d *mapIndex) Claims() []model.Claim { return d.claims }

func (d *mapIndex) Sources() []model.SourceID { return d.sources }

func (d *mapIndex) Objects() []model.ObjectID { return d.objects }

// mapIndex was Dataset: an immutable-after-Freeze collection of claims with
// indexes. Freeze sorts the internal slices so every iteration order is
// deterministic.
type mapIndex struct {
	claims []model.Claim

	bySource map[model.SourceID][]int // indexes into claims, time-ordered after Freeze
	byObject map[model.ObjectID][]int

	// snapshot view: latest (or only) value per (source, object)
	valueOf map[model.SourceID]map[model.ObjectID]string

	sources []model.SourceID
	objects []model.ObjectID
	frozen  bool

	// Append-only log (see append.go): base is the predecessor dataset this
	// one was appended onto (nil for a flat dataset), baseLen the number of
	// claims belonging to it, and epoch the number of appended batches.
	base    *mapIndex
	baseLen int
	epoch   int
}

// New returns an empty dataset.
func newMapIndex() *mapIndex {
	return &mapIndex{
		bySource: map[model.SourceID][]int{},
		byObject: map[model.ObjectID][]int{},
		valueOf:  map[model.SourceID]map[model.ObjectID]string{},
	}
}

// Add appends one claim. It returns an error for invalid claims or when the
// dataset is already frozen.
func (d *mapIndex) Add(c model.Claim) error {
	if d.frozen {
		return fmt.Errorf("dataset: frozen")
	}
	if err := c.Validate(); err != nil {
		return err
	}
	idx := len(d.claims)
	d.claims = append(d.claims, c)
	d.bySource[c.Source] = append(d.bySource[c.Source], idx)
	d.byObject[c.Object] = append(d.byObject[c.Object], idx)
	return nil
}

// AddAll appends claims, stopping at the first invalid one.
func (d *mapIndex) AddAll(cs []model.Claim) error {
	for _, c := range cs {
		if err := d.Add(c); err != nil {
			return err
		}
	}
	return nil
}

// Freeze finalizes the dataset: sorts index slices (per source by time, then
// object; per object by source) and computes the snapshot view. For a
// source that asserted multiple values for one object over time, the
// snapshot view keeps the latest claim.
func (d *mapIndex) Freeze() {
	if d.frozen {
		return
	}
	d.frozen = true
	for s, idxs := range d.bySource {
		sort.SliceStable(idxs, func(a, b int) bool {
			ca, cb := d.claims[idxs[a]], d.claims[idxs[b]]
			if ca.Time != cb.Time {
				return ca.Time < cb.Time
			}
			if ca.Object.Entity != cb.Object.Entity {
				return ca.Object.Entity < cb.Object.Entity
			}
			return ca.Object.Attribute < cb.Object.Attribute
		})
		d.sources = append(d.sources, s)
	}
	model.SortSources(d.sources)
	for o, idxs := range d.byObject {
		sort.SliceStable(idxs, func(a, b int) bool {
			return d.claims[idxs[a]].Source < d.claims[idxs[b]].Source
		})
		d.objects = append(d.objects, o)
	}
	model.SortObjects(d.objects)

	for _, s := range d.sources {
		vals := map[model.ObjectID]string{}
		// bySource is time-ordered, so later claims overwrite earlier ones.
		for _, idx := range d.bySource[s] {
			c := d.claims[idx]
			vals[c.Object] = c.Value
		}
		d.valueOf[s] = vals
	}
}

// ClaimsBySource returns s's claims in time order. Valid after Freeze.
func (d *mapIndex) ClaimsBySource(s model.SourceID) []model.Claim {
	idxs := d.bySource[s]
	out := make([]model.Claim, len(idxs))
	for i, idx := range idxs {
		out[i] = d.claims[idx]
	}
	return out
}

// ClaimsByObject returns all claims about o, ordered by source.
func (d *mapIndex) ClaimsByObject(o model.ObjectID) []model.Claim {
	idxs := d.byObject[o]
	out := make([]model.Claim, len(idxs))
	for i, idx := range idxs {
		out[i] = d.claims[idx]
	}
	return out
}

// Value returns the (snapshot) value source s asserts for object o.
func (d *mapIndex) Value(s model.SourceID, o model.ObjectID) (string, bool) {
	v, ok := d.valueOf[s][o]
	return v, ok
}

// ObjectsOf returns the objects s provides values for, sorted.
func (d *mapIndex) ObjectsOf(s model.SourceID) []model.ObjectID {
	vals := d.valueOf[s]
	out := make([]model.ObjectID, 0, len(vals))
	for o := range vals {
		out = append(out, o)
	}
	model.SortObjects(out)
	return out
}

// OverlapOf computes the overlap between two sources.
func (d *mapIndex) OverlapOf(a, b model.SourceID) Overlap {
	va, vb := d.valueOf[a], d.valueOf[b]
	if len(vb) < len(va) {
		va, vb = vb, va
	}
	ov := Overlap{Pair: model.NewSourcePair(a, b)}
	for o, v := range va {
		w, ok := vb[o]
		if !ok {
			continue
		}
		ov.Objects = append(ov.Objects, o)
		if v == w {
			ov.Same++
		}
	}
	model.SortObjects(ov.Objects)
	return ov
}

// Pairs enumerates all unordered source pairs whose overlap has at least
// minShared objects, in deterministic order. This is the candidate set for
// pairwise dependence analysis; Example 4.1 uses minShared = 10.
func (d *mapIndex) Pairs(minShared int) []Overlap {
	var out []Overlap
	for i := 0; i < len(d.sources); i++ {
		for j := i + 1; j < len(d.sources); j++ {
			ov := d.OverlapOf(d.sources[i], d.sources[j])
			if len(ov.Objects) >= minShared {
				out = append(out, ov)
			}
		}
	}
	return out
}

// ValuesFor returns the distinct values asserted for object o with the
// sources asserting each, in deterministic (value-sorted) order.
func (d *mapIndex) ValuesFor(o model.ObjectID) []ValueGroup {
	bySrc := map[string][]model.SourceID{}
	for _, idx := range d.byObject[o] {
		c := d.claims[idx]
		// snapshot view: only count the value the source currently holds
		if cur, ok := d.valueOf[c.Source][o]; !ok || cur != c.Value {
			continue
		}
		bySrc[c.Value] = append(bySrc[c.Value], c.Source)
	}
	vals := make([]string, 0, len(bySrc))
	for v := range bySrc {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	out := make([]ValueGroup, 0, len(vals))
	for _, v := range vals {
		srcs := bySrc[v]
		model.SortSources(srcs)
		// a source may appear multiple times when it re-asserted the same
		// value at different times; dedupe
		srcs = dedupeSources(srcs)
		out = append(out, ValueGroup{Value: v, Sources: srcs})
	}
	return out
}

func dedupeSources(srcs []model.SourceID) []model.SourceID {
	out := srcs[:0]
	for i, s := range srcs {
		if i == 0 || srcs[i-1] != s {
			out = append(out, s)
		}
	}
	return out
}

// UpdateTrace returns s's timestamped claims in time order, skipping
// snapshot-only claims. The temporal detector consumes these.
func (d *mapIndex) UpdateTrace(s model.SourceID) []model.Claim {
	var out []model.Claim
	for _, idx := range d.bySource[s] {
		c := d.claims[idx]
		if c.HasTime {
			out = append(out, c)
		}
	}
	return out
}

// Append returns a new frozen dataset holding this dataset's claims plus
// batch, recorded as one appended log batch. The receiver must be frozen
// and is not modified; the successor shares the receiver's internal
// structures for every source and object the batch does not touch.
// The batch must be non-empty and every claim valid.
func (d *mapIndex) Append(batch []model.Claim) (*mapIndex, error) {
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

	nd := &mapIndex{
		claims:   claims,
		bySource: make(map[model.SourceID][]int, len(d.bySource)+1),
		byObject: make(map[model.ObjectID][]int, len(d.byObject)+1),
		valueOf:  make(map[model.SourceID]map[model.ObjectID]string, len(d.valueOf)+1),
		frozen:   true,
		base:     d,
		baseLen:  n,
		epoch:    d.epoch + 1,
	}

	// Batch claim indices per touched source/object, in ingestion order.
	addSrc := map[model.SourceID][]int{}
	addObj := map[model.ObjectID][]int{}
	for i := range batch {
		idx := n + i
		addSrc[claims[idx].Source] = append(addSrc[claims[idx].Source], idx)
		addObj[claims[idx].Object] = append(addObj[claims[idx].Object], idx)
	}

	// Share untouched structures; copy-extend-resort the touched ones. The
	// stable sorts reproduce Freeze exactly: the old slices are already
	// stably ordered and the batch indices follow them in ingestion order,
	// so sorting the concatenation yields the permutation a from-scratch
	// Freeze over the full claim sequence would produce.
	for s, idxs := range d.bySource {
		nd.bySource[s] = idxs
	}
	for o, idxs := range d.byObject {
		nd.byObject[o] = idxs
	}
	for s, vals := range d.valueOf {
		nd.valueOf[s] = vals
	}
	newSources := 0
	for s, add := range addSrc {
		old := d.bySource[s]
		if len(old) == 0 {
			newSources++
		}
		merged := make([]int, 0, len(old)+len(add))
		merged = append(append(merged, old...), add...)
		sort.SliceStable(merged, func(a, b int) bool {
			ca, cb := claims[merged[a]], claims[merged[b]]
			if ca.Time != cb.Time {
				return ca.Time < cb.Time
			}
			if ca.Object.Entity != cb.Object.Entity {
				return ca.Object.Entity < cb.Object.Entity
			}
			return ca.Object.Attribute < cb.Object.Attribute
		})
		nd.bySource[s] = merged
		vals := make(map[model.ObjectID]string, len(d.valueOf[s])+len(add))
		for _, idx := range merged {
			vals[claims[idx].Object] = claims[idx].Value
		}
		nd.valueOf[s] = vals
	}
	newObjects := 0
	for o, add := range addObj {
		old := d.byObject[o]
		if len(old) == 0 {
			newObjects++
		}
		merged := make([]int, 0, len(old)+len(add))
		merged = append(append(merged, old...), add...)
		sort.SliceStable(merged, func(a, b int) bool {
			return claims[merged[a]].Source < claims[merged[b]].Source
		})
		nd.byObject[o] = merged
	}

	// Sorted id tables: shared verbatim unless the batch introduced ids.
	nd.sources = d.sources
	if newSources > 0 {
		nd.sources = make([]model.SourceID, 0, len(d.sources)+newSources)
		nd.sources = append(nd.sources, d.sources...)
		for s := range addSrc {
			if len(d.bySource[s]) == 0 {
				nd.sources = append(nd.sources, s)
			}
		}
		model.SortSources(nd.sources)
	}
	nd.objects = d.objects
	if newObjects > 0 {
		nd.objects = make([]model.ObjectID, 0, len(d.objects)+newObjects)
		nd.objects = append(nd.objects, d.objects...)
		for o := range addObj {
			if len(d.byObject[o]) == 0 {
				nd.objects = append(nd.objects, o)
			}
		}
		model.SortObjects(nd.objects)
	}
	return nd, nil
}

func compileMaps(d *mapIndex) *Compiled {
	c := &Compiled{
		sources: d.sources,
		objects: d.objects,
	}
	ix := mapIDs{
		src: make(map[model.SourceID]int32, len(c.sources)),
		obj: make(map[model.ObjectID]int32, len(c.objects)),
	}
	for i, s := range c.sources {
		ix.src[s] = int32(i)
	}
	for i, o := range c.objects {
		ix.obj[o] = int32(i)
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
	ix.val = make(map[string]int32, len(c.values))
	for i, v := range c.values {
		ix.val[v] = int32(i)
	}

	c.buildGroupsMaps(d, ix)
	c.buildSourceClaimsMaps(d, ix)
	c.buildSpansMaps(d, ix)
	return c
}

// mapIDs maps each entry of the three tables to its id, the oracle's own
// lookups.
type mapIDs struct {
	src map[model.SourceID]int32
	obj map[model.ObjectID]int32
	val map[string]int32
}

// buildGroups lays out the per-object candidate value groups. ValuesFor
// already returns groups in sorted-value order with deduped ascending
// sources, which is exactly the canonical order the solvers iterate in.
func (c *Compiled) buildGroupsMaps(d *mapIndex, ix mapIDs) {
	c.GroupStart = make([]int32, len(c.objects)+1)
	c.GroupSrcStart = append(c.GroupSrcStart, 0)
	for oi, o := range c.objects {
		groups := d.ValuesFor(o)
		if len(groups) > c.maxGroups {
			c.maxGroups = len(groups)
		}
		for _, g := range groups {
			c.GroupValue = append(c.GroupValue, ix.val[g.Value])
			for _, s := range g.Sources {
				c.GroupSrc = append(c.GroupSrc, ix.src[s])
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
func (c *Compiled) buildSourceClaimsMaps(d *mapIndex, ix mapIDs) {
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
			si := ix.src[s]
			vi := ix.val[d.valueOf[s][o]]
			k := cursor[si]
			cursor[si]++
			c.SrcObj[k] = int32(oi)
			c.SrcVal[k] = vi
			c.SrcGroup[k] = c.findGroupMaps(int32(oi), vi)
		}
	}
}

// findGroup locates the group of object oi holding value vi by binary search
// over the object's value-sorted groups.
func (c *Compiled) findGroupMaps(oi, vi int32) int32 {
	lo, hi := c.GroupStart[oi], c.GroupStart[oi+1]
	vals := c.GroupValue[lo:hi]
	k := sort.Search(len(vals), func(i int) bool { return vals[i] >= vi })
	return lo + int32(k)
}

// buildSpans collapses each source's update trace into per-(object, value)
// first/last assertion spans, sorted by packed key, and tallies how many
// sources ever make each assertion (the temporal rarity denominator).
func (c *Compiled) buildSpansMaps(d *mapIndex, ix mapIDs) {
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
			key := int64(ix.obj[cl.Object])<<32 | int64(ix.val[cl.Value])
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
