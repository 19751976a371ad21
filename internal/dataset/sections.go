// Section codec for a frozen dataset: its compiled columnar view and its
// claim log, as a session snapshot container holds them.
//
// The write side lays every dense table of a Compiled into sections of a
// snapio container in its exact in-memory layout (int32/int64 tables cast
// to bytes, strings concatenated into one blob indexed by offset tables),
// and the claim log as id columns into those tables. The read side casts
// the mapped sections straight back into slices — no decode loop, no
// per-table allocation — after a linear structural validation pass that
// makes every later indexed access bounds-safe even against adversarial
// input. The claims themselves are built only when the dataset is
// materialized (Mapped.Dataset).
package dataset

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"sourcecurrents/internal/model"
	"sourcecurrents/internal/snapio"
)

// Section ids for the compiled tables and the claim log inside a snapshot
// container. Containers embedding a dataset (the session snapshot) reserve
// ids below SecCompiledEnd for this codec and place their own sections above
// it.
const (
	SecGroupStart uint32 = iota + 1
	SecGroupValue
	SecGroupSrcStart
	SecGroupSrc
	SecSrcStart
	SecSrcObj
	SecSrcVal
	SecSrcGroup
	SecSpanStart
	SecSpanKey
	SecSpanFirst
	SecSpanLast
	SecPopKey
	SecPopCount
	SecStrBlob
	SecSrcOff
	SecObjOff
	SecValOff

	// The claim log (see Dataset.AppendSections).
	SecLogSrc
	SecLogObj
	SecLogVal
	SecLogBounds
	SecLogTime
	SecLogTimed
	SecLogProb

	// SecCompiledEnd is the first id free for embedding containers.
	SecCompiledEnd = 64
)

// timeBytes views a []model.Time (defined as int64) as raw bytes.
func timeBytes(v []model.Time) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

// timesFromI64 views an []int64 section as []model.Time.
func timesFromI64(v []int64) []model.Time {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*model.Time)(unsafe.Pointer(&v[0])), len(v))
}

// AppendSections adds every compiled table to w. The CSR slices are added
// as aliasing views (zero copy); the three interning tables are flattened
// into a fresh string blob plus offset tables, which is the one encode cost
// paid at write time so loads never pay it again.
func (c *Compiled) AppendSections(w *snapio.SectionWriter) error {
	nS, nO, nV := c.NumSources(), c.NumObjects(), c.NumValues()
	var total int
	for i := 0; i < nS; i++ {
		total += len(c.Source(i))
	}
	for i := 0; i < nO; i++ {
		o := c.Object(i)
		total += len(o.Entity) + len(o.Attribute)
	}
	for i := 0; i < nV; i++ {
		total += len(c.Value(i))
	}
	if total > math.MaxInt32 {
		return fmt.Errorf("dataset: interned strings total %d bytes, too large for a snapshot", total)
	}
	blob := make([]byte, 0, total)
	srcOff := make([]int32, nS+1)
	for i := 0; i < nS; i++ {
		blob = append(blob, c.Source(i)...)
		srcOff[i+1] = int32(len(blob))
	}
	objOff := make([]int32, 2*nO+1)
	objOff[0] = int32(len(blob))
	for i := 0; i < nO; i++ {
		o := c.Object(i)
		blob = append(blob, o.Entity...)
		objOff[2*i+1] = int32(len(blob))
		blob = append(blob, o.Attribute...)
		objOff[2*i+2] = int32(len(blob))
	}
	valOff := make([]int32, nV+1)
	valOff[0] = int32(len(blob))
	for i := 0; i < nV; i++ {
		blob = append(blob, c.Value(i)...)
		valOff[i+1] = int32(len(blob))
	}

	w.Add(SecGroupStart, snapio.I32Bytes(c.GroupStart))
	w.Add(SecGroupValue, snapio.I32Bytes(c.GroupValue))
	w.Add(SecGroupSrcStart, snapio.I32Bytes(c.GroupSrcStart))
	w.Add(SecGroupSrc, snapio.I32Bytes(c.GroupSrc))
	w.Add(SecSrcStart, snapio.I32Bytes(c.SrcStart))
	w.Add(SecSrcObj, snapio.I32Bytes(c.SrcObj))
	w.Add(SecSrcVal, snapio.I32Bytes(c.SrcVal))
	w.Add(SecSrcGroup, snapio.I32Bytes(c.SrcGroup))
	w.Add(SecSpanStart, snapio.I32Bytes(c.SpanStart))
	w.Add(SecSpanKey, snapio.I64Bytes(c.SpanKey))
	w.Add(SecSpanFirst, timeBytes(c.SpanFirst))
	w.Add(SecSpanLast, timeBytes(c.SpanLast))
	w.Add(SecPopKey, snapio.I64Bytes(c.PopKey))
	w.Add(SecPopCount, snapio.I32Bytes(c.PopCount))
	w.Add(SecStrBlob, blob)
	w.Add(SecSrcOff, snapio.I32Bytes(srcOff))
	w.Add(SecObjOff, snapio.I32Bytes(objOff))
	w.Add(SecValOff, snapio.I32Bytes(valOff))
	return nil
}

// secErr builds an ErrCorrupt-classed validation error.
func secErr(format string, args ...any) error {
	return fmt.Errorf("%w: compiled sections: %s", snapio.ErrCorrupt, fmt.Sprintf(format, args...))
}

// checkCSR validates a CSR start table: first entry 0 (or base), monotonic
// non-decreasing, last entry == limit.
func checkCSR(name string, start []int32, base, limit int32) error {
	if len(start) == 0 || start[0] != base {
		return secErr("%s must begin at %d", name, base)
	}
	for i := 1; i < len(start); i++ {
		if start[i] < start[i-1] {
			return secErr("%s not monotonic at %d", name, i)
		}
	}
	if start[len(start)-1] != limit {
		return secErr("%s ends at %d, want %d", name, start[len(start)-1], limit)
	}
	return nil
}

// checkRange validates every entry of tab lies in [0, limit).
func checkRange(name string, tab []int32, limit int32) error {
	for i, v := range tab {
		if v < 0 || v >= limit {
			return secErr("%s[%d] = %d out of range [0,%d)", name, i, v, limit)
		}
	}
	return nil
}

// checkTranspose validates that the two claim CSRs index the same claims,
// walking the group-major one in order and matching each member against its
// source's next source-major claim: same object (strictly after the source's
// previous one), same group, same value. Every match consumes a distinct
// claim and the tables are one size, so each is exactly the other's
// transpose — what the planner's per-group member counts rely on to stay in
// bounds. One cursor per source; no search.
func checkTranspose(c *Compiled) error {
	if len(c.GroupSrc) != len(c.SrcObj) {
		return secErr("%d group members for %d source claims", len(c.GroupSrc), len(c.SrcObj))
	}
	next := slices.Clone(c.SrcStart[:len(c.SrcStart)-1]) // each source's next unmatched claim
	for o := int32(0); o+1 < int32(len(c.GroupStart)); o++ {
		for g := c.GroupStart[o]; g < c.GroupStart[o+1]; g++ {
			for _, s := range c.GroupSrc[c.GroupSrcStart[g]:c.GroupSrcStart[g+1]] {
				k := next[s]
				if k == c.SrcStart[s+1] || (k > c.SrcStart[s] && c.SrcObj[k-1] >= o) ||
					c.SrcObj[k] != o || c.SrcGroup[k] != g || c.SrcVal[k] != c.GroupValue[g] {
					return secErr("group %d lists source %d, whose claims do not match it", g, s)
				}
				next[s]++
			}
		}
	}
	return nil
}

// CompiledFromMapped builds the mapped-backend Compiled over a validated
// section container. Every table is a zero-copy view into m; the result is
// usable only while m stays mapped. The validation pass — linear scans, one
// allocation of a cursor per source — guarantees that all the indexed
// accesses the solvers and the planner perform stay in bounds whatever the
// file contents.
func CompiledFromMapped(m *snapio.Mapped) (*Compiled, error) {
	c := &Compiled{}
	var err error
	sec32 := func(id uint32, dst *[]int32) {
		if err == nil {
			*dst, err = m.I32Section(id)
		}
	}
	sec64 := func(id uint32, dst *[]int64) {
		if err == nil {
			*dst, err = m.I64Section(id)
		}
	}
	sec32(SecGroupStart, &c.GroupStart)
	sec32(SecGroupValue, &c.GroupValue)
	sec32(SecGroupSrcStart, &c.GroupSrcStart)
	sec32(SecGroupSrc, &c.GroupSrc)
	sec32(SecSrcStart, &c.SrcStart)
	sec32(SecSrcObj, &c.SrcObj)
	sec32(SecSrcVal, &c.SrcVal)
	sec32(SecSrcGroup, &c.SrcGroup)
	sec32(SecSpanStart, &c.SpanStart)
	sec64(SecSpanKey, &c.SpanKey)
	var first, last []int64
	sec64(SecSpanFirst, &first)
	sec64(SecSpanLast, &last)
	sec64(SecPopKey, &c.PopKey)
	sec32(SecPopCount, &c.PopCount)
	sec32(SecSrcOff, &c.srcOff)
	sec32(SecObjOff, &c.objOff)
	sec32(SecValOff, &c.valOff)
	if err != nil {
		return nil, err
	}
	c.SpanFirst = timesFromI64(first)
	c.SpanLast = timesFromI64(last)
	blob, ok := m.Section(SecStrBlob)
	if !ok {
		return nil, secErr("string blob missing")
	}
	c.strBlob = blob

	// String offset tables: shapes, then in-blob monotonic ranges. An
	// out-of-range offset here is what would otherwise become an OOB string
	// view in an accessor.
	if len(c.srcOff) < 2 || len(c.valOff) < 2 || len(c.objOff) < 3 || len(c.objOff)%2 == 0 {
		return nil, secErr("string offset tables too short (%d/%d/%d)",
			len(c.srcOff), len(c.objOff), len(c.valOff))
	}
	checkOff := func(name string, off []int32, base int32) (int32, error) {
		if off[0] != base {
			return 0, secErr("%s must begin at %d, got %d", name, base, off[0])
		}
		for i := 1; i < len(off); i++ {
			if off[i] < off[i-1] {
				return 0, secErr("%s not monotonic at %d", name, i)
			}
		}
		if last := off[len(off)-1]; int(last) > len(blob) {
			return 0, secErr("%s ends at %d beyond blob of %d", name, last, len(blob))
		}
		return off[len(off)-1], nil
	}
	pos, err := checkOff("srcOff", c.srcOff, 0)
	if err != nil {
		return nil, err
	}
	if pos, err = checkOff("objOff", c.objOff, pos); err != nil {
		return nil, err
	}
	if pos, err = checkOff("valOff", c.valOff, pos); err != nil {
		return nil, err
	}
	if int(pos) != len(blob) {
		return nil, secErr("string blob has %d trailing bytes", len(blob)-int(pos))
	}

	nS, nO, nV := int32(c.NumSources()), int32(c.NumObjects()), int32(c.NumValues())

	// CSR shapes and cross-table index ranges.
	if len(c.GroupStart) != int(nO)+1 || len(c.SrcStart) != int(nS)+1 || len(c.SpanStart) != int(nS)+1 {
		return nil, secErr("CSR start tables sized %d/%d/%d for %d objects, %d sources",
			len(c.GroupStart), len(c.SrcStart), len(c.SpanStart), nO, nS)
	}
	nG := int32(len(c.GroupValue))
	if len(c.GroupSrcStart) != int(nG)+1 {
		return nil, secErr("GroupSrcStart sized %d for %d groups", len(c.GroupSrcStart), nG)
	}
	if len(c.SrcVal) != len(c.SrcObj) || len(c.SrcGroup) != len(c.SrcObj) {
		return nil, secErr("source claim tables sized %d/%d/%d",
			len(c.SrcObj), len(c.SrcVal), len(c.SrcGroup))
	}
	if len(c.SpanFirst) != len(c.SpanKey) || len(c.SpanLast) != len(c.SpanKey) {
		return nil, secErr("span tables sized %d/%d/%d",
			len(c.SpanKey), len(c.SpanFirst), len(c.SpanLast))
	}
	if len(c.PopCount) != len(c.PopKey) {
		return nil, secErr("popularity tables sized %d/%d", len(c.PopKey), len(c.PopCount))
	}
	checks := []error{
		checkCSR("GroupStart", c.GroupStart, 0, nG),
		checkCSR("GroupSrcStart", c.GroupSrcStart, 0, int32(len(c.GroupSrc))),
		checkCSR("SrcStart", c.SrcStart, 0, int32(len(c.SrcObj))),
		checkCSR("SpanStart", c.SpanStart, 0, int32(len(c.SpanKey))),
		checkRange("GroupValue", c.GroupValue, nV),
		checkRange("GroupSrc", c.GroupSrc, nS),
		// SrcObj, SrcVal and SrcGroup are held to the group tables by
		// checkTranspose, which puts them in range too.
	}
	for _, e := range checks {
		if e != nil {
			return nil, e
		}
	}
	if err := checkTranspose(c); err != nil {
		return nil, err
	}
	for i := int32(0); i < nO; i++ {
		if n := int(c.GroupStart[i+1] - c.GroupStart[i]); n > c.maxGroups {
			c.maxGroups = n
		}
	}
	return c, nil
}

// MappedBacked reports whether the compiled view reads from a mapped
// snapshot (true) or heap-built interning tables (false).
func (c *Compiled) MappedBacked() bool { return c.srcOff != nil }

// AppendSections adds the frozen dataset to w: its compiled tables
// (Compiled.AppendSections) and its claim log — each claim's source, object
// and value as int32 ids into those tables, and the epoch bounds. A time
// column (int64, with a HasTime byte per claim) is added only when some
// claim carries a time, a probability column (float64) only when some
// claim's Prob is not 1: an absent column reads as HasTime false, Time 0 and
// Prob 1. The id columns alias the index (zero copy).
func (d *Dataset) AppendSections(w *snapio.SectionWriter) error {
	if !d.frozen {
		return fmt.Errorf("dataset: snapshot requires a frozen dataset")
	}
	c := d.cols
	if err := c.AppendSections(w); err != nil {
		return err
	}
	w.Add(SecLogSrc, snapio.I32Bytes(c.claimSrc))
	w.Add(SecLogObj, snapio.I32Bytes(c.claimObj))
	w.Add(SecLogVal, snapio.I32Bytes(c.claimVal))
	bounds := make([]int32, len(d.bounds))
	for e, b := range d.bounds {
		bounds[e] = int32(b)
	}
	w.Add(SecLogBounds, snapio.I32Bytes(bounds))
	n := len(d.claims)
	if slices.ContainsFunc(d.claims, func(cl model.Claim) bool { return cl.HasTime || cl.Time != 0 }) {
		times, timed := make([]model.Time, n), make([]byte, n)
		for i := range d.claims {
			times[i] = d.claims[i].Time
			if d.claims[i].HasTime {
				timed[i] = 1
			}
		}
		w.Add(SecLogTime, timeBytes(times))
		w.Add(SecLogTimed, timed)
	}
	if slices.ContainsFunc(d.claims, func(cl model.Claim) bool { return cl.Prob != 1 }) {
		probs := make([]float64, n)
		for i := range d.claims {
			probs[i] = d.claims[i].Prob
		}
		w.Add(SecLogProb, snapio.F64Bytes(probs))
	}
	return nil
}

// Mapped is a dataset as a snapshot container holds it: the compiled tables,
// zero-copy, and the claim log over them, validated when opened. It serves
// what the compiled view serves; Dataset materializes the rest.
type Mapped struct {
	c             *Compiled
	src, obj, val []int32
	bounds        []int32
	time          []model.Time // nil when no claim carries a time; then timed is nil too
	timed         []byte
	prob          []float64 // nil when every claim's Prob is 1
}

// FromMapped opens the dataset in m: CompiledFromMapped's tables, and the
// claim log checked against them — a non-empty log whose columns are one
// length, ids in range of their tables, epoch bounds ascending inside the
// log, HasTime bytes of 0 or 1, probabilities in [0, 1], and no claim with an
// empty source or entity. What passes materializes without an index error.
func FromMapped(m *snapio.Mapped) (*Mapped, error) {
	c, err := CompiledFromMapped(m)
	if err != nil {
		return nil, err
	}
	md := &Mapped{c: c}
	for _, col := range []struct {
		id  uint32
		dst *[]int32
	}{{SecLogSrc, &md.src}, {SecLogObj, &md.obj}, {SecLogVal, &md.val}, {SecLogBounds, &md.bounds}} {
		if *col.dst, err = m.I32Section(col.id); err != nil {
			return nil, err
		}
	}
	n := len(md.src)
	if n == 0 || len(md.obj) != n || len(md.val) != n {
		return nil, secErr("claim log columns sized %d/%d/%d", n, len(md.obj), len(md.val))
	}
	for _, e := range []error{
		checkRange("log sources", md.src, int32(c.NumSources())),
		checkRange("log objects", md.obj, int32(c.NumObjects())),
		checkRange("log values", md.val, int32(c.NumValues())),
	} {
		if e != nil {
			return nil, e
		}
	}
	prev := int32(0)
	for _, b := range md.bounds {
		if b <= prev || int(b) >= n {
			return nil, secErr("log bound %d out of order", b)
		}
		prev = b
	}
	timed, hasTimed := m.Section(SecLogTimed)
	if _, hasTime := m.Section(SecLogTime); hasTime || hasTimed {
		times, err := m.I64Section(SecLogTime)
		if err != nil {
			return nil, err
		}
		if md.time, md.timed = timesFromI64(times), timed; len(md.time) != n || len(timed) != n {
			return nil, secErr("time columns sized %d/%d for %d claims", len(md.time), len(timed), n)
		}
		if i := slices.IndexFunc(timed, func(t byte) bool { return t > 1 }); i >= 0 {
			return nil, secErr("HasTime byte %d of claim %d", timed[i], i)
		}
	}
	if _, ok := m.Section(SecLogProb); ok {
		if md.prob, err = m.F64Section(SecLogProb); err != nil {
			return nil, err
		}
		if len(md.prob) != n {
			return nil, secErr("probability column sized %d for %d claims", len(md.prob), n)
		}
		if i := slices.IndexFunc(md.prob, func(p float64) bool { return !(p >= 0 && p <= 1) }); i >= 0 {
			return nil, secErr("claim %d has probability %v", i, md.prob[i])
		}
	}
	// Every table entry is some claim's (Dataset checks that), so an empty
	// source or entity string would be an invalid claim.
	for i := 0; i < c.NumSources(); i++ {
		if c.Source(i) == "" {
			return nil, secErr("source %d is empty", i)
		}
	}
	for i := 0; i < c.NumObjects(); i++ {
		if c.Object(i).Entity == "" {
			return nil, secErr("object %d has an empty entity", i)
		}
	}
	return md, nil
}

// Compiled returns the mapped compiled view; Epoch the number of appended
// batches in the log.
func (md *Mapped) Compiled() *Compiled { return md.c }
func (md *Mapped) Epoch() int          { return len(md.bounds) }

// Dataset materializes the mapped dataset on the heap: the claims rebuilt
// from the log with every string copied off the container (one copy of the
// string blob, which the claims then share), indexed by the builder Freeze
// uses, with the log's epoch bounds. Its claim CSRs must come out as the
// mapped ones: a log that does not index to the tables stored beside it is
// corrupt.
func (md *Mapped) Dataset() (*Dataset, error) {
	c := md.c
	blob := string(c.strBlob)
	str := func(off []int32, i int) string { return blob[off[i]:off[i+1]] }
	srcs := make([]model.SourceID, c.NumSources())
	for i := range srcs {
		srcs[i] = model.SourceID(str(c.srcOff, i))
	}
	objs := make([]model.ObjectID, c.NumObjects())
	for i := range objs {
		objs[i] = model.ObjectID{Entity: str(c.objOff, 2*i), Attribute: str(c.objOff, 2*i+1)}
	}
	vals := make([]string, c.NumValues())
	for i := range vals {
		vals[i] = str(c.valOff, i)
	}
	claims := make([]model.Claim, len(md.src))
	for i := range claims {
		cl := &claims[i]
		cl.Source, cl.Object, cl.Value, cl.Prob = srcs[md.src[i]], objs[md.obj[i]], vals[md.val[i]], 1
		if md.time != nil {
			cl.Time, cl.HasTime = md.time[i], md.timed[i] == 1
		}
		if md.prob != nil {
			cl.Prob = md.prob[i]
		}
	}
	d := New()
	d.claims = claims // built here and held by nobody else: the dataset's without a copy
	d.Freeze()
	if len(md.bounds) > 0 {
		d.bounds = make([]int, len(md.bounds))
		for e, b := range md.bounds {
			d.bounds[e] = int(b)
		}
	}
	h := d.cols
	if !slices.Equal(h.GroupStart, c.GroupStart) || !slices.Equal(h.GroupValue, c.GroupValue) ||
		!slices.Equal(h.GroupSrcStart, c.GroupSrcStart) || !slices.Equal(h.GroupSrc, c.GroupSrc) ||
		!slices.Equal(h.SrcStart, c.SrcStart) || !slices.Equal(h.SrcGroup, c.SrcGroup) {
		return nil, secErr("the claim log does not index to the stored tables")
	}
	return d, nil
}
