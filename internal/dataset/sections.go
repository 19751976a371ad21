// Section codec for a frozen dataset: what a session snapshot container
// holds of it.
//
// A snapshot stores only what the dataset cannot derive: the three interning
// tables, as one string blob indexed by offset tables, and the claim log as
// int32 id columns into them with its epoch bounds — time and probability
// columns only when some claim needs them. Every other table of the compiled
// index is laid out at open by the builder Freeze and Append share. The
// container's seal has checked every byte before FromSections runs; it checks
// the structure of everything it takes, since a correctly sealed file is
// still outside input, and builds the heap Dataset a Freeze builds.
package dataset

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"sourcecurrents/internal/model"
	"sourcecurrents/internal/snapio"
)

// Section ids for the dataset inside a snapshot container. Containers
// embedding a dataset (the session snapshot) reserve ids below SecDatasetEnd
// for this codec and place their own sections above it.
const (
	// The interning tables: one string blob and the offsets of each table's
	// strings in it.
	SecStrBlob uint32 = iota + 1
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

	// SecDatasetEnd is the first id free for embedding containers.
	SecDatasetEnd = 64
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

// secErr builds an ErrCorrupt-classed validation error.
func secErr(format string, args ...any) error {
	return fmt.Errorf("%w: dataset sections: %s", snapio.ErrCorrupt, fmt.Sprintf(format, args...))
}

// AppendSections adds the frozen dataset to w, in id order: its interning
// tables, flattened into a fresh string blob plus offset tables (the one
// encode cost); its claim log — each claim's source, object and value as
// int32 ids into those tables, and the epoch bounds. A time column (int64, with a HasTime byte per claim) is added
// only when some claim carries a time, a probability column (float64) only
// when some claim's Prob is not 1: an absent column reads as HasTime false,
// Time 0 and Prob 1. The id columns alias the index (zero copy).
func (d *Dataset) AppendSections(w *snapio.SectionWriter) error {
	if !d.frozen {
		return fmt.Errorf("dataset: snapshot requires a frozen dataset")
	}
	c := d.cols
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
	bounds := make([]int32, len(d.bounds))
	for e, b := range d.bounds {
		bounds[e] = int32(b)
	}
	secs := map[uint32][]byte{
		SecStrBlob:   blob,
		SecSrcOff:    snapio.I32Bytes(srcOff),
		SecObjOff:    snapio.I32Bytes(objOff),
		SecValOff:    snapio.I32Bytes(valOff),
		SecLogSrc:    snapio.I32Bytes(c.claimSrc),
		SecLogObj:    snapio.I32Bytes(c.claimObj),
		SecLogVal:    snapio.I32Bytes(c.claimVal),
		SecLogBounds: snapio.I32Bytes(bounds),
	}
	n := len(d.claims)
	if slices.ContainsFunc(d.claims, func(cl model.Claim) bool { return cl.HasTime || cl.Time != 0 }) {
		times, timed := make([]model.Time, n), make([]byte, n)
		for i := range d.claims {
			times[i] = d.claims[i].Time
			if d.claims[i].HasTime {
				timed[i] = 1
			}
		}
		secs[SecLogTime], secs[SecLogTimed] = timeBytes(times), timed
	}
	if slices.ContainsFunc(d.claims, func(cl model.Claim) bool { return cl.Prob != 1 }) {
		probs := make([]float64, n)
		for i := range d.claims {
			probs[i] = d.claims[i].Prob
		}
		secs[SecLogProb] = snapio.F64Bytes(probs)
	}
	for id := SecStrBlob; id <= SecLogProb; id++ {
		if b, ok := secs[id]; ok {
			w.Add(id, b)
		}
	}
	return nil
}

// FromSections opens the dataset in m as a heap Dataset, the structure Freeze
// and Append build. It checks the structure of the sections it reads: the
// string offsets, and
// the claim log — a non-empty log whose columns are one length, ids in range
// of their tables, epoch bounds ascending inside the log, HasTime bytes of 0
// or 1, probabilities in [0, 1] — and takes the three interning tables from
// the file, each strictly ascending, with no empty source or entity and no
// entry that no claim names: the tables a build over the claims interns. Over
// them the per-claim id columns are the log's own, and everything else is laid
// out by the code Freeze runs. A file damaged after it was written fails the
// container's seal before it gets here; one sealed over a log no build writes
// fails the structural checks.
func FromSections(m *snapio.Container) (*Dataset, error) {
	c := &Compiled{}
	var bounds []int32
	for _, col := range []struct {
		id  uint32
		dst *[]int32
	}{{SecLogSrc, &c.claimSrc}, {SecLogObj, &c.claimObj}, {SecLogVal, &c.claimVal}, {SecLogBounds, &bounds}} {
		var err error
		if *col.dst, err = m.I32Section(col.id); err != nil {
			return nil, err
		}
	}
	n := len(c.claimSrc)
	if n == 0 || len(c.claimObj) != n || len(c.claimVal) != n {
		return nil, secErr("claim log columns sized %d/%d/%d", n, len(c.claimObj), len(c.claimVal))
	}
	prev := int32(0)
	for _, b := range bounds {
		if b <= prev || int(b) >= n {
			return nil, secErr("log bound %d out of order", b)
		}
		prev = b
	}
	var times []model.Time
	timed, hasTimed := m.Section(SecLogTimed)
	if _, hasTime := m.Section(SecLogTime); hasTime || hasTimed {
		t64, err := m.I64Section(SecLogTime)
		if err != nil {
			return nil, err
		}
		if times = timesFromI64(t64); len(times) != n || len(timed) != n {
			return nil, secErr("time columns sized %d/%d for %d claims", len(times), len(timed), n)
		}
		if i := slices.IndexFunc(timed, func(t byte) bool { return t > 1 }); i >= 0 {
			return nil, secErr("HasTime byte %d of claim %d", timed[i], i)
		}
	}
	var probs []float64
	if _, ok := m.Section(SecLogProb); ok {
		var err error
		if probs, err = m.F64Section(SecLogProb); err != nil {
			return nil, err
		}
		if len(probs) != n {
			return nil, secErr("probability column sized %d for %d claims", len(probs), n)
		}
		if i := slices.IndexFunc(probs, func(p float64) bool { return !(p >= 0 && p <= 1) }); i >= 0 {
			return nil, secErr("claim %d has probability %v", i, probs[i])
		}
	}
	if err := c.readTables(m); err != nil {
		return nil, err
	}
	for _, col := range []struct {
		name string
		ids  []int32
		n    int
	}{{"sources", c.claimSrc, len(c.sources)}, {"objects", c.claimObj, len(c.objects)}, {"values", c.claimVal, len(c.values)}} {
		if i := slices.IndexFunc(col.ids, func(id int32) bool { return id < 0 || int(id) >= col.n }); i >= 0 {
			return nil, secErr("log %s[%d] = %d out of range [0,%d)", col.name, i, col.ids[i], col.n)
		}
		if id := unnamed(col.ids, col.n); id >= 0 {
			return nil, secErr("no claim names %s entry %d", col.name, id)
		}
	}

	claims := make([]model.Claim, n)
	for i := range claims {
		cl := &claims[i]
		cl.Source, cl.Object, cl.Value, cl.Prob = c.sources[c.claimSrc[i]], c.objects[c.claimObj[i]], c.values[c.claimVal[i]], 1
		if times != nil {
			cl.Time, cl.HasTime = times[i], timed[i] == 1
		}
		if probs != nil {
			cl.Prob = probs[i]
		}
	}
	g := tableGrowth{src: flatGrowth(len(c.sources)), obj: flatGrowth(len(c.objects))}
	c.buildClaimIndex(claims, noColumns, g)
	c.buildSnapshotView(claims, noColumns, g)
	c.buildSpans(claims, noColumns, g)

	d := &Dataset{claims: claims, frozen: true, cols: c}
	if len(bounds) > 0 {
		d.bounds = make([]int, len(bounds))
		for e, b := range bounds {
			d.bounds[e] = int(b)
		}
	}
	return d, nil
}

// readTables takes the three interning tables from m's string blob and
// offset tables — every string a slice of one copy of the blob — and indexes
// them. Source i spans srcOff[i]..srcOff[i+1] of the blob, object i the two
// ranges objOff[2i]..objOff[2i+1] (entity) and on to objOff[2i+2]
// (attribute), value i valOff[i]..valOff[i+1]; the three tables are laid
// end to end over the whole blob.
func (c *Compiled) readTables(m *snapio.Container) error {
	blob, ok := m.Section(SecStrBlob)
	if !ok {
		return secErr("string blob missing")
	}
	var srcOff, objOff, valOff []int32
	for _, sec := range []struct {
		id  uint32
		dst *[]int32
	}{{SecSrcOff, &srcOff}, {SecObjOff, &objOff}, {SecValOff, &valOff}} {
		var err error
		if *sec.dst, err = m.I32Section(sec.id); err != nil {
			return err
		}
	}
	if len(srcOff) < 2 || len(valOff) < 2 || len(objOff) < 3 || len(objOff)%2 == 0 {
		return secErr("string offset tables too short (%d/%d/%d)", len(srcOff), len(objOff), len(valOff))
	}
	pos := int32(0)
	for _, t := range []struct {
		name string
		off  []int32
	}{{"srcOff", srcOff}, {"objOff", objOff}, {"valOff", valOff}} {
		if t.off[0] != pos {
			return secErr("%s must begin at %d, got %d", t.name, pos, t.off[0])
		}
		for i := 1; i < len(t.off); i++ {
			if t.off[i] < t.off[i-1] {
				return secErr("%s not monotonic at %d", t.name, i)
			}
		}
		if pos = t.off[len(t.off)-1]; int(pos) > len(blob) {
			return secErr("%s ends at %d beyond blob of %d", t.name, pos, len(blob))
		}
	}
	if int(pos) != len(blob) {
		return secErr("string blob has %d trailing bytes", len(blob)-int(pos))
	}

	str := string(blob)
	at := func(off []int32, i int) string { return str[off[i]:off[i+1]] }
	c.sources = make([]model.SourceID, len(srcOff)-1)
	for i := range c.sources {
		c.sources[i] = model.SourceID(at(srcOff, i))
	}
	c.objects = make([]model.ObjectID, len(objOff)/2)
	for i := range c.objects {
		c.objects[i] = model.ObjectID{Entity: at(objOff, 2*i), Attribute: at(objOff, 2*i+1)}
	}
	c.values = make([]string, len(valOff)-1)
	for i := range c.values {
		c.values[i] = at(valOff, i)
	}
	if err := ascending("source", c.sources, cmp.Compare[model.SourceID]); err != nil {
		return err
	}
	if err := ascending("object", c.objects, compareObjects); err != nil {
		return err
	}
	if err := ascending("value", c.values, cmp.Compare[string]); err != nil {
		return err
	}
	// The empty string sorts first: a claim's source and entity must not be.
	if c.sources[0] == "" || c.objects[0].Entity == "" {
		return secErr("a source or entity is empty")
	}
	return nil
}

// ascending checks that a table is strictly ascending, as lookups assume.
func ascending[K any](name string, tab []K, compare func(a, b K) int) error {
	for i := 1; i < len(tab); i++ {
		if compare(tab[i-1], tab[i]) >= 0 {
			return secErr("%s table not strictly ascending at %d", name, i)
		}
	}
	return nil
}

// unnamed returns the first id in [0, n) that ids does not hold, or -1.
func unnamed(ids []int32, n int) int {
	named := make([]bool, n)
	for _, id := range ids {
		named[id] = true
	}
	return slices.Index(named, false)
}

// flatGrowth is a table's growth from the empty table of a flat build: every
// id is new. (A flat build looks up no value backwards, so the value table
// needs none.)
func flatGrowth(n int) growth {
	fwd := []int32{}
	return growth{fwd: fwd, inv: invert(fwd, n)}
}
