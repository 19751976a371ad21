// Binary snapshot format for frozen datasets.
//
// A dataset snapshot stores one interned string table (every distinct
// source, entity, attribute and value string appears exactly once, sorted)
// and the claims as fixed-width integer records laid out CSR-style: grouped
// by source in source order, each record carrying its original ingestion
// position so decoding rebuilds the exact claim sequence the dataset was
// built from. Reconstruction therefore round-trips bit-identically —
// including every tie-break that depends on ingestion order — while the
// encoded form stays pointer-free and decodes with two linear passes
// instead of CSV parsing.
//
// The frame (magic, version, length, CRC) comes from package snapio; a
// truncated, corrupted or future-versioned snapshot yields a descriptive
// error, never a panic.
package dataset

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"sourcecurrents/internal/model"
	"sourcecurrents/internal/snapio"
)

// SnapshotMagic identifies the dataset snapshot format.
const SnapshotMagic = "SCDSDATA"

// SnapshotVersion is the current dataset snapshot version. Version 2
// appends the append-log epoch boundaries (LogBounds) after the claim
// records, so a log-carrying dataset round-trips with its full replay
// semantics. Flat datasets are still written as version 1 — byte-identical
// to pre-log snapshots — and version-1 snapshots load unchanged.
const SnapshotVersion = 2

// WriteSnapshot encodes the frozen dataset to w in the binary snapshot
// format.
func (d *Dataset) WriteSnapshot(w io.Writer) error {
	if !d.frozen {
		return fmt.Errorf("dataset: snapshot requires a frozen dataset")
	}

	// One interned table for every string in the dataset, sorted so the
	// encoding is canonical: the union of the index's three tables, entity
	// and attribute strings apart.
	c := d.cols
	strs := make([]string, 0, len(c.sources)+2*len(c.objects)+len(c.values))
	for _, s := range c.sources {
		strs = append(strs, string(s))
	}
	for _, o := range c.objects {
		strs = append(strs, o.Entity, o.Attribute)
	}
	strs = append(strs, c.values...)
	sort.Strings(strs)
	strs = slices.Compact(strs)
	ref := func(s string) uint32 { return uint32(sort.SearchStrings(strs, s)) }
	objRef := make([][2]uint32, len(c.objects)) // entity, attribute
	for oi, o := range c.objects {
		objRef[oi] = [2]uint32{ref(o.Entity), ref(o.Attribute)}
	}
	valRef := make([]uint32, len(c.values))
	for vi, v := range c.values {
		valRef[vi] = ref(v)
	}

	var enc snapio.Writer
	enc.U32(uint32(len(strs)))
	for _, s := range strs {
		enc.Str(s)
	}

	// Claims, CSR by source: per-source record count followed by the
	// records in the source's time order, sources in sorted order. Each
	// record carries its original ingestion position, so decode restores
	// the exact claim sequence.
	enc.U32(uint32(len(d.claims)))
	enc.U32(uint32(len(c.sources)))
	for si, s := range c.sources {
		row := c.sourceClaims(int32(si))
		enc.U32(ref(string(s)))
		enc.U32(uint32(len(row)))
		for _, ci := range row {
			cl := &d.claims[ci]
			enc.U32(uint32(ci))
			enc.U32(objRef[c.claimObj[ci]][0])
			enc.U32(objRef[c.claimObj[ci]][1])
			enc.U32(valRef[c.claimVal[ci]])
			enc.Bool(cl.HasTime)
			enc.I64(int64(cl.Time))
			enc.F64(cl.Prob)
		}
	}

	// Log-carrying datasets append their epoch boundaries and are framed as
	// version 2; flat datasets keep the version-1 byte layout.
	bounds := d.LogBounds()
	if len(bounds) == 0 {
		return enc.Frame(w, SnapshotMagic, 1)
	}
	enc.U32(uint32(len(bounds)))
	for _, b := range bounds {
		enc.U32(uint32(b))
	}
	return enc.Frame(w, SnapshotMagic, SnapshotVersion)
}

// claimRecordBytes is the fixed per-claim record size (origPos, entity,
// attribute, value, hasTime, time, prob), used to validate declared counts
// against the remaining payload.
const claimRecordBytes = 4 + 4 + 4 + 4 + 1 + 8 + 8

// ReadSnapshot decodes a dataset snapshot written by WriteSnapshot and
// returns the rebuilt frozen dataset. Claims are restored in their original
// ingestion order and indexed once; a version-2 snapshot's epoch boundaries
// are validated and kept, so the result is indistinguishable from the
// dataset the snapshot was taken of — including its epoch, At and replay
// semantics.
func ReadSnapshot(r io.Reader) (*Dataset, error) {
	dec, version, err := snapio.OpenFrame(r, SnapshotMagic, SnapshotVersion)
	if err != nil {
		return nil, fmt.Errorf("dataset: snapshot: %w", err)
	}

	nStr := dec.Count(1)
	strs := make([]string, nStr)
	for i := range strs {
		strs[i] = dec.Str()
	}

	nClaims := dec.Count(claimRecordBytes)
	nSources := dec.Count(8)
	claims := make([]model.Claim, nClaims)
	placed := make([]bool, nClaims)
	for si := 0; si < nSources; si++ {
		src := model.SourceID("")
		if i := dec.Index(nStr); dec.Err() == nil {
			src = model.SourceID(strs[i])
		}
		n := dec.Count(claimRecordBytes)
		for k := 0; k < n; k++ {
			pos := dec.Index(nClaims)
			entity := dec.Index(nStr)
			attr := dec.Index(nStr)
			val := dec.Index(nStr)
			hasTime := dec.Bool()
			tm := dec.I64()
			prob := dec.F64()
			if dec.Err() != nil {
				break
			}
			if placed[pos] {
				return nil, fmt.Errorf("dataset: snapshot: %w: duplicate claim position %d", snapio.ErrCorrupt, pos)
			}
			placed[pos] = true
			claims[pos] = model.Claim{
				Source:  src,
				Object:  model.Obj(strs[entity], strs[attr]),
				Value:   strs[val],
				Time:    model.Time(tm),
				HasTime: hasTime,
				Prob:    prob,
			}
		}
		if dec.Err() != nil {
			break
		}
	}
	var bounds []int
	if version >= 2 {
		nBounds := dec.Count(4)
		bounds = make([]int, 0, nBounds)
		prev := 0
		for k := 0; k < nBounds; k++ {
			b := int(dec.U32())
			if dec.Err() != nil {
				break
			}
			if b <= prev || b >= nClaims {
				return nil, fmt.Errorf("dataset: snapshot: %w: log bound %d out of order", snapio.ErrCorrupt, b)
			}
			bounds = append(bounds, b)
			prev = b
		}
	}
	if err := dec.Finish(); err != nil {
		return nil, fmt.Errorf("dataset: snapshot: %w", err)
	}
	for pos, ok := range placed {
		if !ok {
			return nil, fmt.Errorf("dataset: snapshot: %w: claim position %d missing", snapio.ErrCorrupt, pos)
		}
	}
	// A record that decodes but is not a valid claim is payload damage too.
	for i := range claims {
		if err := claims[i].Validate(); err != nil {
			return nil, fmt.Errorf("dataset: snapshot: %w: %v", snapio.ErrCorrupt, err)
		}
	}
	d := New()
	d.claims = claims // decoded here and held by nobody else: the dataset's without a copy
	d.Freeze()
	if len(bounds) > 0 { // a version-2 frame without bounds is still a flat dataset
		d.bounds = bounds
	}
	return d, nil
}
