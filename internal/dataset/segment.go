// Log-segment format: one appended claim batch as a standalone container.
//
// A server persisting live appends cannot afford a full snapshot rewrite
// per batch; it writes one small segment file per accepted append and
// periodically compacts the segments into a fresh snapshot. A segment is
// deliberately simple — a section container (snapio/sections.go) of one
// section of raw length-prefixed string records, no interning — because
// batches are small and the file is read exactly once at replay. The
// container's seal covers the records, and a container ends at its last
// byte, so segments laid back to back (as a delta carries them) read one by
// one.
package dataset

import (
	"fmt"
	"io"

	"sourcecurrents/internal/model"
	"sourcecurrents/internal/snapio"
)

// SegmentMagic identifies the log-segment format.
const SegmentMagic = "SCDSSEGM"

// SegmentVersion is the current log-segment version. Version 1, a frame of
// its own with a trailing CRC, fails to open with ErrBadVersion.
const SegmentVersion = 2

// segmentRecords is the id of a segment's one section.
const segmentRecords = 1

// WriteSegment encodes one appended claim batch to w. The batch must be
// non-empty and every claim valid — the same contract as Dataset.Append.
func WriteSegment(w io.Writer, batch []model.Claim) error {
	if len(batch) == 0 {
		return fmt.Errorf("dataset: empty segment batch")
	}
	var enc snapio.Writer
	enc.U32(uint32(len(batch)))
	for i := range batch {
		c := &batch[i]
		if err := c.Validate(); err != nil {
			return fmt.Errorf("dataset: segment batch[%d]: %w", i, err)
		}
		enc.Str(string(c.Source))
		enc.Str(c.Object.Entity)
		enc.Str(c.Object.Attribute)
		enc.Str(c.Value)
		enc.Bool(c.HasTime)
		enc.I64(int64(c.Time))
		enc.F64(c.Prob)
	}
	var sw snapio.SectionWriter
	sw.Add(segmentRecords, enc.Payload())
	return sw.WriteTo(w, SegmentMagic, SegmentVersion)
}

// segmentRecordBytes is the minimum encoded size of one claim record (four
// empty strings at one uvarint length byte each, the flag, time, prob),
// used to validate the declared count.
const segmentRecordBytes = 4*1 + 1 + 8 + 8

// ReadSegment decodes a log segment written by WriteSegment, returning the
// batch in its original order. It reads r through the segment's last byte and
// not a byte further.
func ReadSegment(r io.Reader) ([]model.Claim, error) {
	m, err := snapio.ReadContainer(r, SegmentMagic, SegmentVersion)
	if err != nil {
		return nil, fmt.Errorf("dataset: segment: %w", err)
	}
	records, ok := m.Section(segmentRecords)
	if !ok {
		return nil, fmt.Errorf("dataset: segment: %w: records section missing", snapio.ErrCorrupt)
	}
	dec := snapio.NewReader(records)
	n := dec.Count(segmentRecordBytes)
	batch := make([]model.Claim, 0, n)
	for k := 0; k < n; k++ {
		c := model.Claim{
			Source: model.SourceID(dec.Str()),
		}
		entity := dec.Str()
		attr := dec.Str()
		c.Object = model.Obj(entity, attr)
		c.Value = dec.Str()
		c.HasTime = dec.Bool()
		c.Time = model.Time(dec.I64())
		c.Prob = dec.F64()
		if dec.Err() != nil {
			break
		}
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("dataset: segment: %w: record %d: %v", snapio.ErrCorrupt, k, err)
		}
		batch = append(batch, c)
	}
	if err := dec.Finish(); err != nil {
		return nil, fmt.Errorf("dataset: segment: %w", err)
	}
	if len(batch) == 0 {
		return nil, fmt.Errorf("dataset: segment: %w: empty batch", snapio.ErrCorrupt)
	}
	return batch, nil
}
