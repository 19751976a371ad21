// Log-segment format: one appended claim batch as a standalone frame.
//
// A server persisting live appends cannot afford a full snapshot rewrite
// per batch; it writes one small segment file per accepted append and
// periodically compacts the segments into a fresh snapshot. A segment is
// deliberately simple — raw length-prefixed string records, no interning —
// because batches are small and the file is read exactly once at replay.
package dataset

import (
	"fmt"
	"io"

	"sourcecurrents/internal/model"
	"sourcecurrents/internal/snapio"
)

// SegmentMagic identifies the log-segment format.
const SegmentMagic = "SCDSSEGM"

// SegmentVersion is the current log-segment version.
const SegmentVersion = 1

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
	return enc.Frame(w, SegmentMagic, SegmentVersion)
}

// segmentRecordBytes is the minimum encoded size of one claim record (four
// empty strings at one uvarint length byte each, the flag, time, prob),
// used to validate the declared count.
const segmentRecordBytes = 4*1 + 1 + 8 + 8

// ReadSegment decodes a log segment written by WriteSegment, returning the
// batch in its original order.
func ReadSegment(r io.Reader) ([]model.Claim, error) {
	dec, _, err := snapio.OpenFrame(r, SegmentMagic, SegmentVersion)
	if err != nil {
		return nil, fmt.Errorf("dataset: segment: %w", err)
	}
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
