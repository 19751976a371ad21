// Epoch delta frames: how a replica follows its primary without solving.
//
// A primary holds the state of its current epoch E; WriteDelta frames what
// the solves since an earlier epoch overwrote (depen.Delta) together with the
// batches themselves, and AppendDelta on a session standing at that epoch
// applies it — the same session the batches' Appends would build, bit for
// bit, at the cost of the dataset appends and the planner build alone. One
// batch behind is the fan-out's frame; any number behind is a repair's, and
// since a compacted snapshot still carries the whole claim log no lag is too
// long for one.
//
// The frame is a section container (snapio/sections.go) of its own magic,
// sealed like every container:
//
//   - the batches since the epoch, in order, as log segments
//     (dataset.WriteSegment) laid back to back — each segment is a container
//     of its own that ends at its last byte, and the bytes the replica
//     persists per epoch are the ones the primary persisted;
//   - the accuracy vector and the dirty objects' posterior rows, []float64;
//   - the pair records with a dirty member, depen's 56-byte layout, as the
//     snapshot stores them;
//   - the meta: the epoch the frame reaches, the epoch it applies to, the
//     last solve's rounds and converged, and the config fingerprint.
//
// Every way a frame can be damaged fails AppendDelta with snapio.ErrCorrupt —
// a damaged byte with snapio.ErrChecksum too, at the seal — before anything is
// built; a sound frame that applies to another epoch than the session's fails
// with ErrDeltaEpoch.
package session

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/snapio"
)

// DeltaMagic and DeltaVersion identify an epoch delta frame.
const (
	DeltaMagic   = "SCEPDLTA"
	DeltaVersion = 3
)

// DeltaContentType is the media type a delta frame travels under over HTTP.
const DeltaContentType = "application/x-currents-delta"

// secBatch is the delta frame's section past the state's three and the meta,
// which keep their snapshot ids: the batches, log segments back to back.
const secBatch = secMeta + 1

// ErrDeltaEpoch reports a sound delta frame that applies to an epoch other
// than the session's: nothing was applied.
var ErrDeltaEpoch = errors.New("session: delta is for another epoch")

// WriteDelta writes the delta frame from epoch since to the session's epoch —
// the batches appended since and what the solves across them overwrote — to
// w. since must be an earlier epoch of the session's log.
func (s *Session) WriteDelta(w io.Writer, since int) error {
	dl, err := s.st.Delta(s.d, since)
	if err != nil {
		return err
	}
	var segs bytes.Buffer
	for e := since + 1; e <= s.d.Epoch(); e++ {
		if err := dataset.WriteSegment(&segs, s.d.BatchAt(e)); err != nil {
			return err
		}
	}
	var meta snapio.Writer
	meta.U64(uint64(s.d.Epoch()))
	meta.U64(uint64(since))
	meta.U32(uint32(dl.Rounds))
	meta.Bool(dl.Converged)
	encodeFingerprint(&meta, s.cfg.Depen)
	var sw snapio.SectionWriter
	sw.Add(secBatch, segs.Bytes())
	sw.Add(secAcc, snapio.F64Bytes(dl.Acc))
	sw.Add(secPost, snapio.F64Bytes(dl.Post))
	sw.Add(secPairRec, dl.Pairs)
	sw.Add(secMeta, meta.Payload())
	return sw.WriteTo(w, DeltaMagic, DeltaVersion)
}

// deltaCorrupt classes a damaged delta frame.
func deltaCorrupt(err error) error {
	return fmt.Errorf("session: delta: %w: %w", snapio.ErrCorrupt, err)
}

// AppendDelta advances the session across the batches of a delta frame its
// primary wrote (WriteDelta) since the session's epoch: it appends the
// frame's batches in order and takes the solved state from the frame instead
// of solving. The result is the session the batches' Appends return, bit for
// bit, and like them it shares the receiver's history spine; the epochs
// between the two are addressable through AsOf, which rebuilds them forward
// from the receiver. The successor keeps frame's bytes; the caller must not
// modify them afterwards.
func (s *Session) AppendDelta(frame []byte) (*Session, error) {
	m, err := snapio.OpenContainer(frame, DeltaMagic, DeltaVersion)
	if err != nil {
		return nil, deltaCorrupt(err)
	}
	for _, id := range []uint32{secBatch, secPairRec, secMeta} {
		if _, ok := m.Section(id); !ok {
			return nil, deltaCorrupt(fmt.Errorf("section %d missing", id))
		}
	}

	metaB, _ := m.Section(secMeta)
	meta := snapio.NewReader(metaB)
	epoch := meta.U64()
	since := meta.U64()
	rounds := int(meta.U32())
	converged := meta.Bool()
	if err := checkFingerprint(meta, s.cfg.Depen); err != nil {
		return nil, err
	}
	if err := meta.Finish(); err != nil {
		return nil, deltaCorrupt(err)
	}
	if since >= epoch {
		return nil, deltaCorrupt(fmt.Errorf("a frame from epoch %d to %d", since, epoch))
	}
	if have := s.DatasetEpoch(); since != uint64(have) {
		return nil, fmt.Errorf("%w: the frame applies to epoch %d, the session is at %d", ErrDeltaEpoch, since, have)
	}
	segs, _ := m.Section(secBatch)
	rd := bytes.NewReader(segs)
	var batches [][]model.Claim
	for k := since; k < epoch && rd.Len() > 0; k++ {
		batch, err := dataset.ReadSegment(rd)
		if err != nil {
			return nil, deltaCorrupt(err)
		}
		batches = append(batches, batch)
	}
	if uint64(len(batches)) != epoch-since || rd.Len() != 0 {
		return nil, deltaCorrupt(fmt.Errorf("a frame from epoch %d to %d does not hold %d whole batches", since, epoch, epoch-since))
	}
	acc, err := m.F64Section(secAcc)
	if err != nil {
		return nil, deltaCorrupt(err)
	}
	post, err := m.F64Section(secPost)
	if err != nil {
		return nil, deltaCorrupt(err)
	}
	pairs, _ := m.Section(secPairRec)

	d2 := s.d
	for _, batch := range batches {
		if d2, err = d2.Append(batch); err != nil {
			return nil, deltaCorrupt(err)
		}
	}
	st2, err := depen.ApplyDelta(d2, s.st, int(since), depen.Delta{
		Acc: acc, Post: post, Pairs: pairs, Rounds: rounds, Converged: converged,
	})
	if err != nil {
		return nil, deltaCorrupt(err)
	}
	return s.successor(d2, st2)
}
