// Epoch delta frames: how a replica follows its primary without solving.
//
// A primary that appended a batch holds the successor state; WriteDelta
// frames what the solve across that batch overwrote (depen.Delta) together
// with the batch itself, and AppendDelta on a session standing at the
// predecessor epoch applies it — the same successor Append would build, bit
// for bit, at the cost of the dataset append and the planner build alone.
//
// The frame is a section container (snapio/sections.go) of its own magic:
//
//   - the batch, as a log segment (dataset.WriteSegment) — the bytes the
//     replica persists are the ones the primary persisted;
//   - the accuracy vector and the dirty objects' posterior rows, []float64;
//   - the pair records with a dirty member, depen's 56-byte layout, as the
//     snapshot stores them;
//   - the meta: the successor's epoch, rounds, converged and the config
//     fingerprint;
//   - a CRC-32 of the five sections above, in that order — the container's
//     own CRC covers only its header.
//
// Every way a frame can be damaged fails AppendDelta with snapio.ErrCorrupt,
// before anything is built; a sound frame for another epoch fails with
// ErrDeltaEpoch.
package session

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/snapio"
)

// DeltaMagic and DeltaVersion identify an epoch delta frame.
const (
	DeltaMagic   = "SCEPDLTA"
	DeltaVersion = 1
)

// DeltaContentType is the media type a delta frame travels under over HTTP.
const DeltaContentType = "application/x-currents-delta"

// The delta frame's sections past the state's three and the meta, which keep
// their snapshot ids.
const (
	secBatch = secMeta + 1 + iota // the batch, a log segment
	secCRC                        // CRC-32 of the other sections
)

// deltaSections are the sections the CRC covers, in the order it covers them.
var deltaSections = []uint32{secBatch, secAcc, secPost, secPairRec, secMeta}

// ErrDeltaEpoch reports a sound delta frame for an epoch other than the one
// after the session's: nothing was applied.
var ErrDeltaEpoch = errors.New("session: delta is for another epoch")

// WriteDelta writes the delta frame of the session's epoch — its last batch
// and what the solve across it overwrote — to w. A flat session (epoch 0) has
// none. A mapped session materializes first.
func (s *Session) WriteDelta(w io.Writer) error {
	if err := s.materialize(); err != nil {
		return err
	}
	dl, err := s.st.Delta(s.d)
	if err != nil {
		return err
	}
	var seg bytes.Buffer
	if err := dataset.WriteSegment(&seg, s.d.Batch()); err != nil {
		return err
	}
	var meta snapio.Writer
	meta.U64(uint64(s.d.Epoch()))
	meta.U32(uint32(dl.Rounds))
	meta.Bool(dl.Converged)
	encodeFingerprint(&meta, s.cfg.Depen)
	data := map[uint32][]byte{
		secBatch:   seg.Bytes(),
		secAcc:     snapio.F64Bytes(dl.Acc),
		secPost:    snapio.F64Bytes(dl.Post),
		secPairRec: dl.Pairs,
		secMeta:    meta.Payload(),
	}
	var sw snapio.SectionWriter
	var crc uint32
	for _, id := range deltaSections {
		sw.Add(id, data[id])
		crc = crc32.Update(crc, crc32.IEEETable, data[id])
	}
	sw.Add(secCRC, binary.LittleEndian.AppendUint32(nil, crc))
	return sw.WriteTo(w, DeltaMagic, DeltaVersion)
}

// deltaCorrupt classes a damaged delta frame.
func deltaCorrupt(err error) error {
	return fmt.Errorf("session: delta: %w: %w", snapio.ErrCorrupt, err)
}

// AppendDelta advances the session across one batch by applying the delta
// frame its primary wrote at the next epoch (WriteDelta): it appends the
// frame's batch and takes the solved state from the frame instead of
// solving. The result is the session Append(batch) returns, bit for bit,
// and like it shares the receiver's history spine. The successor keeps
// frame's bytes; the caller must not modify them afterwards.
func (s *Session) AppendDelta(frame []byte) (*Session, error) {
	m, err := snapio.OpenMappedBytes(frame, DeltaMagic, DeltaVersion)
	if err != nil {
		return nil, deltaCorrupt(err)
	}
	var crc uint32
	for _, id := range deltaSections {
		b, ok := m.Section(id)
		if !ok {
			return nil, deltaCorrupt(fmt.Errorf("section %d missing", id))
		}
		crc = crc32.Update(crc, crc32.IEEETable, b)
	}
	if sum, ok := m.Section(secCRC); !ok || len(sum) != 4 || binary.LittleEndian.Uint32(sum) != crc {
		return nil, deltaCorrupt(fmt.Errorf("%w: sections do not match their CRC", snapio.ErrChecksum))
	}

	metaB, _ := m.Section(secMeta)
	meta := snapio.NewReader(metaB)
	epoch := meta.U64()
	rounds := int(meta.U32())
	converged := meta.Bool()
	if err := checkFingerprint(meta, s.cfg.Depen); err != nil {
		return nil, err
	}
	if err := meta.Finish(); err != nil {
		return nil, deltaCorrupt(err)
	}
	if have := s.DatasetEpoch(); epoch != uint64(have)+1 {
		return nil, fmt.Errorf("%w: the frame is for epoch %d, the session is at %d", ErrDeltaEpoch, epoch, have)
	}
	seg, _ := m.Section(secBatch)
	batch, err := dataset.ReadSegment(bytes.NewReader(seg))
	if err != nil {
		return nil, deltaCorrupt(err)
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

	if err := s.materialize(); err != nil {
		return nil, err
	}
	d2, err := s.d.Append(batch)
	if err != nil {
		return nil, deltaCorrupt(err)
	}
	st2, err := depen.ApplyDelta(d2, s.st, depen.Delta{
		Acc: acc, Post: post, Pairs: pairs, Rounds: rounds, Converged: converged,
	})
	if err != nil {
		return nil, deltaCorrupt(err)
	}
	return s.successor(d2, st2)
}
