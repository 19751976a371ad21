// Session snapshot format v2: the mmap-backed, zero-copy cold-start layout.
//
// The v1 frame (snapshot.go) decodes every table into freshly allocated
// slices — ~13k allocations and O(dataset) work before the first answer. V2
// instead writes the session's dense serving state (the compiled CSR
// tables, the interned-string blob, the accuracy vector and the flat
// dependence table) into an aligned section container (snapio/sections.go),
// so loading is mmap + header validation + unsafe casts: a few dozen
// allocations regardless of dataset size, and N processes serving the same
// world share one physical copy of its pages.
//
// Only the state the hot serve path (AnswerObjects, Accuracy) touches is
// decoded at load. The remaining state — the embedded v1 dataset snapshot,
// the truth posteriors, the pair verdicts — rides along in cold sections
// encoded with the v1 helpers, and materializes onto the heap on first use
// (Fuse, Append, Profiles…): the dataset, and the session's depen.State with
// the posteriors and verdicts decoded straight into it, as v1 does. A session
// loaded from v2 is bit-identical to one
// loaded from v1 or rebuilt from scratch: both backends feed the same
// planner the same float64 tables, which the equivalence tests pin.
package session

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/queryans"
	"sourcecurrents/internal/snapio"
)

// SnapshotV2Magic identifies the mmap-backed session snapshot container.
const SnapshotV2Magic = "SCSESSM2"

// SnapshotV2Version is the current v2 container version.
const SnapshotV2Version = 1

// Session-level section ids, above the range the dataset compiled codec
// reserves.
const (
	secAcc    = dataset.SecCompiledEnd + iota // dense accuracy []float64
	secDepTab                                 // flat nS×nS dependence posterior []float64
	secMeta                                   // fingerprint version, rounds, converged, dataset epoch
	secFprint                                 // config fingerprint (v1 encoding)
	secTruth                                  // per-object posteriors (v1 encoding, cold)
	secPairs                                  // pair verdicts (v1 encoding, cold)
	secDSBlob                                 // embedded v1 dataset snapshot (cold)
)

// WriteSnapshotV2 encodes the session to the v2 container. The compiled
// tables, accuracies and dependence table are laid out in their in-memory
// form for zero-copy loading; the dataset snapshot, posteriors and pair
// verdicts are embedded in their v1 encodings as cold sections.
func (s *Session) WriteSnapshotV2(w io.Writer) error {
	if err := s.materialize(); err != nil {
		return err
	}
	var ds bytes.Buffer
	if err := s.d.WriteSnapshot(&ds); err != nil {
		return err
	}
	c := s.d.Compiled()

	var sw snapio.SectionWriter
	if err := c.AppendSections(&sw); err != nil {
		return err
	}
	sw.Add(secAcc, snapio.F64Bytes(s.acc))
	sw.Add(secDepTab, snapio.F64Bytes(s.depTab))

	dep := s.result()
	tr := dep.Truth
	var meta snapio.Writer
	meta.U32(SnapshotVersion) // fingerprint field-list version
	meta.U32(uint32(tr.Rounds))
	meta.Bool(tr.Converged)
	meta.U64(uint64(s.d.Epoch()))
	sw.Add(secMeta, meta.Payload())

	var fp snapio.Writer
	encodeFingerprint(&fp, s.cfg.Depen)
	sw.Add(secFprint, fp.Payload())

	var truthEnc snapio.Writer
	encodeTruthProbs(&truthEnc, c, tr)
	sw.Add(secTruth, truthEnc.Payload())

	var pairsEnc snapio.Writer
	if err := encodePairs(&pairsEnc, c, dep.AllPairs); err != nil {
		return err
	}
	sw.Add(secPairs, pairsEnc.Payload())

	sw.Add(secDSBlob, ds.Bytes())
	return sw.WriteTo(w, SnapshotV2Magic, SnapshotV2Version)
}

// sessionFromMapped assembles a serving session over a validated v2
// container: cast the hot sections, check the config fingerprint, build the
// planner. No cold section is touched. On error the caller owns closing m.
func sessionFromMapped(m *snapio.Mapped, cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := dataset.CompiledFromMapped(m)
	if err != nil {
		return nil, fmt.Errorf("session: snapshot v2: %w", err)
	}
	nS := c.NumSources()

	metaB, ok := m.Section(secMeta)
	if !ok {
		return nil, fmt.Errorf("session: snapshot v2: %w: meta section missing", snapio.ErrCorrupt)
	}
	meta := snapio.NewReader(metaB)
	fpVersion := meta.U32()
	rounds := int(meta.U32())
	converged := meta.Bool()
	epoch := meta.U64()
	if err := meta.Finish(); err != nil {
		return nil, fmt.Errorf("session: snapshot v2: meta: %w", err)
	}
	if fpVersion == 0 || fpVersion > SnapshotVersion {
		return nil, fmt.Errorf("%w: fingerprint version %d (decoder supports 1..%d)",
			snapio.ErrBadVersion, fpVersion, SnapshotVersion)
	}

	fpB, ok := m.Section(secFprint)
	if !ok {
		return nil, fmt.Errorf("session: snapshot v2: %w: fingerprint section missing", snapio.ErrCorrupt)
	}
	fpDec := snapio.NewReader(fpB)
	if err := checkFingerprint(fpDec, cfg.Depen, int(fpVersion)); err != nil {
		return nil, err
	}
	if err := fpDec.Finish(); err != nil {
		return nil, fmt.Errorf("session: snapshot v2: fingerprint: %w", err)
	}

	acc, err := m.F64Section(secAcc)
	if err != nil {
		return nil, fmt.Errorf("session: snapshot v2: %w", err)
	}
	depTab, err := m.F64Section(secDepTab)
	if err != nil {
		return nil, fmt.Errorf("session: snapshot v2: %w", err)
	}
	if len(acc) != nS || len(depTab) != nS*nS {
		return nil, fmt.Errorf("session: snapshot v2: %w: accuracy/dependence tables sized %d/%d for %d sources",
			snapio.ErrCorrupt, len(acc), len(depTab), nS)
	}
	// Cold sections must be present even though they stay untouched: a
	// session that cannot ever materialize is a corrupt snapshot, and the
	// failure should surface at load, not at the first Fuse call.
	for _, id := range []uint32{secTruth, secPairs, secDSBlob} {
		if _, ok := m.Section(id); !ok {
			return nil, fmt.Errorf("session: snapshot v2: %w: cold section %d missing", snapio.ErrCorrupt, id)
		}
	}

	qcfg := cfg.Query
	qcfg.Accuracy = nil
	qcfg.Dependence = nil
	planner, err := queryans.NewPlannerFromCompiled(c, qcfg, acc, depTab)
	if err != nil {
		return nil, err
	}
	return &Session{
		cfg:       cfg,
		acc:       acc,
		depTab:    depTab,
		planner:   planner,
		mapped:    m,
		mc:        c,
		dsEpoch:   int(epoch),
		rounds:    rounds,
		converged: converged,
		hist:      newHistory(cfg.RetainEpochs),
		created:   time.Now(),
	}, nil
}

// materializeMapped decodes the cold sections into heap state: the embedded
// v1 dataset snapshot, then the session's depen.State — a copy of the mapped
// accuracy vector, and the posteriors and pair verdicts laid out over the
// materialized dataset's own (heap) compiled view, never the mapped one — so
// nothing the materialized state references dies with the mapping.
func (s *Session) materializeMapped() error {
	blob, _ := s.mapped.Section(secDSBlob)
	d, err := dataset.ReadSnapshot(bytes.NewReader(blob))
	if err != nil {
		return fmt.Errorf("session: snapshot v2: embedded dataset: %w", err)
	}
	if d.Len() == 0 {
		return fmt.Errorf("session: snapshot v2: %w: empty embedded dataset", snapio.ErrCorrupt)
	}
	c := d.Compiled()
	if c.NumSources() != s.mc.NumSources() || c.NumObjects() != s.mc.NumObjects() ||
		c.NumValues() != s.mc.NumValues() {
		return fmt.Errorf("session: snapshot v2: %w: embedded dataset shape %d/%d/%d does not match mapped tables %d/%d/%d",
			snapio.ErrCorrupt, c.NumSources(), c.NumObjects(), c.NumValues(),
			s.mc.NumSources(), s.mc.NumObjects(), s.mc.NumValues())
	}
	if d.Epoch() != s.dsEpoch {
		return fmt.Errorf("session: snapshot v2: %w: embedded dataset epoch %d, meta says %d",
			snapio.ErrCorrupt, d.Epoch(), s.dsEpoch)
	}

	truthB, _ := s.mapped.Section(secTruth)
	pairsB, _ := s.mapped.Section(secPairs)
	st, err := decodeState(snapio.NewReader(truthB), snapio.NewReader(pairsB), c, s.cfg.Depen,
		slices.Clone(s.acc), s.rounds, s.converged)
	if err != nil {
		return fmt.Errorf("session: snapshot v2: %w", err)
	}
	s.d, s.st = d, st
	return nil
}

// LoadSnapshotV2 validates an in-memory v2 container and assembles a
// serving session over it — the byte-slice twin of LoadSnapshotFile's mmap
// path, used by tests and fuzzing. The session aliases data; it must stay
// immutable while the session lives.
func LoadSnapshotV2(data []byte, cfg Config) (*Session, error) {
	m, err := snapio.OpenMappedBytes(data, SnapshotV2Magic, SnapshotV2Version)
	if err != nil {
		return nil, fmt.Errorf("session: snapshot v2: %w", err)
	}
	return sessionFromMapped(m, cfg)
}

// LoadSnapshotFile loads a session snapshot from path, sniffing the format:
// v2 containers are memory-mapped (zero-copy cold start), v1 frames fall
// back to the decoding loader. Close the returned session when done serving
// it to release the mapping.
func LoadSnapshotFile(path string, cfg Config) (*Session, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var magic [snapio.MagicLen]byte
	_, rerr := io.ReadFull(f, magic[:])
	if rerr != nil {
		f.Close()
		return nil, fmt.Errorf("session: snapshot: %w: %v", snapio.ErrTruncated, rerr)
	}
	if string(magic[:]) == SnapshotV2Magic {
		f.Close()
		m, err := snapio.OpenMappedFile(path, SnapshotV2Magic, SnapshotV2Version)
		if err != nil {
			return nil, fmt.Errorf("session: snapshot v2: %w", err)
		}
		s, err := sessionFromMapped(m, cfg)
		if err != nil {
			m.Close()
			return nil, err
		}
		return s, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	defer f.Close()
	return LoadSnapshot(bufio.NewReader(f), cfg)
}
