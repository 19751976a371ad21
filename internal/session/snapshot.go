// Session snapshots: the serving state a server cold-starts from, in the
// one format there is.
//
// Session construction pays one depen solve — the expensive precompute —
// before the first query can be answered (454 ms at 500 sources on the
// baseline hardware). A session snapshot is that solve's dense state laid
// out as it lies in memory, in an aligned section container
// (snapio/sections.go), so loading is a map (or one read) plus validation
// and casts — no decode loop, a few dozen allocations whatever the world's
// size, and N processes serving one world share one physical copy of its
// pages. Its sections:
//
//   - the dataset (dataset.AppendSections): the compiled tables with the
//     interned-string blob, and the claim log as id columns into them with
//     its epoch bounds — time and probability columns only when some claim
//     needs them;
//   - the state (depen): the accuracy vector per source, the posterior
//     vector per value group, and the analysed pairs' records in (a, b)
//     order, 56 bytes each. The source×source totals table is not stored:
//     opening the file derives it from the pair records, after checking
//     them;
//   - the meta: rounds, converged and the config fingerprint.
//
// Opening validates every section it casts, so a damaged file fails there,
// classified (snapio.ErrCorrupt, ErrTruncated, ErrBadMagic, ErrBadVersion) —
// not at the first append. The opened session serves AnswerObjects and
// Accuracy straight off the mapped tables; the first call that needs the
// dataset (Fuse, Append, Profiles…) materializes it onto the heap from the
// claim log, and assembles the state again over that dataset's index. A
// loaded session is bit-identical to the session it was taken of and to a
// rebuild, on every call (the snapshot suites pin it).
//
// The Config still arrives at load time (it carries callbacks and serving
// knobs that cannot be serialized); a fingerprint of every config field that
// shaped the precompute is stored and checked, so a snapshot cannot be
// silently served under a config that would have produced different state.
package session

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"slices"
	"time"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/queryans"
	"sourcecurrents/internal/snapio"
)

// SnapshotMagic and SnapshotVersion identify the session snapshot container.
// Every other magic or version — the retired decode-everything stream, a
// container of version 1 — fails to open, classified, with a message that
// names `currents snapshot`, which writes this one from the claims.
const (
	SnapshotMagic   = "SCSESSM2"
	SnapshotVersion = 2
)

// Session-level section ids, above the range the dataset codec reserves.
const (
	secAcc     = dataset.SecCompiledEnd + iota // accuracy per source, []float64
	secPost                                    // posterior per value group, []float64
	secPairRec                                 // analysed pairs, depen's stored records
	secMeta                                    // rounds, converged, config fingerprint
)

// WriteSnapshot encodes the session to w. Every table is written as it lies
// in memory; only the string blob and the time and probability columns are
// laid out for the file. A mapped session materializes first.
func (s *Session) WriteSnapshot(w io.Writer) error {
	if err := s.materialize(); err != nil {
		return err
	}
	var sw snapio.SectionWriter
	if err := s.d.AppendSections(&sw); err != nil {
		return err
	}
	sw.Add(secAcc, snapio.F64Bytes(s.st.Accuracy()))
	sw.Add(secPost, snapio.F64Bytes(s.st.Posteriors()))
	sw.Add(secPairRec, s.st.PairBytes())
	var meta snapio.Writer
	meta.U32(uint32(s.st.Rounds()))
	meta.Bool(s.st.Converged())
	encodeFingerprint(&meta, s.cfg.Depen)
	sw.Add(secMeta, meta.Payload())
	return sw.WriteTo(w, SnapshotMagic, SnapshotVersion)
}

// WriteSnapshotV2 is WriteSnapshot.
//
// Deprecated: there is one snapshot format; call WriteSnapshot.
func (s *Session) WriteSnapshotV2(w io.Writer) error { return s.WriteSnapshot(w) }

// LoadSnapshotFile maps the session snapshot at path and assembles a serving
// session over it without re-running discovery (see LoadSnapshotV2 for the
// contract). Close the returned session when done serving it to release the
// mapping.
func LoadSnapshotFile(path string, cfg Config) (*Session, error) {
	m, err := snapio.OpenMappedFile(path, SnapshotMagic, SnapshotVersion)
	if err != nil {
		return nil, openErr(err)
	}
	s, err := sessionFromMapped(m, cfg)
	if err != nil {
		m.Close()
		return nil, err
	}
	return s, nil
}

// LoadSnapshot reads a session snapshot from r into an aligned buffer, sized
// by the container's header, and assembles a serving session over it, as
// LoadSnapshotV2 does. It reads through the end of the last section's data.
func LoadSnapshot(r io.Reader, cfg Config) (*Session, error) {
	m, err := snapio.ReadMapped(r, SnapshotMagic, SnapshotVersion)
	if err != nil {
		return nil, openErr(err)
	}
	return sessionFromMapped(m, cfg)
}

// LoadSnapshotV2 validates an in-memory session snapshot and assembles a
// serving session over it — the byte-slice twin of LoadSnapshotFile. cfg
// must match the configuration the snapshot was built with on every field
// that shaped the precompute (checked against the stored fingerprint);
// serving-only knobs — Query, Fusion, Reports — are free to differ. The
// session's state and every serving call are bit-identical to the session
// the snapshot was taken of. The session aliases data (or an aligned copy of
// it); it must stay immutable while the session lives.
func LoadSnapshotV2(data []byte, cfg Config) (*Session, error) {
	m, err := snapio.OpenMappedBytes(data, SnapshotMagic, SnapshotVersion)
	if err != nil {
		return nil, openErr(err)
	}
	return sessionFromMapped(m, cfg)
}

// CheckSnapshotFile checks that path begins as a session snapshot of this
// format and version, reading nothing past the header's first bytes — what a
// registry checks before it defers the load to first use.
func CheckSnapshotFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := snapio.CheckHeader(f, SnapshotMagic, SnapshotVersion); err != nil {
		return openErr(err)
	}
	return nil
}

// openErr classifies a container that would not open; a file of another
// format or version is told how to get this one.
func openErr(err error) error {
	if errors.Is(err, snapio.ErrBadMagic) || errors.Is(err, snapio.ErrBadVersion) {
		return fmt.Errorf("session: snapshot: %w — not a session snapshot of this format; rebuild it from its claims with `currents snapshot`", err)
	}
	return fmt.Errorf("session: snapshot: %w", err)
}

// corrupt classes an error from a validator that returns plain errors.
func corrupt(err error) error {
	return fmt.Errorf("session: snapshot: %w: %v", snapio.ErrCorrupt, err)
}

// sessionFromMapped assembles a serving session over a validated container:
// open the dataset's sections, read the meta and check the config
// fingerprint in it, assemble the state from its sections (deriving the
// totals table) and build the planner. On error the caller owns closing m.
func sessionFromMapped(m *snapio.Mapped, cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	md, err := dataset.FromMapped(m)
	if err != nil {
		return nil, fmt.Errorf("session: snapshot: %w", err)
	}
	metaB, ok := m.Section(secMeta)
	if !ok {
		return nil, corrupt(errors.New("meta section missing"))
	}
	meta := snapio.NewReader(metaB)
	rounds := int(meta.U32())
	converged := meta.Bool()
	if err := checkFingerprint(meta, cfg.Depen); err != nil {
		return nil, err
	}
	if err := meta.Finish(); err != nil {
		return nil, fmt.Errorf("session: snapshot: meta: %w", err)
	}
	acc, err := m.F64Section(secAcc)
	if err != nil {
		return nil, fmt.Errorf("session: snapshot: %w", err)
	}
	post, err := m.F64Section(secPost)
	if err != nil {
		return nil, fmt.Errorf("session: snapshot: %w", err)
	}
	pairs, ok := m.Section(secPairRec)
	if !ok {
		return nil, corrupt(errors.New("pair section missing"))
	}
	c := md.Compiled()
	st, err := depen.StateFromParts(c, acc, post, pairs, rounds, converged)
	if err != nil {
		return nil, corrupt(err)
	}
	qcfg := cfg.Query
	qcfg.Accuracy = nil
	qcfg.Dependence = nil
	planner, err := queryans.NewPlannerFromCompiled(c, qcfg, acc, st.Totals())
	if err != nil {
		return nil, err
	}
	return &Session{
		cfg:     cfg,
		st:      st,
		acc:     acc,
		depTab:  st.Totals(),
		planner: planner,
		mapped:  m,
		md:      md,
		hist:    newHistory(cfg.RetainEpochs),
		created: time.Now(),
	}, nil
}

// materializeMapped builds a mapped session's dataset on the heap from the
// claim log, and assembles its state again over that dataset's index from
// copies of its parts — so nothing the materialized session reads dies with
// the mapping.
func (s *Session) materializeMapped() error {
	d, err := s.md.Dataset()
	if err != nil {
		return fmt.Errorf("session: snapshot: %w", err)
	}
	st, err := depen.StateFromParts(d.Compiled(), slices.Clone(s.st.Accuracy()), slices.Clone(s.st.Posteriors()),
		bytes.Clone(s.st.PairBytes()), s.st.Rounds(), s.st.Converged())
	if err != nil {
		return corrupt(err)
	}
	s.d, s.st = d, st
	return nil
}

// fingerprintField is one config field captured at snapshot time.
type fingerprintField struct {
	name string
	val  float64
}

// fingerprint lists every config field the cached precompute depends on.
// Callback presence is captured as a boolean field: a snapshot taken with a
// ValueSim set cannot be loaded under a config without one (and vice
// versa), because the stored posteriors would not match what New would
// compute. The Known map's full content is captured as a hash of its
// sorted entries, so a snapshot pinned to one labeling cannot be served
// under another.
func fingerprint(cfg depen.Config) []fingerprintField {
	knownHi, knownLo := knownHash(cfg.Truth.Known)
	return []fingerprintField{
		{"Depen.CopyRate", cfg.CopyRate},
		{"Depen.Alpha", cfg.Alpha},
		{"Depen.MinShared", float64(cfg.MinShared)},
		{"Depen.DepThreshold", cfg.DepThreshold},
		{"Depen.MaxRounds", float64(cfg.MaxRounds)},
		{"Depen.Tol", cfg.Tol},
		{"Truth.N", float64(cfg.Truth.N)},
		{"Truth.InitialAccuracy", cfg.Truth.InitialAccuracy},
		{"Truth.MaxRounds", float64(cfg.Truth.MaxRounds)},
		{"Truth.Tol", cfg.Truth.Tol},
		{"Truth.PriorA", cfg.Truth.PriorA},
		{"Truth.PriorB", cfg.Truth.PriorB},
		{"Truth.ValueSimWeight", cfg.Truth.ValueSimWeight},
		{"Truth.KnownConfidence", cfg.Truth.KnownConfidence},
		{"Truth.ValueSim set", boolField(cfg.Truth.ValueSim != nil)},
		{"Truth.Known entries", float64(len(cfg.Truth.Known))},
		{"Truth.Known hash hi", knownHi},
		{"Truth.Known hash lo", knownLo},
		{"Depen.RefineRounds", float64(cfg.EffectiveRefineRounds())},
	}
}

func boolField(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// knownHash folds the Known map's sorted (object, value) entries into an
// FNV-64 hash, returned as two exactly-representable 32-bit halves (the
// fingerprint format carries float64 values).
func knownHash(known map[model.ObjectID]string) (hi, lo float64) {
	if len(known) == 0 {
		return 0, 0
	}
	objs := make([]model.ObjectID, 0, len(known))
	for o := range known {
		objs = append(objs, o)
	}
	model.SortObjects(objs)
	h := fnv.New64a()
	for _, o := range objs {
		h.Write([]byte(o.Entity))
		h.Write([]byte{0})
		h.Write([]byte(o.Attribute))
		h.Write([]byte{0})
		h.Write([]byte(known[o]))
		h.Write([]byte{0})
	}
	sum := h.Sum64()
	return float64(uint32(sum >> 32)), float64(uint32(sum))
}

func encodeFingerprint(enc *snapio.Writer, cfg depen.Config) {
	fields := fingerprint(cfg)
	enc.U32(uint32(len(fields)))
	for _, f := range fields {
		enc.Str(f.name)
		enc.F64(f.val)
	}
}

// checkFingerprint compares the stored fields against the load-time config.
func checkFingerprint(dec *snapio.Reader, cfg depen.Config) error {
	want := fingerprint(cfg)
	n := dec.Count(2)
	if dec.Err() != nil {
		return nil // latched; surfaced by the caller's Finish
	}
	if n != len(want) {
		return fmt.Errorf("session: snapshot fingerprint has %d fields, config has %d", n, len(want))
	}
	for _, f := range want {
		name := dec.Str()
		val := dec.F64()
		if dec.Err() != nil {
			return nil
		}
		if name != f.name {
			return fmt.Errorf("session: snapshot fingerprint field %q, config expects %q", name, f.name)
		}
		if val != f.val {
			return fmt.Errorf("session: snapshot was built with %s = %v, load config has %v — rebuild the snapshot or match the config", name, val, f.val)
		}
	}
	return nil
}
