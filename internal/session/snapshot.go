// Session snapshots: the serving state a server boots from, in the one
// format there is.
//
// Session construction pays one depen solve — the expensive precompute —
// before the first query can be answered (454 ms at 500 sources on the
// baseline hardware). A session snapshot is that solve's dense state laid
// out as it lies in memory, in an aligned section container
// (snapio/sections.go), so loading is one read into a heap buffer, one CRC
// over it and validation and casts — no decode loop and a few dozen
// allocations whatever the world's size. Its sections:
//
//   - the dataset (dataset.AppendSections): the interned-string blob with its
//     offset tables, and the claim log as id columns into them with its epoch
//     bounds — time and probability columns only when some claim needs them;
//   - the state (depen): the accuracy vector per source, the posterior
//     vector per value group, and the analysed pairs' records in (a, b)
//     order, 56 bytes each. The source×source totals table is not stored:
//     opening the file derives it from the pair records, after checking
//     them;
//   - the meta: rounds, converged and the config fingerprint.
//
// The container's seal covers every section, so a byte damaged after the
// write fails the open with snapio.ErrChecksum before any section is read.
// Opening then builds the session New builds: the heap dataset from the claim
// log over the stored interning tables (dataset.FromSections, which checks
// the structure of what it read and lays out every other table), the state
// assembled over that dataset's index from the state's sections as they lie,
// and the planner — each checking what it takes, since a sealed file is still
// outside input. So a damaged file fails the open, classified
// (snapio.ErrCorrupt, ErrTruncated, ErrBadMagic, ErrBadVersion) — not a later
// call. A loaded session is bit-identical to the session it was
// taken of and to a rebuild, in structure and on every call (the snapshot
// suites pin it). The container is an ordinary heap buffer, which the state's
// vectors and pair records alias: the garbage collector keeps it for as long
// as the session, or a successor carrying that state forward, is referenced.
//
// The Config still arrives at load time (it carries callbacks and serving
// knobs that cannot be serialized); a fingerprint of every config field that
// shaped the precompute is stored and checked, so a snapshot cannot be
// silently served under a config that would have produced different state.
package session

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/snapio"
)

// SnapshotMagic and SnapshotVersion identify the session snapshot container.
// Every other magic or version — the retired decode-everything stream, a
// container of version 1 to 3 (version 3 sealed only its dataset sections) —
// fails to open, classified, with a message that names `currents snapshot`,
// which writes this one from the claims.
const (
	SnapshotMagic   = "SCSESSM2"
	SnapshotVersion = 4
)

// Session-level section ids, above the range the dataset codec reserves.
const (
	secAcc     = dataset.SecDatasetEnd + iota // accuracy per source, []float64
	secPost                                   // posterior per value group, []float64
	secPairRec                                // analysed pairs, depen's stored records
	secMeta                                   // rounds, converged, config fingerprint
)

// WriteSnapshot encodes the session to w. Every state table is written as it
// lies in memory; the dataset writes its strings and claim log.
func (s *Session) WriteSnapshot(w io.Writer) error {
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

// LoadSnapshotFile reads the session snapshot at path into one heap buffer
// of exactly the file's size and builds the serving session it holds without
// re-running discovery. cfg must match the configuration the snapshot was
// built with on every field that shaped the precompute (checked against the
// stored fingerprint); serving-only knobs — Query, Fusion, Reports — are free
// to differ. The session's state and every serving call are bit-identical to
// the session the snapshot was taken of. The session keeps no hold on the
// file: it may be removed or rewritten once the load returns.
func LoadSnapshotFile(path string, cfg Config) (*Session, error) {
	m, err := snapio.ReadContainerFile(path, SnapshotMagic, SnapshotVersion)
	if err != nil {
		return nil, openErr(err)
	}
	return sessionFromContainer(m, cfg)
}

// LoadSnapshot reads a session snapshot from r into an aligned buffer, sized
// by the container's header, and builds the serving session it holds, as
// LoadSnapshotFile does. It reads through the end of the last section's data.
func LoadSnapshot(r io.Reader, cfg Config) (*Session, error) {
	m, err := snapio.ReadContainer(r, SnapshotMagic, SnapshotVersion)
	if err != nil {
		return nil, openErr(err)
	}
	return sessionFromContainer(m, cfg)
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

// sessionFromContainer builds the session a validated container holds: the
// dataset from its sections, the meta with the config fingerprint checked,
// the state assembled over the dataset's index from its sections (deriving
// the totals table), and the planner.
func sessionFromContainer(m *snapio.Container, cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d, err := dataset.FromSections(m)
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
	st, err := depen.StateFromParts(d.Compiled(), acc, post, pairs, rounds, converged)
	if err != nil {
		return nil, corrupt(err)
	}
	return newSession(d, cfg, st)
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
