// Binary session snapshots: the serving state a server cold-starts from.
//
// Session construction pays one depen.Detect — the expensive precompute —
// before the first query can be answered (454 ms at 500 sources on the
// baseline hardware). A session snapshot captures everything that run
// derived, in dense compiled-index form: the embedded dataset snapshot
// (interned string tables + CSR claim records), the per-group truth
// posterior vector, the dense per-source accuracy vector, and the
// source×source dependence table (every analyzed pair's full verdict).
// LoadSnapshot rebuilds a Session by decoding those tables straight into the
// depen.State a solve would have left (depen.StateFromParts) instead of
// re-running discovery, which is what lets a query server restart in
// milliseconds and serve bit-identical answers. Like a solved session, a
// loaded one builds the named Result view only when something reads it.
//
// The Config still arrives at load time (it carries callbacks and serving
// knobs that cannot be serialized); a fingerprint of every config field
// that shaped the precompute is stored and checked, so a snapshot cannot be
// silently served under a config that would have produced different state.
package session

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"sort"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/snapio"
	"sourcecurrents/internal/truth"
)

// SnapshotMagic identifies the session snapshot format.
const SnapshotMagic = "SCDSSESS"

// SnapshotVersion is the current session snapshot version. Version 2 added
// Depen.RefineRounds to the config fingerprint (the knob that shapes
// replayed, log-carrying datasets' state); version-1 snapshots — which
// predate append logs and therefore embed flat datasets RefineRounds never
// influenced — are still accepted and checked against the version-1 field
// list.
const SnapshotVersion = 2

// inlineValue marks a truth-posterior value that is not in the dataset's
// interned value table (a Known-pinned label never asserted by any source);
// the string follows inline.
const inlineValue = ^uint32(0)

// WriteSnapshot encodes the session's dataset and cached precompute to w.
func (s *Session) WriteSnapshot(w io.Writer) error {
	if err := s.materialize(); err != nil {
		return err
	}
	var ds bytes.Buffer
	if err := s.d.WriteSnapshot(&ds); err != nil {
		return err
	}
	c := s.d.Compiled()

	var enc snapio.Writer
	enc.Blob(ds.Bytes())
	encodeFingerprint(&enc, s.cfg.Depen)

	// Truth result: bookkeeping, dense accuracy vector (compiled source
	// order), and per-object posterior entries (objects in compiled order,
	// values in sorted order — the canonical iteration everywhere else).
	dep := s.result()
	tr := dep.Truth
	enc.U32(uint32(tr.Rounds))
	enc.Bool(tr.Converged)
	for i := 0; i < c.NumSources(); i++ {
		enc.F64(tr.Accuracy[c.Source(i)])
	}
	encodeTruthProbs(&enc, c, tr)
	if err := encodePairs(&enc, c, dep.AllPairs); err != nil {
		return err
	}
	return enc.Frame(w, SnapshotMagic, SnapshotVersion)
}

// encodeTruthProbs appends the per-object posterior entries: objects in
// compiled order, values in sorted order — the canonical iteration
// everywhere else. Shared verbatim by the v1 payload and the v2 TRUTH
// section, so both decode to identical state.
func encodeTruthProbs(enc *snapio.Writer, c *dataset.Compiled, tr *truth.Result) {
	for oi := 0; oi < c.NumObjects(); oi++ {
		pv := tr.Probs[c.Object(oi)]
		vals := make([]string, 0, len(pv))
		for v := range pv {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		enc.U32(uint32(len(vals)))
		for _, v := range vals {
			if vi, ok := c.ValueIndex(v); ok {
				enc.U32(uint32(vi))
			} else {
				enc.U32(inlineValue)
				enc.Str(v)
			}
			enc.F64(pv[v])
		}
	}
}

// encodePairs appends every analyzed pair's final verdict, in AllPairs
// (posterior-sorted) order; sources as compiled indices. Shared by the v1
// payload and the v2 PAIRS section.
func encodePairs(enc *snapio.Writer, c *dataset.Compiled, allPairs []depen.Dependence) error {
	enc.U32(uint32(len(allPairs)))
	for _, pd := range allPairs {
		ai, aok := c.SourceIndex(pd.Pair.A)
		bi, bok := c.SourceIndex(pd.Pair.B)
		if !aok || !bok {
			return fmt.Errorf("session: snapshot: pair %v references an unknown source", pd.Pair)
		}
		enc.U32(uint32(ai))
		enc.U32(uint32(bi))
		enc.F64(pd.Prob)
		enc.F64(pd.ProbAB)
		enc.F64(pd.ProbBA)
		enc.I64(int64(pd.Shared))
		enc.I64(int64(pd.Same))
		enc.F64(pd.KT)
		enc.F64(pd.KF)
		enc.F64(pd.KD)
	}
	return nil
}

// fingerprintField is one config field captured at snapshot time.
type fingerprintField struct {
	name string
	val  float64
}

// fingerprint lists every config field the cached precompute depends on,
// for the given snapshot version (later versions append fields; earlier
// snapshots are checked against the list they were written with).
// Callback presence is captured as a boolean field: a snapshot taken with a
// ValueSim set cannot be loaded under a config without one (and vice
// versa), because the stored posteriors would not match what New would
// compute. The Known map's full content is captured as a hash of its
// sorted entries, so a snapshot pinned to one labeling cannot be served
// under another.
func fingerprint(cfg depen.Config, version int) []fingerprintField {
	knownHi, knownLo := knownHash(cfg.Truth.Known)
	fields := []fingerprintField{
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
	}
	if version >= 2 {
		fields = append(fields, fingerprintField{
			"Depen.RefineRounds", float64(cfg.EffectiveRefineRounds()),
		})
	}
	return fields
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
	fields := fingerprint(cfg, SnapshotVersion)
	enc.U32(uint32(len(fields)))
	for _, f := range fields {
		enc.Str(f.name)
		enc.F64(f.val)
	}
}

// checkFingerprint compares the stored fields against the load-time config.
func checkFingerprint(dec *snapio.Reader, cfg depen.Config, version int) error {
	want := fingerprint(cfg, version)
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

// LoadSnapshot decodes a session snapshot and assembles a serving Session
// under cfg without re-running discovery. cfg must match the configuration
// the snapshot was built with on every field that shaped the precompute
// (checked against the stored fingerprint); serving-only knobs — Query,
// Fusion, Reports — are free to differ. The loaded session's
// state and every serving call are bit-identical to the session the
// snapshot was taken of.
func LoadSnapshot(r io.Reader, cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dec, version, err := snapio.OpenFrame(r, SnapshotMagic, SnapshotVersion)
	if err != nil {
		return nil, fmt.Errorf("session: snapshot: %w", err)
	}

	dsBlob := dec.Blob()
	if err := dec.Err(); err != nil {
		return nil, fmt.Errorf("session: snapshot: %w", err)
	}
	d, err := dataset.ReadSnapshot(bytes.NewReader(dsBlob))
	if err != nil {
		return nil, fmt.Errorf("session: snapshot: %w", err)
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("session: snapshot: %w: empty dataset", snapio.ErrCorrupt)
	}
	c := d.Compiled()

	if err := checkFingerprint(dec, cfg.Depen, int(version)); err != nil {
		return nil, err
	}

	rounds := int(dec.U32())
	converged := dec.Bool()
	acc := make([]float64, c.NumSources())
	for i := range acc {
		acc[i] = dec.F64()
	}
	st, err := decodeState(dec, dec, c, cfg.Depen, acc, rounds, converged)
	if err != nil {
		return nil, fmt.Errorf("session: snapshot: %w", err)
	}
	return newSession(d, cfg, st)
}

// decodeState decodes the posterior entries in truthDec and the pair records
// in pairsDec — one reader for the v1 payload's tail, v2's TRUTH and PAIRS
// sections otherwise — into the dense state over c, the decoded dataset's
// index, with the accuracy vector acc.
func decodeState(truthDec, pairsDec *snapio.Reader, c *dataset.Compiled, cfg depen.Config,
	acc []float64, rounds int, converged bool) (*depen.State, error) {
	probs, err := decodeTruthProbs(truthDec, c, cfg.Truth.Known)
	if err != nil {
		return nil, err
	}
	pairA, pairB, pairs := decodePairs(pairsDec, c)
	for _, dec := range []*snapio.Reader{truthDec, pairsDec} {
		if err := dec.Finish(); err != nil {
			return nil, err
		}
	}
	st, err := depen.StateFromParts(c, acc, probs, pairA, pairB, pairs, rounds, converged)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snapio.ErrCorrupt, err)
	}
	return st, nil
}

// decodeTruthProbs is the inverse of encodeTruthProbs: it fills the posterior
// vector over c's value groups. An entry for a value outside its object's
// groups must be the object's Known label, whose pinned posterior the view
// derives from the config; any other is corrupt. Decode errors latch in dec.
func decodeTruthProbs(dec *snapio.Reader, c *dataset.Compiled, known map[model.ObjectID]string) ([]float64, error) {
	probs := make([]float64, len(c.GroupValue))
	for oi := 0; oi < c.NumObjects() && dec.Err() == nil; oi++ {
		gs, ge := c.GroupStart[oi], c.GroupStart[oi+1]
		n := dec.Count(12)
		for k := 0; k < n; k++ {
			ref := dec.U32()
			var v string
			if ref == inlineValue {
				v = dec.Str()
			} else if int(ref) < c.NumValues() {
				// Groups are in value order, and value indexes in string order.
				if at, ok := slices.BinarySearch(c.GroupValue[gs:ge], int32(ref)); ok {
					probs[int(gs)+at] = dec.F64()
					continue
				}
				v = c.Value(int(ref))
			} else if dec.Err() == nil {
				return nil, fmt.Errorf("%w: value index %d out of range", snapio.ErrCorrupt, ref)
			}
			dec.F64()
			if label, ok := known[c.Object(oi)]; dec.Err() == nil && (!ok || v != label) {
				return nil, fmt.Errorf("%w: posterior of object %d names %q, neither a value of it nor its label",
					snapio.ErrCorrupt, oi, v)
			}
		}
	}
	return probs, nil
}

// decodePairs is the inverse of encodePairs: each pair's compiled source
// indexes and its verdict (Pair left unset). Decode errors latch in dec; the
// caller's Finish surfaces them.
func decodePairs(dec *snapio.Reader, c *dataset.Compiled) (pairA, pairB []int32, pairs []depen.Dependence) {
	nPairs := dec.Count(8 + 8*8)
	pairA = make([]int32, 0, nPairs)
	pairB = make([]int32, 0, nPairs)
	pairs = make([]depen.Dependence, 0, nPairs)
	for k := 0; k < nPairs; k++ {
		ai := dec.Index(c.NumSources())
		bi := dec.Index(c.NumSources())
		pd := depen.Dependence{
			Prob:   dec.F64(),
			ProbAB: dec.F64(),
			ProbBA: dec.F64(),
			Shared: int(dec.I64()),
			Same:   int(dec.I64()),
			KT:     dec.F64(),
			KF:     dec.F64(),
			KD:     dec.F64(),
		}
		if dec.Err() != nil {
			break
		}
		pairA = append(pairA, int32(ai))
		pairB = append(pairB, int32(bi))
		pairs = append(pairs, pd)
	}
	return pairA, pairB, pairs
}
