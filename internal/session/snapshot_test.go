package session

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sourcecurrents/internal/dataset"
	"sourcecurrents/internal/depen"
	"sourcecurrents/internal/model"
	"sourcecurrents/internal/recommend"
	"sourcecurrents/internal/snapio"
	"sourcecurrents/internal/synth"
)

func snapshotBytes(t testing.TB, s *Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// snapshotFile writes raw to a fresh file and returns its path.
func snapshotFile(t testing.TB, raw []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadFile maps raw from a file, closing the session when the test ends.
func loadFile(t testing.TB, raw []byte, cfg Config) *Session {
	t.Helper()
	s, err := LoadSnapshotFile(snapshotFile(t, raw), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestSnapshotRoundTripGolden pins the central contract: a snapshot read back
// is deep-equal to the session it was taken of — discovery result
// (posteriors, accuracies, every pair verdict, directional tables), dataset
// view, and the dense serving tables — and every serving call returns
// bit-identical results.
func TestSnapshotRoundTripGolden(t *testing.T) {
	d := servingWorld(t, 17)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, s)
	got, err := LoadSnapshot(bytes.NewReader(raw), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	if err := viewDiff(got.Dependence(), s.Dependence()); err != nil {
		t.Fatalf("depen.Result differs after snapshot round trip: %v", err)
	}
	if !reflect.DeepEqual(got.Dataset().Claims(), s.Dataset().Claims()) {
		t.Fatal("dataset claims differ after snapshot round trip")
	}
	if !reflect.DeepEqual(got.acc, s.acc) {
		t.Fatal("dense accuracy vector differs after snapshot round trip")
	}
	if !reflect.DeepEqual(got.depTab, s.depTab) {
		t.Fatal("dense dependence table differs after snapshot round trip")
	}

	for _, q := range queries(d) {
		want, err := servedTrace(s, q)
		if err != nil {
			t.Fatal(err)
		}
		have, err := servedTrace(got, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(have, want) {
			t.Fatal("AnswerObjects differs after snapshot round trip")
		}
	}
	wantFuse, err := s.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	haveFuse, err := got.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(haveFuse.Chosen, wantFuse.Chosen) ||
		!reflect.DeepEqual(haveFuse.Relation, wantFuse.Relation) {
		t.Fatal("Fuse differs after snapshot round trip")
	}
	wantTop, err := s.RecommendSources(recommend.DefaultWeights(), 5)
	if err != nil {
		t.Fatal(err)
	}
	haveTop, err := got.RecommendSources(recommend.DefaultWeights(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(haveTop, wantTop) {
		t.Fatal("RecommendSources differs after snapshot round trip")
	}

	// A second encode of the loaded session is byte-identical (canonical).
	if !bytes.Equal(snapshotBytes(t, got), raw) {
		t.Fatal("re-encoded snapshot is not byte-identical")
	}
}

// TestSnapshotRoundTripWithKnownAndSim: a Known pin for a value no source
// asserts is no value group's, so the snapshot does not store it — the view
// derives it from the config, which the fingerprint ties to the snapshot.
func TestSnapshotRoundTripWithKnownAndSim(t *testing.T) {
	d := servingWorld(t, 23)
	cfg := DefaultConfig()
	obj := d.Objects()[0]
	cfg.Depen.Truth.Known = map[model.ObjectID]string{obj: "value-nobody-asserts"}
	s, err := New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, s)
	got, err := LoadSnapshot(bytes.NewReader(raw), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := viewDiff(got.Dependence(), s.Dependence()); err != nil {
		t.Fatalf("depen.Result differs with Known pin: %v", err)
	}
	if got.Dependence().Truth.Chosen[obj] != "value-nobody-asserts" {
		t.Fatal("Known value lost in round trip")
	}

	// Loading under a config without the pin must be refused.
	if _, err := LoadSnapshot(bytes.NewReader(raw), DefaultConfig()); err == nil {
		t.Fatal("expected fingerprint mismatch for missing Known")
	}
	// ... and so must a Known map of the same size with different content
	// (the fingerprint hashes the entries, not just the count).
	cfg2 := DefaultConfig()
	cfg2.Depen.Truth.Known = map[model.ObjectID]string{obj: "a-different-label"}
	if _, err := LoadSnapshot(bytes.NewReader(raw), cfg2); err == nil {
		t.Fatal("expected fingerprint mismatch for changed Known value")
	}
	cfg3 := DefaultConfig()
	cfg3.Depen.Truth.Known = map[model.ObjectID]string{d.Objects()[1]: "value-nobody-asserts"}
	if _, err := LoadSnapshot(bytes.NewReader(raw), cfg3); err == nil {
		t.Fatal("expected fingerprint mismatch for changed Known object")
	}
}

func TestSnapshotFingerprintMismatch(t *testing.T) {
	d := servingWorld(t, 29)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, s)

	cfg := DefaultConfig()
	cfg.Depen.CopyRate = 0.5
	if _, err := LoadSnapshot(bytes.NewReader(raw), cfg); err == nil {
		t.Fatal("expected fingerprint mismatch for CopyRate change")
	}
	cfg = DefaultConfig()
	cfg.Depen.Truth.ValueSim = func(a, b string) float64 { return 0 }
	cfg.Depen.Truth.ValueSimWeight = 0.1
	if _, err := LoadSnapshot(bytes.NewReader(raw), cfg); err == nil {
		t.Fatal("expected fingerprint mismatch for ValueSim change")
	}
	cfg = DefaultConfig()
	cfg.Depen.RefineRounds = 3
	if _, err := LoadSnapshot(bytes.NewReader(raw), cfg); err == nil {
		t.Fatal("expected fingerprint mismatch for RefineRounds change")
	}

	// Serving-only knobs may differ freely.
	cfg = DefaultConfig()
	cfg.Query.MaxSources = 3
	if _, err := LoadSnapshot(bytes.NewReader(raw), cfg); err != nil {
		t.Fatalf("serving-knob change rejected: %v", err)
	}
}

// withSection rebuilds the container raw with section id's bytes replaced
// by edit(a copy of them) — edit gets nil for a section raw lacks, and a nil
// result drops the section. Sections are written in id order, as the writer
// lays them out, so an edit that changes nothing gives raw back.
func withSection(t testing.TB, raw []byte, id uint32, edit func([]byte) []byte) []byte {
	t.Helper()
	m, err := snapio.OpenMappedBytes(raw, SnapshotMagic, SnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	var sw snapio.SectionWriter
	for k := uint32(1); k < 128; k++ {
		b, ok := m.Section(k)
		if k == id {
			b = edit(bytes.Clone(b))
			ok = b != nil
		}
		if ok {
			sw.Add(k, b)
		}
	}
	var buf bytes.Buffer
	if err := sw.WriteTo(&buf, SnapshotMagic, SnapshotVersion); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pairRecBytes is the size of one stored pair record: sources a and b, then
// shared and same, as int32s, then five float64s.
const pairRecBytes = 56

// corruptions lists damage to the state and log sections of raw, a snapshot
// of s, that no writer produces. Each must fail the load itself, classified.
func corruptions(t testing.TB, s *Session, raw []byte) map[string][]byte {
	t.Helper()
	c := s.Dataset().Compiled()
	i32 := binary.NativeEndian
	pairs := func(edit func(p []byte)) []byte {
		return withSection(t, raw, secPairRec, func(p []byte) []byte {
			if len(p) < 2*pairRecBytes {
				t.Fatal("the world has fewer than two analysed pairs")
			}
			edit(p)
			return p
		})
	}
	last := func(p []byte) []byte { return p[len(p)-pairRecBytes:] }
	shorten := func(n int) func([]byte) []byte { return func(b []byte) []byte { return b[:len(b)-n] } }
	drop := func([]byte) []byte { return nil }
	return map[string][]byte{
		"pair named in reverse": pairs(func(p []byte) {
			a, b := i32.Uint32(p), i32.Uint32(p[4:])
			i32.PutUint32(p, b)
			i32.PutUint32(p[4:], a)
		}),
		"pair of a source with itself": pairs(func(p []byte) { i32.PutUint32(p[4:], i32.Uint32(p)) }),
		"pair given twice":             pairs(func(p []byte) { copy(p[pairRecBytes:], p[:pairRecBytes]) }),
		"pairs out of order": pairs(func(p []byte) {
			first := bytes.Clone(p[:pairRecBytes])
			copy(p, last(p))
			copy(last(p), first)
		}),
		"pair source out of range": pairs(func(p []byte) { i32.PutUint32(last(p)[4:], uint32(c.NumSources())) }),
		"pair section truncated":   withSection(t, raw, secPairRec, shorten(8)),
		"pair section missing":     withSection(t, raw, secPairRec, drop),
		"posteriors one short":     withSection(t, raw, secPost, shorten(8)),
		"accuracies one short":     withSection(t, raw, secAcc, shorten(8)),
		"meta section missing":     withSection(t, raw, secMeta, drop),
		"log value id out of range": withSection(t, raw, dataset.SecLogVal, func(b []byte) []byte {
			i32.PutUint32(b, uint32(c.NumValues()))
			return b
		}),
		"log columns of two lengths": withSection(t, raw, dataset.SecLogObj, shorten(4)),
		"log bounds out of order": withSection(t, raw, dataset.SecLogBounds, func([]byte) []byte {
			return snapio.I32Bytes([]int32{5, 3})
		}),
		"HasTime column without times": withSection(t, raw, dataset.SecLogTimed, func([]byte) []byte {
			return make([]byte, s.Dataset().Len())
		}),
		// In range, but no longer the source-major table's transpose: the
		// planner's member counts would overrun.
		"group members not the claims' transpose": withSection(t, raw, dataset.SecGroupSrc, func(b []byte) []byte {
			return make([]byte, len(b))
		}),
	}
}

func TestSnapshotCorruption(t *testing.T) {
	d := servingWorld(t, 31)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, s)

	t.Run("wrong magic", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		copy(mut, "NOTASNAP")
		if _, err := LoadSnapshot(bytes.NewReader(mut), DefaultConfig()); !errors.Is(err, snapio.ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		mut[snapio.MagicLen] = SnapshotVersion + 1
		if _, err := LoadSnapshot(bytes.NewReader(mut), DefaultConfig()); !errors.Is(err, snapio.ErrBadVersion) {
			t.Fatalf("err = %v, want ErrBadVersion", err)
		}
	})
	t.Run("dataset snapshot magic inside session frame", func(t *testing.T) {
		// A dataset snapshot is not a session snapshot.
		var buf bytes.Buffer
		if err := d.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(bytes.NewReader(buf.Bytes()), DefaultConfig()); !errors.Is(err, snapio.ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("truncation everywhere", func(t *testing.T) {
		step := 1
		if len(raw) > 4096 {
			step = len(raw) / 4096
		}
		for cut := 0; cut < len(raw); cut += step {
			// A cut into the last section's alignment padding (< 8 bytes)
			// leaves every section whole; any deeper one must fail.
			if _, err := LoadSnapshot(bytes.NewReader(raw[:cut]), DefaultConfig()); err == nil && len(raw)-cut >= 8 {
				t.Fatalf("cut at %d of %d bytes decoded successfully", cut, len(raw))
			}
		}
	})
	t.Run("payload bit flips", func(t *testing.T) {
		// The header is checksummed, the sections are not: a flip fails the
		// load classified, or it loads a session that serves without panic.
		classes := []error{snapio.ErrCorrupt, snapio.ErrTruncated, snapio.ErrChecksum, snapio.ErrBadMagic, snapio.ErrBadVersion}
		for off := 0; off < len(raw); off += 97 {
			mut := append([]byte(nil), raw...)
			mut[off] ^= 0x20
			got, err := LoadSnapshot(bytes.NewReader(mut), DefaultConfig())
			if err != nil {
				if !slices.ContainsFunc(classes, func(c error) bool { return errors.Is(err, c) }) &&
					!strings.Contains(err.Error(), "fingerprint") && !strings.Contains(err.Error(), "was built with") {
					t.Fatalf("bit flip at %d: unclassified error %v", off, err)
				}
				continue
			}
			if _, err := got.AnswerObjects(d.Objects()); err != nil {
				t.Fatalf("bit flip at %d: %v", off, err)
			}
			_ = got.Dependence()
		}
	})
	t.Run("records no solve writes", func(t *testing.T) {
		for name, mut := range corruptions(t, s, raw) {
			if _, err := LoadSnapshot(bytes.NewReader(mut), DefaultConfig()); !errors.Is(err, snapio.ErrCorrupt) &&
				!errors.Is(err, snapio.ErrTruncated) {
				t.Fatalf("%s: err = %v, want ErrCorrupt or ErrTruncated", name, err)
			}
		}
	})
}

// TestSnapshotV2Corruption walks structured damage over a real container
// through both loaders, the mapped file and the in-memory bytes: truncation
// at a spread of prefix lengths, a config-fingerprint mismatch, and damaged
// state and log sections — every one an error from the load itself,
// classified, never a panic or a session over garbage tables. A stored total
// is not read at all: a container carrying a forged totals table beside valid
// pair records loads, and serves the totals the records give.
func TestSnapshotV2Corruption(t *testing.T) {
	d := servingWorld(t, 61)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, s)
	loaders := map[string]func([]byte, Config) (*Session, error){
		"bytes": LoadSnapshotV2,
		"file": func(b []byte, cfg Config) (*Session, error) {
			return LoadSnapshotFile(snapshotFile(t, b), cfg)
		},
	}

	// Truncations: every 64-byte grid point plus the last 8 byte-boundaries.
	lens := []int{0, 1, 7, 8, len(raw) - 1}
	for l := 0; l < len(raw); l += 64 {
		lens = append(lens, l)
	}
	for l := len(raw) - 8; l < len(raw); l++ {
		lens = append(lens, l)
	}
	for _, l := range lens {
		if l < 0 || l >= len(raw) {
			continue
		}
		// Cutting only into the final section's alignment padding (< 8
		// bytes) leaves every section in bounds and is legitimately
		// loadable; anything deeper must fail.
		if _, err := LoadSnapshotV2(raw[:l], DefaultConfig()); err == nil && len(raw)-l >= 8 {
			t.Fatalf("truncation to %d/%d bytes loaded successfully", l, len(raw))
		}
	}

	// A snapshot written under one config must refuse to load under another.
	other := DefaultConfig()
	other.Depen.DepThreshold *= 2
	if _, err := LoadSnapshotV2(raw, other); err == nil ||
		!strings.Contains(err.Error(), "was built with") {
		t.Fatalf("config mismatch error = %v, want fingerprint rejection", err)
	}

	for name, mut := range corruptions(t, s, raw) {
		for via, load := range loaders {
			if _, err := load(mut, DefaultConfig()); !errors.Is(err, snapio.ErrCorrupt) && !errors.Is(err, snapio.ErrTruncated) {
				t.Fatalf("%s, %s: err = %v, want ErrCorrupt or ErrTruncated", name, via, err)
			}
		}
	}

	nS := s.Dataset().Compiled().NumSources()
	forged := make([]float64, nS*nS)
	for i := range forged {
		forged[i] = 0.5
	}
	withForged := withSection(t, raw, secMeta+1, func([]byte) []byte { return snapio.F64Bytes(forged) })
	for via, load := range loaders {
		got, err := load(withForged, DefaultConfig())
		if err != nil {
			t.Fatalf("forged total, %s: %v", via, err)
		}
		if err := denseDiff(got, s); err != nil {
			t.Fatalf("forged total, %s: %v", via, err)
		}
		got.Close()
	}
}

// TestSnapshotRetiredFormatsFail: a file in the retired decode-everything
// stream (magic SCDSSESS) and a container of the retired version 1 fail
// every way in — the reader, the file mapping, the byte loader and the
// registry's header check — with ErrBadMagic and ErrBadVersion, and name the
// command that writes the one format. A missing file and one too short for a
// header fail too.
func TestSnapshotRetiredFormatsFail(t *testing.T) {
	var stream bytes.Buffer
	var w snapio.Writer
	w.U32(0)
	if err := w.Frame(&stream, "SCDSSESS", 2); err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	var sw snapio.SectionWriter
	if err := sw.WriteTo(&v1, SnapshotMagic, 1); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		raw  []byte
		want error
	}{
		{"retired stream", stream.Bytes(), snapio.ErrBadMagic},
		{"container version 1", v1.Bytes(), snapio.ErrBadVersion},
	} {
		path := snapshotFile(t, tc.raw)
		for via, err := range map[string]error{
			"LoadSnapshot":      func() error { _, err := LoadSnapshot(bytes.NewReader(tc.raw), DefaultConfig()); return err }(),
			"LoadSnapshotV2":    func() error { _, err := LoadSnapshotV2(tc.raw, DefaultConfig()); return err }(),
			"LoadSnapshotFile":  func() error { _, err := LoadSnapshotFile(path, DefaultConfig()); return err }(),
			"CheckSnapshotFile": CheckSnapshotFile(path),
		} {
			if !errors.Is(err, tc.want) || !strings.Contains(fmt.Sprint(err), "currents snapshot") {
				t.Errorf("%s, %s: err = %v, want %v naming `currents snapshot`", tc.name, via, err, tc.want)
			}
		}
	}

	dir := t.TempDir()
	if _, err := LoadSnapshotFile(filepath.Join(dir, "absent"), DefaultConfig()); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
	short := filepath.Join(dir, "short")
	if err := os.WriteFile(short, []byte("SC"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotFile(short, DefaultConfig()); !errors.Is(err, snapio.ErrTruncated) {
		t.Fatalf("short file error = %v, want ErrTruncated", err)
	}
	if err := CheckSnapshotFile(short); !errors.Is(err, snapio.ErrTruncated) {
		t.Fatalf("short file header check = %v, want ErrTruncated", err)
	}
}

// TestSnapshotV2EquivalentToV1 pins the cross-path contract: a session read
// into memory (LoadSnapshot) and one mapped from a file answer every query
// bit-identically to each other and to the original — before any
// materialization, straight off the snapshot's tables.
func TestSnapshotV2EquivalentToV1(t *testing.T) {
	d := servingWorld(t, 17)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, s)
	read, err := LoadSnapshot(bytes.NewReader(raw), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mapped := loadFile(t, raw, DefaultConfig())
	if mapped.MappedBytes() != int64(len(raw)) {
		t.Fatalf("the file load maps %d bytes, the file has %d", mapped.MappedBytes(), len(raw))
	}

	for name, ses := range map[string]*Session{"read": read, "mapped": mapped} {
		if err := denseDiff(ses, s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ses.DatasetEpoch() != s.DatasetEpoch() {
			t.Fatalf("%s: epoch %d vs %d", name, ses.DatasetEpoch(), s.DatasetEpoch())
		}
		for _, q := range queries(d) {
			want, err := servedTrace(s, q)
			if err != nil {
				t.Fatal(err)
			}
			have, err := servedTrace(ses, q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(have, want) {
				t.Fatalf("%s: AnswerObjects differs from the original", name)
			}
		}
		if ses.d != nil {
			t.Fatalf("%s: answering materialized the dataset", name)
		}
	}
}

// TestSnapshotV2MaterializeGolden forces materialization of a mapped session
// and checks it is deep-equal to the session it was taken of: discovery
// result, dataset claims, fusion, recommendations — and that it re-encodes
// to byte-identical snapshot bytes (canonical).
func TestSnapshotV2MaterializeGolden(t *testing.T) {
	d := servingWorld(t, 23)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, s)
	mapped := loadFile(t, raw, DefaultConfig())

	if err := viewDiff(mapped.Dependence(), s.Dependence()); err != nil {
		t.Fatalf("depen.Result differs after materialization: %v", err)
	}
	if !reflect.DeepEqual(mapped.Dataset().Claims(), s.Dataset().Claims()) {
		t.Fatal("dataset claims differ after materialization")
	}
	if !reflect.DeepEqual(mapped.Accuracy(), s.Accuracy()) {
		t.Fatal("accuracy map differs after materialization")
	}
	if !reflect.DeepEqual(mapped.st, s.st) {
		t.Fatal("materialized state differs from the solved one")
	}

	wantFuse, err := s.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	haveFuse, err := mapped.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(haveFuse.Chosen, wantFuse.Chosen) ||
		!reflect.DeepEqual(haveFuse.Relation, wantFuse.Relation) {
		t.Fatal("Fuse differs after materialization")
	}
	wantTop, err := s.RecommendSources(recommend.DefaultWeights(), 5)
	if err != nil {
		t.Fatal(err)
	}
	haveTop, err := mapped.RecommendSources(recommend.DefaultWeights(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(haveTop, wantTop) {
		t.Fatal("RecommendSources differs after materialization")
	}

	if !bytes.Equal(snapshotBytes(t, mapped), raw) {
		t.Fatal("re-encode of a mapped session is not byte-identical")
	}
}

// TestSnapshotV2AppendMatchesV1 pins that live ingest works identically on
// both load paths: appending the same batch to a session read into memory
// and to a mapped one yields the successor the original appends to.
func TestSnapshotV2AppendMatchesV1(t *testing.T) {
	d := servingWorld(t, 31)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	batch := servingWorld(t, 99).Claims()[:25]
	raw := snapshotBytes(t, s)
	read, err := LoadSnapshot(bytes.NewReader(raw), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mapped := loadFile(t, raw, DefaultConfig())

	want, err := s.Append(batch)
	if err != nil {
		t.Fatal(err)
	}
	for name, ses := range map[string]*Session{"read": read, "mapped": mapped} {
		next, err := ses.Append(batch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(next.Dependence(), want.Dependence()) {
			t.Fatalf("%s: appended discovery state differs", name)
		}
		assertSessionsEqual(t, next, want)
	}
}

// TestSnapshotV2MaterializeSurvivesClose pins the lifetime contract: state
// materialized from a mapped snapshot is fully copied onto the heap, so
// after Close (mapping gone) the dataset, discovery result and fusion keep
// working. Only the serving tables die with the mapping.
func TestSnapshotV2MaterializeSurvivesClose(t *testing.T) {
	d := servingWorld(t, 53)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadSnapshotFile(snapshotFile(t, snapshotBytes(t, s)), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Dependence() == nil { // forces materialization
		t.Fatal("materialization failed")
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatal("second Close not idempotent:", err)
	}
	if err := viewDiff(mapped.Dependence(), s.Dependence()); err != nil {
		t.Fatalf("discovery state did not survive Close: %v", err)
	}
	if !reflect.DeepEqual(mapped.Dataset().Claims(), s.Dataset().Claims()) {
		t.Fatal("dataset did not survive Close")
	}
	if _, err := mapped.Fuse(); err != nil {
		t.Fatal("Fuse after Close:", err)
	}
	if _, _, _, ok := mapped.PairProbs(d.Sources()[0], d.Sources()[1]); !ok {
		t.Fatal("PairProbs after Close failed")
	}
}

// TestSnapshotTimedClaimsRoundTrip: claims with times and probabilities other
// than 1 bring the time and probability columns into the file, and read back
// to the same claims; a world without either writes neither column.
func TestSnapshotTimedClaimsRoundTrip(t *testing.T) {
	d := dataset.New()
	for i, c := range dataset.Table3().Claims() {
		c.Prob = []float64{1, 0.5, 0.25}[i%3]
		if i%4 == 0 {
			c.HasTime, c.Time = false, 0
		}
		if err := d.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	d.Freeze()
	for name, world := range map[string]*dataset.Dataset{"timed": d, "plain": dataset.Table1()} {
		s, err := New(world, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		raw := snapshotBytes(t, s)
		m, err := snapio.OpenMappedBytes(raw, SnapshotMagic, SnapshotVersion)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []uint32{dataset.SecLogTime, dataset.SecLogTimed, dataset.SecLogProb} {
			if _, ok := m.Section(id); ok != (name == "timed") {
				t.Fatalf("%s: section %d present = %v", name, id, ok)
			}
		}
		got := loadFile(t, raw, DefaultConfig())
		if !reflect.DeepEqual(got.Dataset().Claims(), world.Claims()) {
			t.Fatalf("%s: claims differ after the round trip", name)
		}
		if err := viewDiff(got.Dependence(), s.Dependence()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestSnapshotLoadBeatsBuild pins what the cold-start win consists of: a
// load runs no discovery and builds neither the dataset nor the Result view
// — it casts the snapshot's tables and derives the totals table — and so
// allocates under a twentieth of the bytes a build from raw claims does when
// mapped, under a tenth when read into memory (which holds the file). (How
// much faster that makes it is BenchmarkSnapshotLoad against
// BenchmarkSessionBuild; a wall-clock ratio is not something a loaded box,
// or -race, lets a test assert.)
func TestSnapshotLoadBeatsBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("large scale skipped in short mode")
	}
	// The tiny servingWorld has almost no precompute to skip; the cold-start
	// claim is about serving scale, so measure at the acceptance bar's 500
	// sources (the benchmark world's shape: 500 independents + 50 copiers,
	// 30 objects), where the O(S²·rounds) pairwise scoring dominates
	// construction.
	accs := make([]float64, 500)
	for i := range accs {
		accs[i] = 0.55 + 0.4*float64(i%9)/8
	}
	copiers := make([]synth.CopierSpec, 50)
	for i := range copiers {
		copiers[i] = synth.CopierSpec{MasterIndex: i, CopyRate: 0.8, OwnAcc: 0.6}
	}
	sw, err := synth.GenerateSnapshot(synth.SnapshotConfig{
		Seed:           37,
		NObjects:       30,
		IndependentAcc: accs,
		Copiers:        copiers,
		FalsePool:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := sw.Dataset
	cfg := DefaultConfig()
	s, err := New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, s)
	path := snapshotFile(t, raw)

	allocated := func(run func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// The build re-ingests raw claims, as a server without a snapshot would.
	build := allocated(func() {
		fresh, err := dataset.FromClaims(d.Claims())
		if err != nil {
			t.Fatal(err)
		}
		if built, err := New(fresh, cfg); err != nil {
			t.Fatal(err)
		} else if built.st == nil {
			t.Fatal("a built session carries no solved state")
		}
	})
	for _, path := range []struct {
		name  string
		under uint64 // the load allocates under build/under bytes
		load  func() (*Session, error)
	}{
		{"mapped", 20, func() (*Session, error) { return LoadSnapshotFile(path, cfg) }},
		{"read", 10, func() (*Session, error) { return LoadSnapshot(bytes.NewReader(raw), cfg) }},
	} {
		var loaded *Session
		load := allocated(func() {
			if loaded, err = path.load(); err != nil {
				t.Fatal(err)
			}
		})
		if loaded.d != nil || loaded.dep != nil {
			t.Fatalf("%s: the load built the dataset or the view", path.name)
		}
		if load*path.under > build {
			t.Fatalf("%s: the load allocated %d bytes, NewSession %d: not under 1/%d", path.name, load, build, path.under)
		}
		t.Logf("%s: build %d bytes, load %d bytes (%.1fx)", path.name, build, load, float64(build)/float64(load))
		loaded.Close()
	}
}

// TestSnapshotBytesPerClaim gates the file's size on the bench worlds'
// shapes, generated as bench/worlds.go generates them (seed 1) — wide 550×30,
// mid 110×400, tall 22×10 000, and mid after 60 source-major appends (two
// sources re-asserting 110 objects each): no larger, per claim, than the
// retired decode-everything stream measured on them (693.2, 45.7, 38.9 and
// 43.3 bytes).
func TestSnapshotBytesPerClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale worlds skipped in short mode")
	}
	for _, tc := range []struct {
		name             string
		sources, objects int
		appends          int
		ceiling          float64
	}{
		{"wide", 500, 30, 0, 693.2},
		{"mid", 100, 400, 0, 45.7},
		{"tall", 20, 10_000, 0, 38.9},
		{"mid+appends", 100, 400, 60, 43.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(benchShape(t, tc.sources, tc.objects), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			for b := 0; b < tc.appends; b++ {
				d := s.Dataset()
				srcs, objs := d.Sources(), d.Objects()
				var batch []model.Claim
				for _, si := range rng.Perm(len(srcs))[:2] {
					for _, oi := range rng.Perm(len(objs))[:110] {
						v, _ := d.Value(srcs[rng.Intn(len(srcs))], objs[oi])
						batch = append(batch, model.NewClaim(srcs[si], objs[oi], v))
					}
				}
				if s, err = s.Append(batch); err != nil {
					t.Fatal(err)
				}
			}
			n := s.Dataset().Len()
			perClaim := float64(len(snapshotBytes(t, s))) / float64(n)
			t.Logf("%d claims, %.1f B/claim (ceiling %.1f)", n, perClaim, tc.ceiling)
			if perClaim > tc.ceiling {
				t.Fatalf("%.1f B/claim, above the ceiling of %.1f", perClaim, tc.ceiling)
			}
		})
	}
}

// benchShape is a world of bench/worlds.go's shape: indep independent
// sources plus a tenth as many copiers, every one claiming every object.
func benchShape(t testing.TB, indep, objects int) *dataset.Dataset {
	t.Helper()
	cfg := synth.SnapshotConfig{Seed: 1, NObjects: objects, FalsePool: 20}
	for i := 0; i < indep; i++ {
		cfg.IndependentAcc = append(cfg.IndependentAcc, 0.55+0.04*float64((i*7)%10))
	}
	for i := 0; i < indep/10; i++ {
		cfg.Copiers = append(cfg.Copiers, synth.CopierSpec{MasterIndex: i, CopyRate: 0.8, OwnAcc: 0.7})
	}
	sw, err := synth.GenerateSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sw.Dataset
}

// fuzzSeeds are the checked-in seeds of FuzzLoadSnapshot, snapshots of
// Table 1's session damaged where the load must catch it. TestFuzzSeedsInSync
// keeps testdata/fuzz in the current layout.
func fuzzSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	s, err := New(dataset.Table1(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, s)
	all := corruptions(t, s, raw)
	return map[string][]byte{
		"pair-reversed":          all["pair named in reverse"],
		"pair-repeated":          all["pair given twice"],
		"log-id-out-of-range":    all["log value id out of range"],
		"pair-section-truncated": all["pair section truncated"],
	}
}

// TestFuzzSeedsInSync holds the checked-in fuzz seeds to fuzzSeeds; run with
// REGEN_FUZZ_SEEDS=1 to rewrite them after a deliberate format change.
func TestFuzzSeedsInSync(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzLoadSnapshot")
	for name, seed := range fuzzSeeds(t) {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		path := filepath.Join(dir, name)
		if os.Getenv("REGEN_FUZZ_SEEDS") == "1" {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("%s is not the current seed; rerun with REGEN_FUZZ_SEEDS=1", path)
		}
		if _, err := LoadSnapshotV2(seed, DefaultConfig()); !errors.Is(err, snapio.ErrCorrupt) && !errors.Is(err, snapio.ErrTruncated) {
			t.Fatalf("seed %s loads with %v, want ErrCorrupt or ErrTruncated", name, err)
		}
	}
}

// FuzzLoadSnapshot drives both loaders — the reader and the in-memory
// container — with arbitrary bytes: clean error or working session, never a
// panic, and both agree on which. Successful loads answer a query and
// materialize.
func FuzzLoadSnapshot(f *testing.F) {
	d := servingWorld(f, 41)
	s, err := New(d, DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	raw := snapshotBytes(f, s)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte{})
	f.Add([]byte(SnapshotMagic))
	mut := append([]byte(nil), raw...)
	mut[len(mut)/2] ^= 0xFF
	f.Add(mut)
	f.Add(raw[:32])
	f.Fuzz(func(t *testing.T, data []byte) {
		read, err := LoadSnapshot(bytes.NewReader(data), DefaultConfig())
		if err == nil && read == nil {
			t.Fatal("nil session without error")
		}
		got, err2 := LoadSnapshotV2(data, DefaultConfig())
		if (err == nil) != (err2 == nil) {
			t.Fatalf("the reader says %v, the byte loader %v", err, err2)
		}
		if err2 != nil {
			return
		}
		defer got.Close()
		if _, err := got.AnswerObjects(d.Objects()[:1]); err != nil {
			_ = err // some mutations legitimately fail per-query
		}
		_ = got.Dependence()
	})
}

// FuzzLoadSnapshotV2 drives the file loader — the mapped path a server boots
// from — with the same bytes the in-memory container loader sees: clean error
// or working session, never a panic, and both agree on which. The checked-in
// corpus lives with FuzzLoadSnapshot; this target keeps the file path under
// the fuzzer.
func FuzzLoadSnapshotV2(f *testing.F) {
	d := servingWorld(f, 41)
	s, err := New(d, DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	raw := snapshotBytes(f, s)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:32])
	flip := append([]byte(nil), raw...)
	flip[len(flip)/2] ^= 0xff
	f.Add(flip)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "s.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, err := LoadSnapshotFile(path, DefaultConfig())
		inMem, err2 := LoadSnapshotV2(data, DefaultConfig())
		if (err == nil) != (err2 == nil) {
			t.Fatalf("the file loader says %v, the byte loader %v", err, err2)
		}
		if err != nil {
			return
		}
		defer mapped.Close()
		defer inMem.Close()
		if _, err := mapped.AnswerObjects(d.Objects()[:1]); err != nil {
			_ = err // some mutations legitimately fail per-query
		}
		_ = mapped.Dependence()
	})
}

// TestResultFromPartsMatchesDetect double-checks the state a snapshot loads
// to against a live session's, independent of the container: the session's
// accuracy and posterior vectors and its stored pair records, handed to
// depen.StateFromParts, give back its state — totals table included — and so
// its view. The Known labels, which no value group holds, are not among the
// parts; the view derives them from the config.
func TestResultFromPartsMatchesDetect(t *testing.T) {
	d := servingWorld(t, 43)
	objs := d.Objects()
	foreign := d.ValuesFor(objs[2])[0].Value
	for _, g := range d.ValuesFor(objs[1]) {
		if g.Value == foreign {
			t.Fatalf("%q is a value of %v too", foreign, objs[1])
		}
	}
	known := DefaultConfig()
	known.Depen.Truth.Known = map[model.ObjectID]string{objs[0]: "value-nobody-asserts", objs[1]: foreign}
	for name, cfg := range map[string]Config{"plain": DefaultConfig(), "known": known} {
		s, err := New(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dep := s.Dependence()
		st, err := depen.StateFromParts(d.Compiled(), slices.Clone(s.st.Accuracy()), slices.Clone(s.st.Posteriors()),
			bytes.Clone(s.st.PairBytes()), dep.Rounds, dep.Converged)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(st, s.st) {
			t.Fatalf("%s: the assembled state differs from the solved one", name)
		}
		if err := viewDiff(st.Result(cfg.Depen), dep); err != nil {
			t.Fatalf("%s: the assembled state's view differs: %v", name, err)
		}
	}
}
