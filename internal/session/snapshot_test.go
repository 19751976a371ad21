package session

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

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

// loadFile loads raw through a file, as a server boots.
func loadFile(t testing.TB, raw []byte, cfg Config) *Session {
	t.Helper()
	s, err := loadFileErr(t, raw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// loadFileErr is loadFile returning the load's error.
func loadFileErr(t testing.TB, raw []byte, cfg Config) (*Session, error) {
	t.Helper()
	return LoadSnapshotFile(snapshotFile(t, raw), cfg)
}

// loadBytes loads raw through the reader.
func loadBytes(raw []byte, cfg Config) (*Session, error) {
	return LoadSnapshot(bytes.NewReader(raw), cfg)
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
	// Fusion reads the labels the state was solved under (cfg.Depen), not
	// the fusion template's, which has none.
	for name, ses := range map[string]*Session{"built": s, "loaded": got} {
		fused, err := ses.Fuse()
		if err != nil {
			t.Fatal(err)
		}
		if fused.Chosen[obj] != "value-nobody-asserts" {
			t.Fatalf("%s: Fuse chose %q, not the Known value", name, fused.Chosen[obj])
		}
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
// lays them out, and the writer seals the container over the edit, so an edit
// that changes nothing gives raw back, and damage to a section reaches the
// check behind the seal.
func withSection(t testing.TB, raw []byte, id uint32, edit func([]byte) []byte) []byte {
	t.Helper()
	m, err := snapio.OpenContainer(raw, SnapshotMagic, SnapshotVersion)
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

// staleSection returns a copy of raw with section id edited in place and the
// container's seal left as it was written.
func staleSection(t testing.TB, raw []byte, id uint32, edit func([]byte)) []byte {
	t.Helper()
	out := bytes.Clone(raw)
	m, err := snapio.OpenContainer(out, SnapshotMagic, SnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := m.Section(id)
	if !ok {
		t.Fatalf("no section %d", id)
	}
	edit(b)
	return out
}

// pairRecBytes is the size of one stored pair record: sources a and b, then
// shared and same, as int32s, then five float64s.
const pairRecBytes = 56

// corruption is a damaged snapshot and words of the message of the check
// that must reject it.
type corruption struct {
	raw  []byte
	want string
}

// corruptions lists damage to the state and log sections of raw, a snapshot
// of s, that no writer produces. Each must fail the load itself, classified.
// The container is re-sealed over each edit, so it reaches the validator its
// name gives, except for the one case left stale.
func corruptions(t testing.TB, s *Session, raw []byte) map[string]corruption {
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
	return map[string]corruption{
		"pair named in reverse": {pairs(func(p []byte) {
			a, b := i32.Uint32(p), i32.Uint32(p[4:])
			i32.PutUint32(p, b)
			i32.PutUint32(p[4:], a)
		}), "pair 0 names sources"},
		"pair of a source with itself": {pairs(func(p []byte) { i32.PutUint32(p[4:], i32.Uint32(p)) }), "pair 0 names sources"},
		"pair given twice":             {pairs(func(p []byte) { copy(p[pairRecBytes:], p[:pairRecBytes]) }), "out of order or given twice"},
		"pairs out of order": {pairs(func(p []byte) {
			first := bytes.Clone(p[:pairRecBytes])
			copy(p, last(p))
			copy(last(p), first)
		}), "out of order or given twice"},
		"pair source out of range": {pairs(func(p []byte) { i32.PutUint32(last(p)[4:], uint32(c.NumSources())) }), "names sources"},
		"pair section truncated":   {withSection(t, raw, secPairRec, shorten(8)), "not a whole number"},
		"pair section missing":     {withSection(t, raw, secPairRec, drop), "pair section missing"},
		"posteriors one short":     {withSection(t, raw, secPost, shorten(8)), "posteriors for"},
		"accuracies one short":     {withSection(t, raw, secAcc, shorten(8)), "posteriors for"},
		"meta section missing":     {withSection(t, raw, secMeta, drop), "meta section missing"},
		"log value id out of range": {withSection(t, raw, dataset.SecLogVal, func(b []byte) []byte {
			i32.PutUint32(b, uint32(c.NumValues()))
			return b
		}), fmt.Sprintf("log values[0] = %d out of range", c.NumValues())},
		"log columns of two lengths": {withSection(t, raw, dataset.SecLogObj, shorten(4)), "claim log columns sized"},
		"log bounds out of order": {withSection(t, raw, dataset.SecLogBounds, func([]byte) []byte {
			return snapio.I32Bytes([]int32{5, 3})
		}), "log bound 3 out of order"},
		"HasTime column without times": {withSection(t, raw, dataset.SecLogTimed, func([]byte) []byte {
			return make([]byte, s.Dataset().Len())
		}), fmt.Sprintf("section %d missing", dataset.SecLogTime)},
		"log flipped under a stale seal": {staleSection(t, raw, dataset.SecLogSrc, func(b []byte) { b[0] ^= 1 }), "checksum"},
	}
}

// wantRejected fails t unless err is ErrCorrupt or ErrTruncated and names
// c.want.
func (c corruption) wantRejected(t testing.TB, name string, err error) {
	t.Helper()
	if !errors.Is(err, snapio.ErrCorrupt) && !errors.Is(err, snapio.ErrTruncated) || !strings.Contains(fmt.Sprint(err), c.want) {
		t.Fatalf("%s: err = %v, want ErrCorrupt or ErrTruncated naming %q", name, err, c.want)
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
		// A container of a dataset's sections alone is not a session snapshot.
		var sw snapio.SectionWriter
		if err := d.AppendSections(&sw); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sw.WriteTo(&buf, "SCDSTEST", SnapshotVersion); err != nil {
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
		// The container ends at its last section's last byte: every cut
		// fails.
		for cut := 0; cut < len(raw); cut += step {
			if _, err := LoadSnapshot(bytes.NewReader(raw[:cut]), DefaultConfig()); err == nil {
				t.Fatalf("cut at %d of %d bytes decoded successfully", cut, len(raw))
			}
		}
		if _, err := LoadSnapshot(bytes.NewReader(raw[:len(raw)-1]), DefaultConfig()); !errors.Is(err, snapio.ErrTruncated) {
			t.Fatalf("one byte short: err = %v, want ErrTruncated", err)
		}
	})
	t.Run("payload bit flips", func(t *testing.T) {
		// The header CRC covers the header and the seal every section: a
		// flip anywhere fails the load classified.
		classes := []error{snapio.ErrCorrupt, snapio.ErrTruncated, snapio.ErrChecksum, snapio.ErrBadMagic, snapio.ErrBadVersion}
		for off := 0; off < len(raw); off += 97 {
			mut := append([]byte(nil), raw...)
			mut[off] ^= 0x20
			_, err := LoadSnapshot(bytes.NewReader(mut), DefaultConfig())
			if err == nil || !slices.ContainsFunc(classes, func(c error) bool { return errors.Is(err, c) }) {
				t.Fatalf("bit flip at %d: err = %v, want a classified error", off, err)
			}
		}
	})
	t.Run("records no solve writes", func(t *testing.T) {
		for name, c := range corruptions(t, s, raw) {
			_, err := LoadSnapshot(bytes.NewReader(c.raw), DefaultConfig())
			c.wantRejected(t, name, err)
		}
	})
	t.Run("log that does not index to its tables", func(t *testing.T) {
		// Two claims' value ids swapped after the file was written: every id
		// is in range, but the log is not the one the container was sealed
		// over, so neither loader opens it.
		mut := swappedLogValues(t, raw)
		if _, err := LoadSnapshot(bytes.NewReader(mut), DefaultConfig()); !errors.Is(err, snapio.ErrCorrupt) {
			t.Fatalf("LoadSnapshot: err = %v, want ErrCorrupt", err)
		}
		if _, err := loadFileErr(t, mut, DefaultConfig()); !errors.Is(err, snapio.ErrCorrupt) {
			t.Fatalf("LoadSnapshotFile: err = %v, want ErrCorrupt", err)
		}
	})
}

// swappedLogValues returns raw with the value ids of its first claim and of
// the first claim naming another value swapped, under the seal written for
// the log as it was.
func swappedLogValues(t testing.TB, raw []byte) []byte {
	t.Helper()
	return staleSection(t, raw, dataset.SecLogVal, func(b []byte) {
		i32 := binary.NativeEndian
		first := i32.Uint32(b)
		for k := 4; k < len(b); k += 4 {
			if v := i32.Uint32(b[k:]); v != first {
				i32.PutUint32(b, v)
				i32.PutUint32(b[k:], first)
				return
			}
		}
		t.Fatal("every claim names one value")
	})
}

// TestSnapshotV2Corruption walks structured damage over a real container
// through both loaders, the file and the reader: truncation
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
		"reader": loadBytes,
		"file": func(b []byte, cfg Config) (*Session, error) {
			return LoadSnapshotFile(snapshotFile(t, b), cfg)
		},
	}

	// Truncations: every 64-byte grid point plus the last 8 byte-boundaries;
	// the container ends at its last section's last byte, so each must fail.
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
		if _, err := loadBytes(raw[:l], DefaultConfig()); err == nil {
			t.Fatalf("truncation to %d/%d bytes loaded successfully", l, len(raw))
		}
	}

	// A snapshot written under one config must refuse to load under another.
	other := DefaultConfig()
	other.Depen.DepThreshold *= 2
	if _, err := loadBytes(raw, other); err == nil ||
		!strings.Contains(err.Error(), "was built with") {
		t.Fatalf("config mismatch error = %v, want fingerprint rejection", err)
	}

	for name, c := range corruptions(t, s, raw) {
		for via, load := range loaders {
			_, err := load(c.raw, DefaultConfig())
			c.wantRejected(t, name+", "+via, err)
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
	}
}

// TestSnapshotRetiredFormatsFail: a file in the retired decode-everything
// stream (magic SCDSSESS) and a container of the retired versions 1 to 3
// (version 2 stored the dataset's layout tables beside its log, version 3
// sealed only the dataset's sections) fail both ways in — the reader and the
// file — with ErrBadMagic and ErrBadVersion, and name the command that writes
// the one format. A missing file and one too short for a header fail too.
func TestSnapshotRetiredFormatsFail(t *testing.T) {
	// The retired stream, laid out by hand: magic, version 2, the payload's
	// length, a 4-byte zero payload and its IEEE CRC.
	stream := []byte("SCDSSESS\x02\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x1c\xdf\x44\x21")
	type retired struct {
		name string
		raw  []byte
		want error
	}
	tcs := []retired{{"retired stream", stream, snapio.ErrBadMagic}}
	for v := uint32(1); v < SnapshotVersion; v++ {
		var buf bytes.Buffer
		var sw snapio.SectionWriter
		if err := sw.WriteTo(&buf, SnapshotMagic, v); err != nil {
			t.Fatal(err)
		}
		tcs = append(tcs, retired{fmt.Sprintf("container version %d", v), buf.Bytes(), snapio.ErrBadVersion})
	}
	for _, tc := range tcs {
		path := snapshotFile(t, tc.raw)
		for via, err := range map[string]error{
			"LoadSnapshot":     func() error { _, err := LoadSnapshot(bytes.NewReader(tc.raw), DefaultConfig()); return err }(),
			"LoadSnapshotFile": func() error { _, err := LoadSnapshotFile(path, DefaultConfig()); return err }(),
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
}

// TestSnapshotV2EquivalentToV1 pins the cross-path contract: a session read
// from a stream (LoadSnapshot) and one read from a file answer every query
// bit-identically to each other and to the original, and both loads built
// the dataset.
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
	file := loadFile(t, raw, DefaultConfig())

	for name, ses := range map[string]*Session{"read": read, "file": file} {
		if ses.d == nil || ses.d.Len() != d.Len() {
			t.Fatalf("%s: the load did not build the dataset", name)
		}
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
	}
}

// TestSnapshotV2MaterializeGolden checks a file-loaded session is deep-equal
// to the session it was taken of: discovery result, dataset claims, state,
// fusion, recommendations — and that it re-encodes to byte-identical
// snapshot bytes (canonical).
func TestSnapshotV2MaterializeGolden(t *testing.T) {
	d := servingWorld(t, 23)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, s)
	loaded := loadFile(t, raw, DefaultConfig())

	if err := viewDiff(loaded.Dependence(), s.Dependence()); err != nil {
		t.Fatalf("depen.Result differs after the load: %v", err)
	}
	if !reflect.DeepEqual(loaded.Dataset().Claims(), s.Dataset().Claims()) {
		t.Fatal("dataset claims differ after the load")
	}
	if !reflect.DeepEqual(loaded.Accuracy(), s.Accuracy()) {
		t.Fatal("accuracy map differs after the load")
	}
	if !reflect.DeepEqual(loaded.st, s.st) {
		t.Fatal("the loaded state differs from the solved one")
	}

	wantFuse, err := s.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	haveFuse, err := loaded.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(haveFuse.Chosen, wantFuse.Chosen) ||
		!reflect.DeepEqual(haveFuse.Relation, wantFuse.Relation) {
		t.Fatal("Fuse differs after the load")
	}
	wantTop, err := s.RecommendSources(recommend.DefaultWeights(), 5)
	if err != nil {
		t.Fatal(err)
	}
	haveTop, err := loaded.RecommendSources(recommend.DefaultWeights(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(haveTop, wantTop) {
		t.Fatal("RecommendSources differs after the load")
	}

	if !bytes.Equal(snapshotBytes(t, loaded), raw) {
		t.Fatal("re-encode of a file-loaded session is not byte-identical")
	}
}

// TestSnapshotV2AppendMatchesV1 pins that live ingest works identically on
// both load paths: appending the same batch to a session read from a stream
// and to one read from a file yields the successor the original appends to.
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
	file := loadFile(t, raw, DefaultConfig())

	want, err := s.Append(batch)
	if err != nil {
		t.Fatal(err)
	}
	for name, ses := range map[string]*Session{"read": read, "file": file} {
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

// TestOpenMatchesBuild pins that a build and an open are the same
// structure: on seeded worlds with timed claims and claims of Prob < 1,
// advanced through a chain of appends (one of which adds a source that sorts
// first, shifting every source index), the session a snapshot opens to is the
// built session it was written from — every field of its compiled index,
// index maps included, its claims, its epoch bounds, and its state to the
// bit — at every epoch, through both loaders. A container whose source table
// has two entries swapped, its offsets still valid, does not open.
func TestOpenMatchesBuild(t *testing.T) {
	cfg := DefaultConfig()
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// timed gives about a third of the claims a time and a quarter a
		// probability under 1.
		timed := func(claims []model.Claim) []model.Claim {
			out := slices.Clone(claims)
			for i := range out {
				if rng.Intn(3) == 0 {
					out[i].HasTime, out[i].Time = true, model.Time(rng.Intn(50)-10)
				}
				if rng.Intn(4) == 0 {
					out[i].Prob = []float64{0.25, 0.5, 0.75}[rng.Intn(3)]
				}
			}
			return out
		}
		d, err := dataset.FromClaims(timed(servingWorld(t, 100+seed).Claims()))
		if err != nil {
			t.Fatal(err)
		}
		built, err := New(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for e, mk := range append([]func(*dataset.Dataset) []model.Claim{nil}, growthBatches(rng)...) {
			if mk != nil {
				if built, err = built.Append(timed(mk(built.Dataset()))); err != nil {
					t.Fatal(err)
				}
			}
			raw := snapshotBytes(t, built)
			read, err := loadBytes(raw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, opened := range map[string]*Session{"read": read, "file": loadFile(t, raw, cfg)} {
				at := fmt.Sprintf("seed %d, epoch %d, %s", seed, e, name)
				if !reflect.DeepEqual(opened.d.Compiled(), built.d.Compiled()) {
					t.Fatalf("%s: the opened index differs from the built one", at)
				}
				if !reflect.DeepEqual(opened.d.Claims(), built.d.Claims()) {
					t.Fatalf("%s: the claims differ", at)
				}
				if !reflect.DeepEqual(opened.d.LogBounds(), built.d.LogBounds()) {
					t.Fatalf("%s: epoch bounds %v, built %v", at, opened.d.LogBounds(), built.d.LogBounds())
				}
				if err := stateBitsDiff(opened.st, built.st); err != nil {
					t.Fatalf("%s: %v", at, err)
				}
			}
		}
		if srcs := built.Dataset().Sources(); srcs[0] != "A-first" {
			t.Fatalf("seed %d: no append added a first-sorting source (first is %q)", seed, srcs[0])
		}
		if !slices.ContainsFunc(built.Dataset().Claims(), func(c model.Claim) bool { return c.HasTime }) ||
			!slices.ContainsFunc(built.Dataset().Claims(), func(c model.Claim) bool { return c.Prob < 1 }) {
			t.Fatalf("seed %d: the world has no timed claim or none of Prob < 1", seed)
		}

		// Sources 1 and 2 trade places in the blob, where the source table
		// comes first, and the offset between them moves with them: every
		// offset is still in order and in range.
		srcs := built.Dataset().Sources()
		lo, a, c := len(srcs[0]), string(srcs[1]), string(srcs[2])
		swapped := withSection(t, snapshotBytes(t, built), dataset.SecSrcOff, func(b []byte) []byte {
			binary.NativeEndian.PutUint32(b[8:], uint32(lo+len(c)))
			return b
		})
		swapped = withSection(t, swapped, dataset.SecStrBlob, func(b []byte) []byte {
			if string(b[lo:lo+len(a)+len(c)]) != a+c {
				t.Fatal("the blob does not open with the source table")
			}
			copy(b[lo:], c+a)
			return b
		})
		if _, err := loadBytes(swapped, cfg); !errors.Is(err, snapio.ErrCorrupt) {
			t.Fatalf("seed %d: two sources swapped: err = %v, want ErrCorrupt", seed, err)
		}
		if _, err := loadFileErr(t, swapped, cfg); !errors.Is(err, snapio.ErrCorrupt) {
			t.Fatalf("seed %d: two sources swapped, file: err = %v, want ErrCorrupt", seed, err)
		}
	}
}

// TestSnapshotV2MaterializeSurvivesClose pins the lifetime contract: a
// file-loaded session holds its own copy of the file's bytes, so once the
// file is removed, and its path rewritten with another world's snapshot,
// every serving call still answers as the session the snapshot was taken
// of — and Close changes nothing.
func TestSnapshotV2MaterializeSurvivesClose(t *testing.T) {
	d := servingWorld(t, 53)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(servingWorld(t, 54), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := snapshotFile(t, snapshotBytes(t, s))
	loaded, err := LoadSnapshotFile(path, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, snapshotBytes(t, other), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries(d) {
		want, err := servedTrace(s, q)
		if err != nil {
			t.Fatal(err)
		}
		have, err := servedTrace(loaded, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(have, want) {
			t.Fatal("an answer changed with the file")
		}
	}
	if !reflect.DeepEqual(loaded.Accuracy(), s.Accuracy()) {
		t.Fatal("accuracies changed with the file")
	}
	if loaded.d == nil || loaded.d.Len() != d.Len() {
		t.Fatal("the load did not build the dataset")
	}
	if err := viewDiff(loaded.Dependence(), s.Dependence()); err != nil {
		t.Fatalf("discovery state changed with the file: %v", err)
	}
	assertSessionsEqual(t, loaded, s)
	if !bytes.Equal(snapshotBytes(t, loaded), snapshotBytes(t, s)) {
		t.Fatal("the session's snapshot changed with the file")
	}
	for _, a := range d.Sources()[:3] {
		for _, b := range d.Sources()[3:6] {
			dep, ab, ba := loaded.PairProbs(a, b)
			wdep, wab, wba := s.PairProbs(a, b)
			if dep != wdep || ab != wab || ba != wba {
				t.Fatalf("PairProbs(%s, %s) changed with the file", a, b)
			}
		}
	}
	top, err := loaded.RecommendSources(recommend.DefaultWeights(), 5)
	if err != nil {
		t.Fatal(err)
	}
	wantTop, err := s.RecommendSources(recommend.DefaultWeights(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(top, wantTop) {
		t.Fatal("recommendations changed with the file")
	}
}

// TestSnapshotContainerNeverWritten is the tripwire a read-only mapping used
// to be: a loaded session's state aliases the buffer it was read into — its
// accuracy and posterior vectors and its pair records, and the dataset its
// claim log's id columns — so a stray write into an aliased section would
// corrupt it silently. The test opens the session over a buffer of its own
// through the opener both loaders share. Every serving call, two appends off
// that state (one adding a source that sorts first, which shifts every source
// index), an as-of rebuild, a snapshot and a delta must leave its bytes as
// they were.
func TestSnapshotContainerNeverWritten(t *testing.T) {
	d := servingWorld(t, 57)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err = s.Append(randomBatch(rand.New(rand.NewSource(57)), d, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.RetainEpochs = -1
	raw := snapshotBytes(t, s)
	words := make([]uint64, (len(raw)+7)/8) // 8-aligned, so the opener does not copy it
	container := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(raw))
	copy(container, raw)
	m, err := snapio.OpenContainer(container, SnapshotMagic, SnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := sessionFromContainer(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc, _ := m.Section(secAcc); &loaded.acc[0] != (*float64)(unsafe.Pointer(&acc[0])) {
		t.Fatal("the loaded state does not alias the buffer")
	}
	want := crc32.ChecksumIEEE(container)
	q := d.Objects()[:8]
	srcs := d.Sources()
	first := model.SourceID("!first")
	if first >= srcs[0] {
		t.Fatalf("%q does not sort before %q", first, srcs[0])
	}
	var next, next2 *Session
	for _, step := range []struct {
		name string
		call func() error
	}{
		{"AnswerObjects", func() error { _, err := loaded.AnswerObjects(q); return err }},
		{"TraceObjects", func() error { _, err := loaded.TraceObjects(q, loaded.QueryConfig()); return err }},
		{"Accuracy", func() error { loaded.Accuracy(); return nil }},
		{"Fuse", func() error { _, err := loaded.Fuse(); return err }},
		{"RecommendSources", func() error {
			_, err := loaded.RecommendSources(recommend.DefaultWeights(), 5)
			return err
		}},
		{"PairProbs", func() error { loaded.PairProbs(srcs[0], srcs[1]); return nil }},
		{"Append", func() (err error) {
			next, err = loaded.Append(randomBatch(rand.New(rand.NewSource(58)), d, 1))
			return err
		}},
		{"Append of a first-sorting source", func() (err error) {
			next2, err = next.Append([]model.Claim{
				model.NewClaim(first, q[0], "T1"),
				model.NewClaim(first, q[1], "T2"),
			})
			return err
		}},
		{"AsOf", func() error {
			for e := 0; e <= next2.DatasetEpoch(); e++ {
				if _, err := next2.AsOf(e); err != nil {
					return err
				}
			}
			_, err := loaded.AsOf(0)
			return err
		}},
		{"WriteSnapshot", func() error { return loaded.WriteSnapshot(io.Discard) }},
		{"WriteDelta", func() error { return next2.WriteDelta(io.Discard, loaded.DatasetEpoch()) }},
	} {
		if err := step.call(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if have := crc32.ChecksumIEEE(container); have != want {
			t.Fatalf("%s wrote into the container: CRC %08x, read as %08x", step.name, have, want)
		}
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
		m, err := snapio.OpenContainer(raw, SnapshotMagic, SnapshotVersion)
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
// load runs no discovery and re-interns no claim — it builds the dataset from
// the stored claim log over the stored interning tables, takes the state's
// vectors and pair records as they lie and derives the totals table — read
// from a file or from a stream (either way the load holds the file). Two checks hold it there: the load's bytes
// stay under a ceiling, its measured 13.25 MB plus a tenth; and a build from
// raw claims allocates at least twice what the load does, which a load that
// solved could not: it would allocate the solve's bytes on top of its own,
// and the solve alone is most of the build's. The build allocated 239 MB,
// and the ratio was held at 10×, until a candidate pair stored only its
// agreeing shared objects (60 MB, 4.5× the load, held at 3×), and then the
// join reserved its arrays exactly: 28.6 MB, 2.2× the load. (How much faster
// that makes it is BenchmarkSnapshotLoad against
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
	const loadCeiling, buildOverLoad = 14.6e6, 2
	for _, path := range []struct {
		name string
		load func() (*Session, error)
	}{
		{"file", func() (*Session, error) { return LoadSnapshotFile(path, cfg) }},
		{"read", func() (*Session, error) { return LoadSnapshot(bytes.NewReader(raw), cfg) }},
	} {
		var loaded *Session
		load := allocated(func() {
			if loaded, err = path.load(); err != nil {
				t.Fatal(err)
			}
		})
		if loaded.d == nil || loaded.d.Len() != d.Len() {
			t.Fatalf("%s: the load did not build the dataset", path.name)
		}
		if load > loadCeiling {
			t.Fatalf("%s: the load allocated %d bytes, ceiling %.0f", path.name, load, loadCeiling)
		}
		if load*buildOverLoad > build {
			t.Fatalf("%s: the load allocated %d bytes, NewSession %d: not under 1/%d", path.name, load, build, buildOverLoad)
		}
		t.Logf("%s: build %d bytes, load %d bytes (%.1fx)", path.name, build, load, float64(build)/float64(load))
	}
}

// TestSnapshotBytesPerClaim gates the file's size on the bench worlds'
// shapes, generated as bench/worlds.go generates them (seed 1) — wide 550×30,
// mid 110×400, tall 22×10 000, and mid after 60 source-major appends (two
// sources re-asserting 110 objects each): no larger, per claim, than the
// file measured on them plus a tenth (525.7, 22.4, 17.8 and 19.9 bytes).
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
		{"wide", 500, 30, 0, 578.3},
		{"mid", 100, 400, 0, 24.6},
		{"tall", 20, 10_000, 0, 19.6},
		{"mid+appends", 100, 400, 60, 21.9},
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
func fuzzSeeds(t testing.TB) map[string]corruption {
	t.Helper()
	s, err := New(dataset.Table1(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, s)
	all := corruptions(t, s, raw)
	return map[string]corruption{
		"pair-reversed":          all["pair named in reverse"],
		"pair-repeated":          all["pair given twice"],
		"log-id-out-of-range":    all["log value id out of range"],
		"pair-section-truncated": all["pair section truncated"],
	}
}

// TestFuzzSeedsInSync holds the checked-in fuzz seeds to fuzzSeeds, each
// failing its load at the check its name gives; run with REGEN_FUZZ_SEEDS=1
// to rewrite them after a deliberate format change.
func TestFuzzSeedsInSync(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzLoadSnapshot")
	for name, seed := range fuzzSeeds(t) {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed.raw)
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
		_, err = loadBytes(seed.raw, DefaultConfig())
		seed.wantRejected(t, "seed "+name, err)
	}
}

// FuzzLoadSnapshot drives the reader with arbitrary bytes, each as given and
// with the container re-sealed over them (snapio.Reseal), so that damage
// reaches the checks behind the seal: a clean error or a working session,
// never a panic. Successful loads answer a query and build
// the discovery view.
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
		resealed := bytes.Clone(data)
		snapio.Reseal(resealed)
		for _, data := range [][]byte{data, resealed} {
			got, err := loadBytes(data, DefaultConfig())
			if err != nil {
				continue
			}
			if got == nil {
				t.Fatal("nil session without error")
			}
			if _, err := got.AnswerObjects(d.Objects()[:1]); err != nil {
				_ = err // some mutations legitimately fail per-query
			}
			_ = got.Dependence()
		}
	})
}

// FuzzLoadSnapshotV2 drives the file loader — the path a server boots from —
// with the bytes the reader sees. The reader stops at the container's end;
// the file loader reads the whole file, which must end there too. So when the
// reader leaves bytes unread the file loader fails, with ErrCorrupt if the
// reader loaded a session; otherwise both fail with the same class of error,
// or both load a session that answers every serving call the same. The
// checked-in corpus lives with FuzzLoadSnapshot; this target keeps the file
// path under the fuzzer.
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
	f.Add(append(bytes.Clone(raw), "fourteen bytes"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "s.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		file, err := LoadSnapshotFile(path, DefaultConfig())
		r := bytes.NewReader(data)
		read, err2 := LoadSnapshot(r, DefaultConfig())
		if r.Len() > 0 {
			if err == nil || (err2 == nil && !errors.Is(err, snapio.ErrCorrupt)) {
				t.Fatalf("the reader stops %d bytes short of the file (err %v); the file loader says %v", r.Len(), err2, err)
			}
			return
		}
		if errClass(err) != errClass(err2) {
			t.Fatalf("the file loader says %v, the reader %v", err, err2)
		}
		if err != nil {
			return
		}
		if have, want := servingCalls(file, d), servingCalls(read, d); have != want {
			t.Fatalf("the file-loaded session serves\n%s\nthe read one\n%s", have, want)
		}
	})
}

// errClass names the snapio class of a load error, "" for none.
func errClass(err error) string {
	if err == nil {
		return ""
	}
	for _, c := range []error{snapio.ErrTruncated, snapio.ErrChecksum, snapio.ErrBadMagic, snapio.ErrBadVersion, snapio.ErrCorrupt} {
		if errors.Is(err, c) {
			return c.Error()
		}
	}
	return "unclassified"
}

// servingCalls renders what every serving call of s returns, errors
// included, queried over d's objects and sources.
func servingCalls(s *Session, d *dataset.Dataset) string {
	var b strings.Builder
	q := d.Objects()[:3]
	res, err := s.AnswerObjects(q)
	fmt.Fprintf(&b, "answer %v %v\n", res, err)
	res, err = s.TraceObjects(q, s.QueryConfig())
	fmt.Fprintf(&b, "trace %v %v\n", res, err)
	fmt.Fprintf(&b, "accuracy %v\n", s.Accuracy())
	fused, err := s.Fuse()
	if err == nil {
		fmt.Fprintf(&b, "fuse %v %v\n", fused.Chosen, fused.Relation)
	} else {
		fmt.Fprintf(&b, "fuse %v\n", err)
	}
	top, err := s.RecommendSources(recommend.DefaultWeights(), 3)
	fmt.Fprintf(&b, "recommend %v %v\n", top, err)
	srcs := d.Sources()
	dep, ab, ba := s.PairProbs(srcs[0], srcs[1])
	fmt.Fprintf(&b, "pair %v %v %v\n", dep, ab, ba)
	var snap bytes.Buffer
	err = s.WriteSnapshot(&snap)
	fmt.Fprintf(&b, "snapshot %08x %v\n", crc32.ChecksumIEEE(snap.Bytes()), err)
	return b.String()
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
