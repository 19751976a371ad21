package session

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sourcecurrents/internal/recommend"
	"sourcecurrents/internal/snapio"
)

func snapshotV2Bytes(t testing.TB, s *Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteSnapshotV2(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotV2EquivalentToV1 pins the cross-format contract: a session
// loaded from the v2 mapped container answers every query bit-identically
// to one loaded from the v1 frame and to the original — before any
// materialization, straight off the mapped tables.
func TestSnapshotV2EquivalentToV1(t *testing.T) {
	d := servingWorld(t, 17)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	v1, err := LoadSnapshot(bytes.NewReader(snapshotBytes(t, s)), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	v2, err := LoadSnapshotV2(snapshotV2Bytes(t, s), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()

	if !reflect.DeepEqual(v2.acc, v1.acc) {
		t.Fatal("dense accuracy vector differs across formats")
	}
	if !snapio.Float64SliceEqualBits(v2.depTab, v1.depTab) {
		t.Fatal("dense dependence table differs across formats")
	}
	if v2.DatasetEpoch() != v1.DatasetEpoch() {
		t.Fatalf("epoch %d vs %d", v2.DatasetEpoch(), v1.DatasetEpoch())
	}
	for _, q := range queries(d) {
		want, err := servedTrace(v1, q)
		if err != nil {
			t.Fatal(err)
		}
		have, err := servedTrace(v2, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(have, want) {
			t.Fatal("AnswerObjects differs between v1 and v2 loads")
		}
	}
}

// TestSnapshotV2MaterializeGolden forces the lazy cold path and checks the
// materialized state is deep-equal to the v1-loaded session: discovery
// result, dataset claims, fusion, recommendations — and that a v2 session
// re-encodes to byte-identical v1 and v2 snapshots (canonical).
func TestSnapshotV2MaterializeGolden(t *testing.T) {
	d := servingWorld(t, 23)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rawV1 := snapshotBytes(t, s)
	rawV2 := snapshotV2Bytes(t, s)
	v2, err := LoadSnapshotV2(rawV2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()

	if err := viewDiff(v2.Dependence(), s.Dependence()); err != nil {
		t.Fatalf("depen.Result differs after v2 materialization: %v", err)
	}
	if !reflect.DeepEqual(v2.Dataset().Claims(), s.Dataset().Claims()) {
		t.Fatal("dataset claims differ after v2 materialization")
	}
	if !reflect.DeepEqual(v2.Accuracy(), s.Accuracy()) {
		t.Fatal("accuracy map differs after v2 materialization")
	}

	wantFuse, err := s.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	haveFuse, err := v2.Fuse()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(haveFuse.Chosen, wantFuse.Chosen) ||
		!reflect.DeepEqual(haveFuse.Relation, wantFuse.Relation) {
		t.Fatal("Fuse differs after v2 materialization")
	}
	wantTop, err := s.RecommendSources(recommend.DefaultWeights(), 5)
	if err != nil {
		t.Fatal(err)
	}
	haveTop, err := v2.RecommendSources(recommend.DefaultWeights(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(haveTop, wantTop) {
		t.Fatal("RecommendSources differs after v2 materialization")
	}

	if !bytes.Equal(snapshotBytes(t, v2), rawV1) {
		t.Fatal("v1 re-encode of a v2-loaded session is not byte-identical")
	}
	if !bytes.Equal(snapshotV2Bytes(t, v2), rawV2) {
		t.Fatal("v2 re-encode of a v2-loaded session is not byte-identical")
	}
}

// TestSnapshotV2AppendMatchesV1 pins that live ingest works identically on
// both load paths: appending the same batch to a v1- and a v2-loaded
// session yields bit-identical successor sessions.
func TestSnapshotV2AppendMatchesV1(t *testing.T) {
	d := servingWorld(t, 31)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	batch := servingWorld(t, 99).Claims()[:25]

	v1, err := LoadSnapshot(bytes.NewReader(snapshotBytes(t, s)), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	v2, err := LoadSnapshotV2(snapshotV2Bytes(t, s), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()

	next1, err := v1.Append(batch)
	if err != nil {
		t.Fatal(err)
	}
	next2, err := v2.Append(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(next2.Dependence(), next1.Dependence()) {
		t.Fatal("appended discovery state differs between v1 and v2 loads")
	}
	for _, q := range queries(next1.Dataset()) {
		want, err := servedTrace(next1, q)
		if err != nil {
			t.Fatal(err)
		}
		have, err := servedTrace(next2, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(have, want) {
			t.Fatal("post-append answers differ between v1 and v2 loads")
		}
	}
}

// TestSnapshotV2FileSniff checks LoadSnapshotFile dispatches on the magic:
// v2 containers take the mmap path (MappedBytes > 0), v1 frames the
// decoding path, and both serve the same answers.
func TestSnapshotV2FileSniff(t *testing.T) {
	d := servingWorld(t, 41)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p1 := filepath.Join(dir, "world.v1")
	p2 := filepath.Join(dir, "world.v2")
	if err := os.WriteFile(p1, snapshotBytes(t, s), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, snapshotV2Bytes(t, s), 0o644); err != nil {
		t.Fatal(err)
	}

	v1, err := LoadSnapshotFile(p1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if v1.MappedBytes() != 0 {
		t.Fatal("v1 load reports a mapping")
	}
	v2, err := LoadSnapshotFile(p2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if v2.MappedBytes() == 0 {
		t.Fatal("v2 load reports no mapping")
	}
	q := d.Objects()
	want, err := servedTrace(v1, q)
	if err != nil {
		t.Fatal(err)
	}
	have, err := servedTrace(v2, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(have, want) {
		t.Fatal("file-loaded answers differ across formats")
	}
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v2.Close(); err != nil {
		t.Fatal("second Close not idempotent:", err)
	}

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

// TestSnapshotV2MaterializeSurvivesClose pins the lifetime contract: state
// materialized from the cold sections is fully copied onto the heap, so
// after Close (mapping gone) the dataset, discovery result and fusion keep
// working. Only the serving tables die with the mapping.
func TestSnapshotV2MaterializeSurvivesClose(t *testing.T) {
	d := servingWorld(t, 53)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "world.v2")
	if err := os.WriteFile(path, snapshotV2Bytes(t, s), 0o644); err != nil {
		t.Fatal(err)
	}
	v2, err := LoadSnapshotFile(path, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantDep := v2.Dependence() // forces materialization
	if wantDep == nil {
		t.Fatal("materialization failed")
	}
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := viewDiff(v2.Dependence(), s.Dependence()); err != nil {
		t.Fatalf("discovery state did not survive Close: %v", err)
	}
	if !reflect.DeepEqual(v2.Dataset().Claims(), s.Dataset().Claims()) {
		t.Fatal("dataset did not survive Close")
	}
	if _, err := v2.Fuse(); err != nil {
		t.Fatal("Fuse after Close:", err)
	}
}

// TestSnapshotV2Corruption walks structured damage over a real container:
// truncation at a spread of prefix lengths and a config-fingerprint
// mismatch. Every case must produce an error, never a panic or a session
// over garbage tables.
func TestSnapshotV2Corruption(t *testing.T) {
	d := servingWorld(t, 61)
	s, err := New(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw := snapshotV2Bytes(t, s)

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

	// Records no solve writes sit in cold sections: the load maps, the first
	// call that needs the state fails.
	for name, view := range corruptViews(t, s) {
		v2, err := LoadSnapshotV2(snapshotV2Bytes(t, withView(s, view)), DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := v2.Fuse(); !errors.Is(err, snapio.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
		v2.Close()
	}
}

// FuzzLoadSnapshotV2 drives the v2 container loader with arbitrary bytes:
// clean error or working session, never a panic. Successful loads exercise
// both the hot path (answering) and the cold path (materialization).
func FuzzLoadSnapshotV2(f *testing.F) {
	d := servingWorld(f, 41)
	s, err := New(d, DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshotV2(&buf); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:32])
	flip := append([]byte(nil), raw...)
	flip[len(flip)/2] ^= 0xff
	f.Add(flip)
	f.Fuzz(func(t *testing.T, data []byte) {
		v2, err := LoadSnapshotV2(data, DefaultConfig())
		if err != nil {
			return
		}
		defer v2.Close()
		if _, err := v2.AnswerObjects(d.Objects()[:1]); err != nil {
			_ = err // some mutations legitimately fail per-query
		}
		_ = v2.Dependence()
	})
}
