package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sourcecurrents/internal/model"
	"sourcecurrents/internal/snapio"
)

// A dataset reaches disk one way: as the sections of a session snapshot
// (Dataset.AppendSections), opened by FromSections. The tests below drive that codec through a container that
// holds a dataset's sections alone.

// snapTestDataset builds a dataset that exercises the format's corners:
// temporal claims, snapshot claims, re-asserted values, multi-value
// conflicts, claim probabilities, and shared strings across roles.
func snapTestDataset(t testing.TB) *Dataset {
	t.Helper()
	d := New()
	add := func(c model.Claim) {
		if err := d.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	add(model.NewClaim("S1", model.Obj("Dong", "affiliation"), "AT&T"))
	add(model.NewClaim("S2", model.Obj("Dong", "affiliation"), "AT&T"))
	add(model.NewClaim("S3", model.Obj("Dong", "affiliation"), "UW"))
	add(model.NewTemporalClaim("S1", model.Obj("Carey", "affiliation"), "BEA", 1))
	add(model.NewTemporalClaim("S1", model.Obj("Carey", "affiliation"), "UCI", 5))
	add(model.NewTemporalClaim("S2", model.Obj("Carey", "affiliation"), "BEA", 3))
	// Same value re-asserted; same strings used as entity and value.
	add(model.NewTemporalClaim("S3", model.Obj("Carey", "affiliation"), "BEA", 2))
	add(model.NewTemporalClaim("S3", model.Obj("Carey", "affiliation"), "BEA", 6))
	add(model.NewClaim("S3", model.Obj("BEA", "status"), "acquired"))
	c := model.NewClaim("S2", model.Obj("BEA", "status"), "independent")
	c.Prob = 0.25
	add(c)
	d.Freeze()
	return d
}

// encodeSnapshot writes d's sections into a container of their own.
func encodeSnapshot(t testing.TB, d *Dataset) []byte {
	t.Helper()
	var sw snapio.SectionWriter
	if err := d.AppendSections(&sw); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sw.WriteTo(&buf, testDSMagic, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readSnapshot opens the dataset in raw, as encodeSnapshot writes it.
func readSnapshot(raw []byte) (*Dataset, error) {
	m, err := snapio.OpenContainer(raw, testDSMagic, 1)
	if err != nil {
		return nil, err
	}
	return FromSections(m)
}

// damaged opens a copy of raw's container, lets mutate edit its sections in
// place, re-seals the container over the edit — so what rejects the damage is
// the check behind the seal — and reads the dataset back.
func damaged(t *testing.T, raw []byte, mutate func(m *snapio.Container)) error {
	t.Helper()
	return edited(t, raw, mutate, true)
}

// stale is damaged leaving the container's seal as it was written.
func stale(t *testing.T, raw []byte, mutate func(m *snapio.Container)) error {
	t.Helper()
	return edited(t, raw, mutate, false)
}

// edited opens a copy of raw's container — the sections alias the copy —
// lets mutate edit them, re-seals the copy when reseal is set, and reads the
// dataset back from it.
func edited(t *testing.T, raw []byte, mutate func(m *snapio.Container), reseal bool) error {
	t.Helper()
	data := bytes.Clone(raw)
	m, err := snapio.OpenContainer(data, testDSMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	mutate(m)
	if reseal {
		snapio.Reseal(data)
	}
	_, err = readSnapshot(data)
	return err
}

// rewritten rebuilds the container raw with section id's bytes replaced by
// edit(a copy of them) — a nil result drops the section — sealed by the
// writer.
func rewritten(t *testing.T, raw []byte, id uint32, edit func([]byte) []byte) []byte {
	t.Helper()
	m, err := snapio.OpenContainer(raw, testDSMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sw snapio.SectionWriter
	for k := uint32(1); k < SecDatasetEnd; k++ {
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
	if err := sw.WriteTo(&buf, testDSMagic, 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wantCorrupt fails t unless err is ErrCorrupt naming msg.
func wantCorrupt(t *testing.T, err error, msg string) {
	t.Helper()
	if !errors.Is(err, snapio.ErrCorrupt) || !strings.Contains(err.Error(), msg) {
		t.Fatalf("err = %v, want ErrCorrupt naming %q", err, msg)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	d := snapTestDataset(t)
	raw := encodeSnapshot(t, d)
	got, err := readSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Claims(), d.Claims()) {
		t.Fatal("claims differ after round trip")
	}
	if !reflect.DeepEqual(got.Sources(), d.Sources()) {
		t.Fatal("sources differ after round trip")
	}
	if !reflect.DeepEqual(got.Objects(), d.Objects()) {
		t.Fatal("objects differ after round trip")
	}
	// Snapshot view and value groups (the solver inputs) must agree too.
	for _, o := range d.Objects() {
		if !reflect.DeepEqual(got.ValuesFor(o), d.ValuesFor(o)) {
			t.Fatalf("ValuesFor(%v) differs after round trip", o)
		}
	}
	// Re-encoding the decoded dataset is byte-identical (canonical form).
	if !bytes.Equal(encodeSnapshot(t, got), raw) {
		t.Fatal("re-encoded snapshot is not byte-identical")
	}
}

func TestSnapshotRequiresFrozen(t *testing.T) {
	d := New()
	if err := d.Add(model.NewClaim("S1", model.Obj("e", "a"), "v")); err != nil {
		t.Fatal(err)
	}
	var sw snapio.SectionWriter
	if err := d.AppendSections(&sw); err == nil {
		t.Fatal("expected error for unfrozen dataset")
	}
}

// An empty dataset writes, but does not open: no session is built over no
// claims, so a snapshot's dataset always holds one.
func TestSnapshotEmptyDataset(t *testing.T) {
	d := New()
	d.Freeze()
	if _, err := readSnapshot(encodeSnapshot(t, d)); !errors.Is(err, snapio.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestSnapshotWrongMagic(t *testing.T) {
	raw := encodeSnapshot(t, snapTestDataset(t))
	raw[0] = 'X'
	if _, err := readSnapshot(raw); !errors.Is(err, snapio.ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestSnapshotFutureVersion(t *testing.T) {
	raw := encodeSnapshot(t, snapTestDataset(t))
	raw[snapio.MagicLen] = 2
	if _, err := readSnapshot(raw); !errors.Is(err, snapio.ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

// The container ends at its last section's last byte: every cut fails.
func TestSnapshotTruncatedEverywhere(t *testing.T) {
	raw := encodeSnapshot(t, snapTestDataset(t))
	for cut := 0; cut < len(raw); cut++ {
		if _, err := readSnapshot(raw[:cut]); err == nil {
			t.Fatalf("cut at %d of %d bytes: expected error", cut, len(raw))
		}
	}
}

// The header is covered by the container's header CRC and everything after it
// by the seal: a flipped bit anywhere fails the open with a classified error,
// and past the header with ErrChecksum.
func TestSnapshotBitFlips(t *testing.T) {
	raw := encodeSnapshot(t, snapTestDataset(t))
	// The header: its fixed 24 bytes, 24 per section, and its CRC.
	hdrLen := 24 + 24*int(binary.LittleEndian.Uint32(raw[snapio.MagicLen+8:])) + 4
	for off := 0; off < len(raw); off += 7 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x10
		_, err := readSnapshot(mut)
		if err == nil || !classified(err) {
			t.Fatalf("bit flip at %d: err = %v, want a classified error", off, err)
		}
		if off >= hdrLen && !errors.Is(err, snapio.ErrChecksum) {
			t.Fatalf("bit flip at %d, past the header: err = %v, want ErrChecksum", off, err)
		}
	}
}

// A claim written twice in the log, in place of another, keeps every id in
// range: sealed over, it is a log a build could have written, and opens; left
// under the seal written for the original log, it fails on the checksum.
func TestSnapshotDuplicateClaimPosition(t *testing.T) {
	raw := encodeSnapshot(t, snapTestDataset(t))
	duplicate := func(m *snapio.Container) {
		for _, id := range []uint32{SecLogSrc, SecLogObj, SecLogVal} {
			col, _ := m.I32Section(id)
			col[1] = col[0]
		}
	}
	wantCorrupt(t, stale(t, raw, duplicate), "checksum")
	if err := damaged(t, raw, duplicate); err != nil {
		t.Fatalf("the re-sealed log: %v", err)
	}
}

// A log column one claim short of the others fails the open.
func TestSnapshotMissingClaimPosition(t *testing.T) {
	raw := rewritten(t, encodeSnapshot(t, snapTestDataset(t)), SecLogObj, func(b []byte) []byte { return b[:len(b)-4] })
	_, err := readSnapshot(raw)
	wantCorrupt(t, err, "claim log columns sized")
}

// A log row that is not a valid claim — here a probability above 1 — fails
// the open, not the first solve.
func TestSnapshotInvalidClaim(t *testing.T) {
	raw := encodeSnapshot(t, snapTestDataset(t))
	err := damaged(t, raw, func(m *snapio.Container) {
		probs, err := m.F64Section(SecLogProb)
		if err != nil || len(probs) == 0 {
			t.Fatalf("no probability column: %v", err)
		}
		probs[0] = 1.5
	})
	wantCorrupt(t, err, "probability 1.5")
}

// fuzzSeeds are the checked-in seeds of FuzzReadSnapshot and
// FuzzCompiledFromMapped, by target and name: a whole container in the
// current layout, the same with one bit flipped in a section, and cuts of it
// — each past the magic and version checks — and the empty input and cuts
// too short for a header.
func fuzzSeeds(t testing.TB) map[string]map[string][]byte {
	flipped := func(raw []byte) []byte {
		raw = bytes.Clone(raw)
		raw[len(raw)/2] ^= 0x10
		return raw
	}
	snap := encodeSnapshot(t, snapTestDataset(t))
	mapped := encodeSnapshot(t, sectionWorld(t))
	return map[string]map[string][]byte{
		"FuzzReadSnapshot": {
			"valid":       snap,
			"bitflip":     flipped(snap),
			"truncated":   snap[:len(snap)/2],
			"empty":       {},
			"magic-only":  snap[:snapio.MagicLen],
			"header-only": snap[:snapio.MagicLen+4],
		},
		"FuzzCompiledFromMapped": {
			"seed-valid":            mapped,
			"seed-payload-flip":     flipped(mapped),
			"seed-truncated-header": mapped[:snapio.MagicLen+8],
			"seed-truncated-mid":    mapped[:len(mapped)/2],
			"seed-truncated-tail":   mapped[:len(mapped)-8],
		},
	}
}

// TestFuzzSeedsInSync holds the checked-in fuzz seeds to fuzzSeeds; run with
// REGEN_FUZZ_SEEDS=1 to rewrite them after a deliberate format change.
func TestFuzzSeedsInSync(t *testing.T) {
	for target, seeds := range fuzzSeeds(t) {
		for name, seed := range seeds {
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			path := filepath.Join("testdata", "fuzz", target, name)
			if os.Getenv("REGEN_FUZZ_SEEDS") == "1" {
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != want {
				t.Fatalf("%s is not the current seed (%v); rerun with REGEN_FUZZ_SEEDS=1", path, err)
			}
		}
	}
}

// FuzzReadSnapshot drives the dataset's section codec — FromSections' checks,
// and behind them the column builder every dataset goes through — with
// arbitrary containers, each opened as given and again with the container
// re-sealed, so that damage reaches the checks behind the seal. Any input
// either fails with a classified error or opens to a dataset whose re-encoding
// round-trips byte for byte; never a panic or an out-of-bounds read. Seeds:
// the checked-in corpus under testdata/fuzz, the corner-case dataset, Tables
// 1–3 and a log-carrying dataset, each whole and damaged.
func FuzzReadSnapshot(f *testing.F) {
	logged, err := Table3().Append(Table1().Claims())
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range []*Dataset{snapTestDataset(f), Table1(), Table2(), Table3(), logged} {
		seedDamaged(f, encodeSnapshot(f, d))
	}
	f.Add([]byte{})
	f.Add([]byte(testDSMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, data := range asGivenAndResealed(data) {
			got, err := readSnapshot(data)
			if err != nil {
				if !classified(err) {
					t.Fatalf("unclassified decode error: %v", err)
				}
				continue
			}
			again := encodeSnapshot(t, got)
			back, err := readSnapshot(again)
			if err != nil {
				t.Fatalf("re-encoded snapshot does not decode: %v", err)
			}
			if !bytes.Equal(encodeSnapshot(t, back), again) || back.Epoch() != got.Epoch() || back.Len() != got.Len() {
				t.Fatal("re-encoded snapshot does not round-trip")
			}
		}
	})
}

// asGivenAndResealed returns data and a copy with the container re-sealed
// over what it holds (snapio.Reseal).
func asGivenAndResealed(data []byte) [][]byte {
	resealed := bytes.Clone(data)
	snapio.Reseal(resealed)
	return [][]byte{data, resealed}
}
