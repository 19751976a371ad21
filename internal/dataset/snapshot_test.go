package dataset

import (
	"bytes"
	"errors"
	"reflect"
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
// place, and reads the dataset back.
func damaged(t *testing.T, raw []byte, mutate func(m *snapio.Container)) error {
	t.Helper()
	m, err := snapio.OpenContainer(append([]byte(nil), raw...), testDSMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	mutate(m)
	_, err = FromSections(m)
	return err
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

// Every cut that drops a byte of some section fails; only the last
// section's alignment padding (under 8 bytes) may go.
func TestSnapshotTruncatedEverywhere(t *testing.T) {
	raw := encodeSnapshot(t, snapTestDataset(t))
	for cut := 0; cut <= len(raw)-8; cut++ {
		if _, err := readSnapshot(raw[:cut]); err == nil {
			t.Fatalf("cut at %d of %d bytes: expected error", cut, len(raw))
		}
	}
}

// The header is checksummed and the sections are not: a flipped bit fails
// the open with a classified error, or it opens to a dataset that
// re-encodes and reopens byte for byte. Never a panic.
func TestSnapshotBitFlips(t *testing.T) {
	raw := encodeSnapshot(t, snapTestDataset(t))
	for off := 0; off < len(raw); off += 7 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x10
		got, err := readSnapshot(mut)
		if err != nil {
			if !classified(err) {
				t.Fatalf("bit flip at %d: unclassified error %v", off, err)
			}
			continue
		}
		again := encodeSnapshot(t, got)
		back, err := readSnapshot(again)
		if err != nil || !bytes.Equal(encodeSnapshot(t, back), again) {
			t.Fatalf("bit flip at %d: the dataset it opened to does not round-trip (%v)", off, err)
		}
	}
}

// A claim written twice in the log, in place of another, keeps every id in
// range, so it opens; the tables it builds are not the stored ones.
func TestSnapshotDuplicateClaimPosition(t *testing.T) {
	raw := encodeSnapshot(t, snapTestDataset(t))
	err := damaged(t, raw, func(m *snapio.Container) {
		for _, id := range []uint32{SecLogSrc, SecLogObj, SecLogVal} {
			col, _ := m.I32Section(id)
			col[1] = col[0]
		}
	})
	if !errors.Is(err, snapio.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// A log column one claim short of the others fails the open.
func TestSnapshotMissingClaimPosition(t *testing.T) {
	raw := encodeSnapshot(t, snapTestDataset(t))
	m, err := snapio.OpenContainer(raw, testDSMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sw snapio.SectionWriter
	for id := SecGroupStart; id < SecCompiledEnd; id++ {
		if b, ok := m.Section(id); ok {
			if id == SecLogObj {
				b = b[:len(b)-4]
			}
			sw.Add(id, b)
		}
	}
	var buf bytes.Buffer
	if err := sw.WriteTo(&buf, testDSMagic, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := readSnapshot(buf.Bytes()); !errors.Is(err, snapio.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
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
	if !errors.Is(err, snapio.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// FuzzReadSnapshot drives the dataset's section codec — FromSections' checks,
// and behind them the column builder every dataset goes through — with
// arbitrary containers. Any input either fails with a classified
// error or opens to a dataset whose re-encoding round-trips byte for byte;
// never a panic or an out-of-bounds read. Seeds: the checked-in corpus under
// testdata/fuzz, the corner-case dataset, Tables 1–3 and a log-carrying
// dataset, each whole and damaged.
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
		got, err := readSnapshot(data)
		if err != nil {
			if !classified(err) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		again := encodeSnapshot(t, got)
		back, err := readSnapshot(again)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !bytes.Equal(encodeSnapshot(t, back), again) || back.Epoch() != got.Epoch() || back.Len() != got.Len() {
			t.Fatal("re-encoded snapshot does not round-trip")
		}
	})
}
