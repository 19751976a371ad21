package dataset

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"sourcecurrents/internal/model"
	"sourcecurrents/internal/snapio"
)

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

func encodeSnapshot(t testing.TB, d *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	d := snapTestDataset(t)
	raw := encodeSnapshot(t, d)
	got, err := ReadSnapshot(bytes.NewReader(raw))
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
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err == nil {
		t.Fatal("expected error for unfrozen dataset")
	}
}

func TestSnapshotEmptyDataset(t *testing.T) {
	d := New()
	d.Freeze()
	raw := encodeSnapshot(t, d)
	got, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || !got.Frozen() {
		t.Fatalf("decoded empty dataset: len=%d frozen=%v", got.Len(), got.Frozen())
	}
}

func TestSnapshotWrongMagic(t *testing.T) {
	raw := encodeSnapshot(t, snapTestDataset(t))
	raw[0] = 'X'
	if _, err := ReadSnapshot(bytes.NewReader(raw)); !errors.Is(err, snapio.ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestSnapshotFutureVersion(t *testing.T) {
	raw := encodeSnapshot(t, snapTestDataset(t))
	raw[snapio.MagicLen] = SnapshotVersion + 1
	if _, err := ReadSnapshot(bytes.NewReader(raw)); !errors.Is(err, snapio.ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestSnapshotTruncatedEverywhere(t *testing.T) {
	raw := encodeSnapshot(t, snapTestDataset(t))
	for cut := 0; cut < len(raw); cut += 1 {
		if _, err := ReadSnapshot(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("cut at %d bytes: expected error", cut)
		}
	}
}

func TestSnapshotBitFlips(t *testing.T) {
	raw := encodeSnapshot(t, snapTestDataset(t))
	for off := 0; off < len(raw); off += 7 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x10
		// Must never panic; almost always errors (the CRC catches payload
		// damage, header damage trips magic/version/length checks). A flip
		// in the CRC bytes themselves errors as a checksum mismatch.
		if _, err := ReadSnapshot(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at %d decoded successfully", off)
		}
	}
}

// craftFrame builds a validly-framed payload with arbitrary contents, so
// corruption below the CRC layer can be exercised.
func craftFrame(t *testing.T, build func(w *snapio.Writer)) []byte {
	t.Helper()
	var w snapio.Writer
	build(&w)
	var buf bytes.Buffer
	if err := w.Frame(&buf, SnapshotMagic, SnapshotVersion); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotDuplicateClaimPosition(t *testing.T) {
	raw := craftFrame(t, func(w *snapio.Writer) {
		w.U32(3) // strings: "S", "e", "v" (attribute reuses "e")
		w.Str("S")
		w.Str("e")
		w.Str("v")
		w.U32(2) // two claims
		w.U32(1) // one source
		w.U32(0) // source ref "S"
		w.U32(2) // two records
		for i := 0; i < 2; i++ {
			w.U32(0) // position 0 twice
			w.U32(1)
			w.U32(1)
			w.U32(2)
			w.Bool(false)
			w.I64(0)
			w.F64(1)
		}
	})
	if _, err := ReadSnapshot(bytes.NewReader(raw)); !errors.Is(err, snapio.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestSnapshotMissingClaimPosition(t *testing.T) {
	raw := craftFrame(t, func(w *snapio.Writer) {
		w.U32(3)
		w.Str("S")
		w.Str("e")
		w.Str("v")
		w.U32(2) // declares two claims ...
		w.U32(1)
		w.U32(0)
		w.U32(1) // ... but encodes only one
		w.U32(0)
		w.U32(1)
		w.U32(1)
		w.U32(2)
		w.Bool(false)
		w.I64(0)
		w.F64(1)
	})
	if _, err := ReadSnapshot(bytes.NewReader(raw)); !errors.Is(err, snapio.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestSnapshotInvalidClaim(t *testing.T) {
	// An empty source string is structurally valid in the format but fails
	// claim validation at rebuild — must error, not panic.
	raw := craftFrame(t, func(w *snapio.Writer) {
		w.U32(3)
		w.Str("") // sorted first
		w.Str("e")
		w.Str("v")
		w.U32(1)
		w.U32(1)
		w.U32(0) // source ref "" — invalid claim
		w.U32(1)
		w.U32(0)
		w.U32(1)
		w.U32(1)
		w.U32(2)
		w.Bool(false)
		w.I64(0)
		w.F64(1)
	})
	if _, err := ReadSnapshot(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected claim validation error")
	}
}

// classified reports whether a decode failure carries one of the format's
// sentinels: corrupt payload, or the frame-level damage (truncation, bad
// magic, future version, checksum) snapio detects before any payload is
// read.
func classified(err error) bool {
	for _, sentinel := range []error{
		snapio.ErrCorrupt, snapio.ErrTruncated, snapio.ErrBadMagic, snapio.ErrBadVersion, snapio.ErrChecksum,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// seedDamaged adds raw and the standard damage to it: cut in half, cut to
// the header, and one flipped payload byte.
func seedDamaged(f *testing.F, raw []byte) {
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:snapio.MagicLen+4])
	mut := append([]byte(nil), raw...)
	mut[len(mut)/3] ^= 0xFF
	f.Add(mut)
}

// FuzzReadSnapshot drives the decoder — and behind it the column builder
// every decoded dataset goes through — with arbitrary bytes. Any input
// either fails with a classified error or decodes to a dataset whose
// re-encoding round-trips byte for byte; never a panic or an out-of-bounds
// read. Seeds: the checked-in corpus under testdata/fuzz, the corner-case
// dataset, Tables 1–3 and a log-carrying (version 2) snapshot, each whole
// and damaged.
func FuzzReadSnapshot(f *testing.F) {
	logged, err := Table3().Append(Table1().Claims())
	if err != nil {
		f.Fatal(err)
	}
	for _, d := range []*Dataset{snapTestDataset(f), Table1(), Table2(), Table3(), logged} {
		seedDamaged(f, encodeSnapshot(f, d))
	}
	f.Add([]byte{})
	f.Add([]byte("SCDSDATA"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			if !classified(err) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		again := encodeSnapshot(t, got)
		back, err := ReadSnapshot(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !bytes.Equal(encodeSnapshot(t, back), again) || back.Epoch() != got.Epoch() || back.Len() != got.Len() {
			t.Fatal("re-encoded snapshot does not round-trip")
		}
	})
}

// FuzzReadSegment is FuzzReadSnapshot's twin for log segments: a classified
// error, or a batch WriteSegment accepts and reproduces byte for byte.
func FuzzReadSegment(f *testing.F) {
	for _, d := range []*Dataset{snapTestDataset(f), Table1(), Table2(), Table3()} {
		var buf bytes.Buffer
		if err := WriteSegment(&buf, d.Claims()); err != nil {
			f.Fatal(err)
		}
		seedDamaged(f, buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("SCDSSEGM"))
	f.Fuzz(func(t *testing.T, data []byte) {
		batch, err := ReadSegment(bytes.NewReader(data))
		if err != nil {
			if !classified(err) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		var again, third bytes.Buffer
		if err := WriteSegment(&again, batch); err != nil {
			t.Fatalf("decoded batch does not re-encode: %v", err)
		}
		back, err := ReadSegment(bytes.NewReader(again.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded segment does not decode: %v", err)
		}
		if err := WriteSegment(&third, back); err != nil || !bytes.Equal(third.Bytes(), again.Bytes()) {
			t.Fatalf("re-encoded segment does not round-trip (%v)", err)
		}
	})
}
