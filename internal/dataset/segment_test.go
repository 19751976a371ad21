package dataset

import (
	"bytes"
	"errors"
	"testing"

	"sourcecurrents/internal/snapio"
)

// classified reports whether a decode failure carries one of the formats'
// sentinels: corrupt payload, or the container-level damage (truncation, bad
// magic, future version, checksum) snapio detects before any section is
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

// FuzzReadSegment drives the log-segment decoder with arbitrary bytes: a
// classified error, or a batch WriteSegment accepts and reproduces byte for
// byte.
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
