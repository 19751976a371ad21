package snapio

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

const testMagic = "SNAPTEST"

// sealed writes the payload build makes as the one section of a container.
func sealed(t *testing.T, version uint32, build func(w *Writer)) []byte {
	t.Helper()
	var w Writer
	build(&w)
	var sw SectionWriter
	sw.Add(1, w.Payload())
	var buf bytes.Buffer
	if err := sw.WriteTo(&buf, testMagic, version); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// open opens raw as a version-1 container and returns a Reader over its one
// section.
func open(raw []byte) (*Reader, error) {
	m, err := OpenContainer(raw, testMagic, 1)
	if err != nil {
		return nil, err
	}
	b, _ := m.Section(1)
	return NewReader(b), nil
}

func TestRoundTripPrimitives(t *testing.T) {
	raw := sealed(t, 1, func(w *Writer) {
		w.U8(200)
		w.Bool(true)
		w.Bool(false)
		w.U32(0xDEADBEEF)
		w.U64(1 << 60)
		w.I64(-42)
		w.F64(3.14159e-300)
		w.Str("hello, 世界")
		w.Str("")
	})
	r, err := open(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.U8(); got != 200 {
		t.Errorf("U8 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %x", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.F64(); got != 3.14159e-300 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Str(); got != "hello, 世界" {
		t.Errorf("Str = %q", got)
	}
	if got := r.Str(); got != "" {
		t.Errorf("empty Str = %q", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestBadMagic(t *testing.T) {
	raw := sealed(t, 1, func(w *Writer) { w.U32(7) })
	raw[0] ^= 0xFF
	if _, err := open(raw); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := ReadContainer(bytes.NewReader(raw), testMagic, 1); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("ReadContainer: err = %v, want ErrBadMagic", err)
	}
}

// A container carries one version: a reader of version 1 refuses 0, 2 and
// 99 alike.
func TestBadVersion(t *testing.T) {
	for _, v := range []uint32{0, 2, 99} {
		raw := sealed(t, v, func(w *Writer) { w.U32(7) })
		if _, err := open(raw); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d: err = %v, want ErrBadVersion", v, err)
		}
		if _, err := ReadContainer(bytes.NewReader(raw), testMagic, 1); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d, ReadContainer: err = %v, want ErrBadVersion", v, err)
		}
	}
}

// The container ends at its last byte of section data: every shorter prefix
// is ErrTruncated, whether opened in memory or read from a stream.
func TestTruncatedEverywhere(t *testing.T) {
	raw := sealed(t, 1, func(w *Writer) {
		w.U32(12345)
		w.Str("payload string")
		w.F64(1.5)
	})
	for cut := 0; cut < len(raw); cut++ {
		if _, err := open(raw[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d: err = %v, want ErrTruncated", cut, err)
		}
		if _, err := ReadContainer(bytes.NewReader(raw[:cut]), testMagic, 1); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut %d, ReadContainer: err = %v, want ErrTruncated", cut, err)
		}
	}
}

// Every one-bit flip past the header CRC — in a section, in the padding
// after the header or between sections — fails the open on the seal, with
// ErrChecksum and ErrCorrupt; every flip in the header fails it too.
func TestChecksumMismatch(t *testing.T) {
	raw, _, _, _ := buildContainer(t)
	hdrLen := sectionHdrLen + 3*sectionEntryLen + 4
	for off := 0; off < len(raw); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(raw)
			mut[off] ^= 1 << bit
			_, err := OpenContainer(mut, testSecMagic, 2)
			switch {
			case err == nil:
				t.Fatalf("flip at %d.%d: opened", off, bit)
			case off >= hdrLen && !(errors.Is(err, ErrChecksum) && errors.Is(err, ErrCorrupt)):
				t.Fatalf("flip at %d.%d: err = %v, want ErrChecksum and ErrCorrupt", off, bit, err)
			}
		}
	}
}

func TestReaderLatchesFirstError(t *testing.T) {
	raw := sealed(t, 1, func(w *Writer) { w.U8(1) })
	r, err := open(raw)
	if err != nil {
		t.Fatal(err)
	}
	_ = r.U8()
	_ = r.U64() // past the end: latches
	first := r.Err()
	if first == nil {
		t.Fatal("expected latched error")
	}
	_ = r.Str()
	_ = r.F64()
	if r.Err() != first {
		t.Fatal("error was overwritten")
	}
}

func TestCountAndIndexValidation(t *testing.T) {
	raw := sealed(t, 1, func(w *Writer) {
		w.U32(1 << 30) // absurd count
	})
	r, err := open(raw)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Count(8); n != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Count = %d, err = %v", n, r.Err())
	}
}

func TestFinishRejectsTrailingBytes(t *testing.T) {
	raw := sealed(t, 1, func(w *Writer) { w.U32(1); w.U32(2) })
	r, err := open(raw)
	if err != nil {
		t.Fatal(err)
	}
	_ = r.U32()
	if err := r.Finish(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("Finish = %v, want trailing-bytes ErrCorrupt", err)
	}
}

func TestBadMagicLength(t *testing.T) {
	var w SectionWriter
	w.Add(1, []byte("x"))
	var buf bytes.Buffer
	if err := w.WriteTo(&buf, "short", 1); err == nil || buf.Len() != 0 {
		t.Fatal("expected error for short magic")
	}
}
