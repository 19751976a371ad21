package snapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/iotest"
)

const testSecMagic = "SCTESTM2"

// f64BitsEqual reports whether two float64 slices are bit-identical.
func f64BitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// buildContainer writes a three-section container with typed payloads and
// returns the bytes.
func buildContainer(t *testing.T) ([]byte, []int32, []float64, []byte) {
	t.Helper()
	i32 := []int32{0, 3, 5, 9, -1, 1 << 30}
	f64 := []float64{0, 1.5, -2.25, 1e300}
	blob := []byte("hello, sections") // deliberately not 8-aligned in length
	var w SectionWriter
	w.Add(1, I32Bytes(i32))
	w.Add(2, F64Bytes(f64))
	w.Add(3, blob)
	var buf bytes.Buffer
	if err := w.WriteTo(&buf, testSecMagic, 2); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes(), i32, f64, blob
}

func TestSectionRoundTrip(t *testing.T) {
	data, i32, f64, blob := buildContainer(t)
	m, err := OpenMappedBytes(data, testSecMagic, 2)
	if err != nil {
		t.Fatalf("OpenMappedBytes: %v", err)
	}
	if m.Size() != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", m.Size(), len(data))
	}
	gotI32, err := m.I32Section(1)
	if err != nil {
		t.Fatalf("I32Section: %v", err)
	}
	for i := range i32 {
		if gotI32[i] != i32[i] {
			t.Fatalf("i32[%d] = %d, want %d", i, gotI32[i], i32[i])
		}
	}
	gotF64, err := m.F64Section(2)
	if err != nil {
		t.Fatalf("F64Section: %v", err)
	}
	if !f64BitsEqual(gotF64, f64) {
		t.Fatalf("f64 mismatch: %v vs %v", gotF64, f64)
	}
	gotBlob, ok := m.Section(3)
	if !ok || !bytes.Equal(gotBlob, blob) {
		t.Fatalf("blob = %q ok=%v, want %q", gotBlob, ok, blob)
	}
	if _, ok := m.Section(99); ok {
		t.Fatal("Section(99) should be absent")
	}
	if _, err := m.I64Section(99); err == nil {
		t.Fatal("I64Section(99) should error on missing section")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestSectionMisalignedInput(t *testing.T) {
	data, i32, _, _ := buildContainer(t)
	// Shift the buffer by one byte so the base pointer is misaligned; the
	// opener must copy into an aligned buffer rather than produce
	// misaligned casts.
	shifted := make([]byte, len(data)+1)
	copy(shifted[1:], data)
	m, err := OpenMappedBytes(shifted[1:], testSecMagic, 2)
	if err != nil {
		t.Fatalf("OpenMappedBytes(misaligned): %v", err)
	}
	got, err := m.I32Section(1)
	if err != nil {
		t.Fatalf("I32Section: %v", err)
	}
	if got[5] != i32[5] {
		t.Fatalf("i32[5] = %d, want %d", got[5], i32[5])
	}
}

func TestSectionMappedFile(t *testing.T) {
	data, i32, f64, _ := buildContainer(t)
	path := filepath.Join(t.TempDir(), "world.snap2")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMappedFile(path, testSecMagic, 2)
	if err != nil {
		t.Fatalf("OpenMappedFile: %v", err)
	}
	gotI32, err := m.I32Section(1)
	if err != nil {
		t.Fatalf("I32Section: %v", err)
	}
	gotF64, err := m.F64Section(2)
	if err != nil {
		t.Fatalf("F64Section: %v", err)
	}
	if gotI32[3] != i32[3] || !f64BitsEqual(gotF64, f64) {
		t.Fatal("mapped file sections differ from written tables")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// corrupt applies fn to a copy of data and asserts OpenMappedBytes fails
// with an error in class want.
func corrupt(t *testing.T, data []byte, want error, name string, fn func([]byte) []byte) {
	t.Helper()
	c := append([]byte(nil), data...)
	c = fn(c)
	if _, err := OpenMappedBytes(c, testSecMagic, 2); !errors.Is(err, want) {
		t.Errorf("%s: err = %v, want %v", name, err, want)
	}
}

// refreshCRC recomputes the header CRC after a deliberate table edit, so the
// test exercises the structural check rather than the checksum.
func refreshCRC(c []byte) {
	count := binary.LittleEndian.Uint32(c[MagicLen+8:])
	hdrLen := sectionHdrLen + sectionEntryLen*int(count) + 4
	binary.LittleEndian.PutUint32(c[hdrLen-4:], crc32.ChecksumIEEE(c[:hdrLen-4]))
}

func TestSectionCorruption(t *testing.T) {
	data, _, _, _ := buildContainer(t)

	corrupt(t, data, ErrTruncated, "empty", func(c []byte) []byte { return c[:0] })
	corrupt(t, data, ErrTruncated, "header-cut", func(c []byte) []byte { return c[:sectionHdrLen-1] })
	corrupt(t, data, ErrBadMagic, "magic", func(c []byte) []byte { c[0] ^= 0xFF; return c })
	corrupt(t, data, ErrBadVersion, "version-zero", func(c []byte) []byte {
		binary.LittleEndian.PutUint32(c[MagicLen:], 0)
		refreshCRC(c)
		return c
	})
	corrupt(t, data, ErrBadVersion, "version-future", func(c []byte) []byte {
		binary.LittleEndian.PutUint32(c[MagicLen:], 99)
		refreshCRC(c)
		return c
	})
	corrupt(t, data, ErrBadVersion, "version-older", func(c []byte) []byte {
		binary.LittleEndian.PutUint32(c[MagicLen:], 1)
		refreshCRC(c)
		return c
	})
	corrupt(t, data, ErrCorrupt, "endian", func(c []byte) []byte {
		c[MagicLen+4], c[MagicLen+7] = c[MagicLen+7], c[MagicLen+4]
		c[MagicLen+5], c[MagicLen+6] = c[MagicLen+6], c[MagicLen+5]
		refreshCRC(c)
		return c
	})
	corrupt(t, data, ErrChecksum, "crc-bitflip", func(c []byte) []byte {
		c[sectionHdrLen] ^= 0x01 // first table entry byte
		return c
	})
	corrupt(t, data, ErrCorrupt, "count-huge", func(c []byte) []byte {
		// The count cap is checked before the CRC, so no refresh needed.
		binary.LittleEndian.PutUint32(c[MagicLen+8:], maxSections+1)
		return c
	})
	corrupt(t, data, ErrTruncated, "count-past-end", func(c []byte) []byte {
		binary.LittleEndian.PutUint32(c[MagicLen+8:], maxSections)
		// CRC position moved; the shorter buffer fails the header length
		// check before any CRC comparison.
		return c
	})
	corrupt(t, data, ErrCorrupt, "misaligned-offset", func(c []byte) []byte {
		e := c[sectionHdrLen:]
		binary.LittleEndian.PutUint64(e[8:], binary.LittleEndian.Uint64(e[8:])+1)
		refreshCRC(c)
		return c
	})
	corrupt(t, data, ErrTruncated, "offset-into-header", func(c []byte) []byte {
		e := c[sectionHdrLen:]
		binary.LittleEndian.PutUint64(e[8:], 0)
		refreshCRC(c)
		return c
	})
	corrupt(t, data, ErrTruncated, "length-past-end", func(c []byte) []byte {
		e := c[sectionHdrLen:]
		binary.LittleEndian.PutUint64(e[16:], uint64(len(c)))
		refreshCRC(c)
		return c
	})
	corrupt(t, data, ErrCorrupt, "duplicate-id", func(c []byte) []byte {
		e := c[sectionHdrLen+sectionEntryLen:]
		binary.LittleEndian.PutUint32(e, 1) // second section claims id 1
		refreshCRC(c)
		return c
	})
	corrupt(t, data, ErrCorrupt, "overlap", func(c []byte) []byte {
		e0 := c[sectionHdrLen:]
		e1 := c[sectionHdrLen+sectionEntryLen:]
		// Point section 2 at section 1's offset with a nonzero length.
		binary.LittleEndian.PutUint64(e1[8:], binary.LittleEndian.Uint64(e0[8:]))
		refreshCRC(c)
		return c
	})
	// Truncation at every section boundary: cut the file at each section's
	// start and end; any cut below a section's declared end must fail.
	count := binary.LittleEndian.Uint32(data[MagicLen+8:])
	for i := 0; i < int(count); i++ {
		e := data[sectionHdrLen+sectionEntryLen*i:]
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		for _, cut := range []uint64{off, off + length - 1} {
			if cut >= uint64(len(data)) {
				continue
			}
			corrupt(t, data, ErrTruncated, "section-boundary-cut", func(c []byte) []byte { return c[:cut] })
		}
	}
}

// TestReadMapped: a container read from a stream — one byte at a time, too —
// is the container, aligned; the read stops at the end of its last section's
// data, accepts a stream cut inside the padding after it, and classifies a
// shorter one.
func TestReadMapped(t *testing.T) {
	data, i32, f64, blob := buildContainer(t)
	r := bytes.NewReader(append(bytes.Clone(data), "trailing"...))
	m, err := ReadMapped(iotest.OneByteReader(r), testSecMagic, 2)
	if err != nil {
		t.Fatalf("ReadMapped: %v", err)
	}
	n := len(m.Bytes())
	if !bytes.Equal(m.Bytes(), data[:n]) || len(data)-n >= 8 || r.Len() != len(data)-n+len("trailing") {
		t.Fatalf("read %d bytes, left %d; want the %d-byte container less its padding", n, r.Len(), len(data))
	}
	gotI32, _ := m.I32Section(1)
	gotF64, _ := m.F64Section(2)
	gotBlob, _ := m.Section(3)
	if !slices.Equal(gotI32, i32) || !f64BitsEqual(gotF64, f64) || !bytes.Equal(gotBlob, blob) {
		t.Fatal("sections read from a stream differ from the written tables")
	}
	if _, err := ReadMapped(bytes.NewReader(data[:len(data)-1]), testSecMagic, 2); err != nil {
		t.Fatalf("cut inside the last padding: %v", err)
	}
	for _, cut := range []int{0, sectionHdrLen - 1, sectionHdrLen + 1, len(data) - 8} {
		if _, err := ReadMapped(bytes.NewReader(data[:cut]), testSecMagic, 2); !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

// TestCheckHeader: the header check reads only the magic and version, and
// classifies them as the full open does.
func TestCheckHeader(t *testing.T) {
	data, _, _, _ := buildContainer(t)
	if err := CheckHeader(bytes.NewReader(data[:MagicLen+4]), testSecMagic, 2); err != nil {
		t.Fatalf("CheckHeader: %v", err)
	}
	for _, tc := range []struct {
		name    string
		data    []byte
		version uint32
		want    error
	}{
		{"short", data[:MagicLen+3], 2, ErrTruncated},
		{"magic", append([]byte("SCOTHER1"), data[MagicLen:]...), 2, ErrBadMagic},
		{"older", data, 3, ErrBadVersion},
		{"newer", data, 1, ErrBadVersion},
	} {
		if err := CheckHeader(bytes.NewReader(tc.data), testSecMagic, tc.version); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestSectionWriterRejects(t *testing.T) {
	var w SectionWriter
	w.Add(1, []byte("a"))
	w.Add(1, []byte("b"))
	if err := w.WriteTo(&bytes.Buffer{}, testSecMagic, 2); err == nil {
		t.Fatal("duplicate section id should fail WriteTo")
	}
	var w2 SectionWriter
	if err := w2.WriteTo(&bytes.Buffer{}, "short", 2); err == nil {
		t.Fatal("bad magic length should fail WriteTo")
	}
}

func TestEmptySectionsAndReader(t *testing.T) {
	var w SectionWriter
	w.Add(7, nil)
	var buf bytes.Buffer
	if err := w.WriteTo(&buf, testSecMagic, 1); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMappedBytes(buf.Bytes(), testSecMagic, 1)
	if err != nil {
		t.Fatalf("OpenMappedBytes: %v", err)
	}
	if b, ok := m.Section(7); !ok || len(b) != 0 {
		t.Fatalf("empty section: %v ok=%v", b, ok)
	}
	if v, err := m.F64Section(7); err != nil || v != nil {
		t.Fatalf("empty typed view: %v err=%v", v, err)
	}

	// NewReader decodes an encoder-built payload embedded as a section.
	var enc Writer
	enc.U32(42)
	enc.Str("embedded")
	r := NewReader(enc.Payload())
	if got := r.U32(); got != 42 {
		t.Fatalf("U32 = %d", got)
	}
	if got := r.Str(); got != "embedded" {
		t.Fatalf("Str = %q", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}
