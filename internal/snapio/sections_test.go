package snapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"
	"unsafe"
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
	m, err := OpenContainer(data, testSecMagic, 2)
	if err != nil {
		t.Fatalf("OpenContainer: %v", err)
	}
	if len(m.data) != len(data) {
		t.Fatalf("size = %d, want %d", len(m.data), len(data))
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
}

func TestSectionMisalignedInput(t *testing.T) {
	data, i32, _, _ := buildContainer(t)
	// Shift the buffer by one byte so the base pointer is misaligned; the
	// opener must copy into an aligned buffer rather than produce
	// misaligned casts.
	shifted := make([]byte, len(data)+1)
	copy(shifted[1:], data)
	m, err := OpenContainer(shifted[1:], testSecMagic, 2)
	if err != nil {
		t.Fatalf("OpenContainer(misaligned): %v", err)
	}
	got, err := m.I32Section(1)
	if err != nil {
		t.Fatalf("I32Section: %v", err)
	}
	if got[5] != i32[5] {
		t.Fatalf("i32[5] = %d, want %d", got[5], i32[5])
	}
}

// TestSectionMappedFile: a container file opens into one aligned buffer of
// its size, and only when it ends where the container does.
func TestSectionMappedFile(t *testing.T) {
	data, i32, f64, _ := buildContainer(t)
	path := filepath.Join(t.TempDir(), "world.snap2")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := ReadContainerFile(path, testSecMagic, 2)
	if err != nil {
		t.Fatalf("ReadContainerFile: %v", err)
	}
	if len(m.data) != len(data) || uintptr(unsafe.Pointer(&m.data[0]))%sectionAlign != 0 {
		t.Fatalf("read %d bytes into a buffer at %p; want the %d-byte file, 8-aligned", len(m.data), &m.data[0], len(data))
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
		t.Fatal("file sections differ from written tables")
	}

	// The file with 14 bytes appended: no seal covers them and a stream
	// reader stops before them, so the file loader refuses them.
	if err := os.WriteFile(path, append(bytes.Clone(data), "fourteen bytes"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadContainerFile(path, testSecMagic, 2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("file 14 bytes past its container: err = %v, want ErrCorrupt", err)
	}
}

// TestReadMappedFileBoundedByFile: the file, not its header, sizes the read.
// An empty file is ErrTruncated, one over the payload cap ErrCorrupt before a
// byte is read, and a CRC-valid header declaring a 512 MiB section in a 4 KiB
// file is ErrTruncated having allocated about the file.
func TestReadMappedFileBoundedByFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if _, err := ReadContainerFile(write("empty", nil), testSecMagic, 2); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty file: err = %v, want ErrTruncated", err)
	}
	huge := write("huge", nil)
	if err := os.Truncate(huge, maxPayload+1); err != nil { // sparse: no blocks written
		t.Fatal(err)
	}
	if _, err := ReadContainerFile(huge, testSecMagic, 2); !errors.Is(err, ErrCorrupt) {
		t.Errorf("file over the payload cap: err = %v, want ErrCorrupt", err)
	}

	var w SectionWriter
	w.Add(1, make([]byte, 64))
	var buf bytes.Buffer
	if err := w.WriteTo(&buf, testSecMagic, 2); err != nil {
		t.Fatal(err)
	}
	lie := make([]byte, 4<<10)
	copy(lie, buf.Bytes())
	binary.LittleEndian.PutUint64(lie[sectionHdrLen+16:], 512<<20)
	Reseal(lie)
	path := write("lie", lie)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadContainerFile(path, testSecMagic, 2)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("512 MiB section in a 4 KiB file: err = %v, want ErrTruncated", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("the open allocated %d bytes for a %d-byte file", n, len(lie))
	}
}

// corrupt applies fn to a copy of data and asserts OpenContainer fails
// with an error in class want.
func corrupt(t *testing.T, data []byte, want error, name string, fn func([]byte) []byte) {
	t.Helper()
	c := append([]byte(nil), data...)
	c = fn(c)
	if _, err := OpenContainer(c, testSecMagic, 2); !errors.Is(err, want) {
		t.Errorf("%s: err = %v, want %v", name, err, want)
	}
}

func TestSectionCorruption(t *testing.T) {
	data, _, _, _ := buildContainer(t)

	corrupt(t, data, ErrTruncated, "empty", func(c []byte) []byte { return c[:0] })
	corrupt(t, data, ErrTruncated, "header-cut", func(c []byte) []byte { return c[:sectionHdrLen-1] })
	corrupt(t, data, ErrBadMagic, "magic", func(c []byte) []byte { c[0] ^= 0xFF; return c })
	corrupt(t, data, ErrBadVersion, "version-zero", func(c []byte) []byte {
		binary.LittleEndian.PutUint32(c[MagicLen:], 0)
		Reseal(c)
		return c
	})
	corrupt(t, data, ErrBadVersion, "version-future", func(c []byte) []byte {
		binary.LittleEndian.PutUint32(c[MagicLen:], 99)
		Reseal(c)
		return c
	})
	corrupt(t, data, ErrBadVersion, "version-older", func(c []byte) []byte {
		binary.LittleEndian.PutUint32(c[MagicLen:], 1)
		Reseal(c)
		return c
	})
	corrupt(t, data, ErrCorrupt, "endian", func(c []byte) []byte {
		c[MagicLen+4], c[MagicLen+7] = c[MagicLen+7], c[MagicLen+4]
		c[MagicLen+5], c[MagicLen+6] = c[MagicLen+6], c[MagicLen+5]
		Reseal(c)
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
		Reseal(c)
		return c
	})
	corrupt(t, data, ErrTruncated, "offset-into-header", func(c []byte) []byte {
		e := c[sectionHdrLen:]
		binary.LittleEndian.PutUint64(e[8:], 0)
		Reseal(c)
		return c
	})
	corrupt(t, data, ErrTruncated, "length-past-end", func(c []byte) []byte {
		e := c[sectionHdrLen:]
		binary.LittleEndian.PutUint64(e[16:], uint64(len(c)))
		Reseal(c)
		return c
	})
	corrupt(t, data, ErrCorrupt, "duplicate-id", func(c []byte) []byte {
		e := c[sectionHdrLen+sectionEntryLen:]
		binary.LittleEndian.PutUint32(e, 1) // second section claims id 1
		Reseal(c)
		return c
	})
	corrupt(t, data, ErrCorrupt, "overlap", func(c []byte) []byte {
		e0 := c[sectionHdrLen:]
		e1 := c[sectionHdrLen+sectionEntryLen:]
		// Point section 2 at section 1's offset with a nonzero length.
		binary.LittleEndian.PutUint64(e1[8:], binary.LittleEndian.Uint64(e0[8:]))
		Reseal(c)
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
// data, which is the container's last byte, and classifies a shorter one.
func TestReadMapped(t *testing.T) {
	data, i32, f64, blob := buildContainer(t)
	r := bytes.NewReader(append(bytes.Clone(data), "trailing"...))
	m, err := ReadContainer(iotest.OneByteReader(r), testSecMagic, 2)
	if err != nil {
		t.Fatalf("ReadContainer: %v", err)
	}
	if !bytes.Equal(m.data, data) || r.Len() != len("trailing") {
		t.Fatalf("read %d bytes, left %d; want the %d-byte container and no byte past it", len(m.data), r.Len(), len(data))
	}
	gotI32, _ := m.I32Section(1)
	gotF64, _ := m.F64Section(2)
	gotBlob, _ := m.Section(3)
	if !slices.Equal(gotI32, i32) || !f64BitsEqual(gotF64, f64) || !bytes.Equal(gotBlob, blob) {
		t.Fatal("sections read from a stream differ from the written tables")
	}
	for _, cut := range []int{0, sectionHdrLen - 1, sectionHdrLen + 1, len(data) - 8, len(data) - 1} {
		if _, err := ReadContainer(bytes.NewReader(data[:cut]), testSecMagic, 2); !errors.Is(err, ErrTruncated) {
			t.Errorf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

// TestContainersBackToBack: containers whose last sections are not a
// multiple of 8 bytes long, written one after another into one stream, read
// back one after another, each whole and sealed.
func TestContainersBackToBack(t *testing.T) {
	var stream bytes.Buffer
	var want [][]byte
	for _, n := range []int{1, 13, 0, 7} {
		var w SectionWriter
		w.Add(1, []byte("eight by"))
		w.Add(2, bytes.Repeat([]byte{byte(n)}, n))
		before := stream.Len()
		if err := w.WriteTo(&stream, testSecMagic, 2); err != nil {
			t.Fatal(err)
		}
		if n%8 != 0 && (stream.Len()-before)%8 == 0 {
			t.Fatalf("a container ending in %d section bytes is padded to %d", n, stream.Len()-before)
		}
		want = append(want, bytes.Repeat([]byte{byte(n)}, n))
	}
	r := bytes.NewReader(stream.Bytes())
	for i, w := range want {
		m, err := ReadContainer(r, testSecMagic, 2)
		if err != nil {
			t.Fatalf("container %d: %v", i, err)
		}
		if got, _ := m.Section(2); !bytes.Equal(got, w) {
			t.Fatalf("container %d: section %q, want %q", i, got, w)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left after the last container", r.Len())
	}
}

// TestReseal: a section byte changed after the write fails the seal; resealed,
// the container opens with the changed byte.
func TestReseal(t *testing.T) {
	data, _, _, blob := buildContainer(t)
	mut := bytes.Clone(data)
	mut[len(mut)-1] ^= 0x20
	if _, err := OpenContainer(mut, testSecMagic, 2); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	Reseal(mut)
	m, err := OpenContainer(mut, testSecMagic, 2)
	if err != nil {
		t.Fatalf("resealed: %v", err)
	}
	if got, _ := m.Section(3); got[len(got)-1] != blob[len(blob)-1]^0x20 {
		t.Fatalf("resealed section = %q", got)
	}
	for _, short := range [][]byte{nil, data[:sectionHdrLen], data[:sectionHdrLen+1]} {
		Reseal(bytes.Clone(short)) // too short for its header: left as it is
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
	m, err := OpenContainer(buf.Bytes(), testSecMagic, 1)
	if err != nil {
		t.Fatalf("OpenContainer: %v", err)
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
