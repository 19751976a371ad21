// Section-table container: the one layout every snapshot, delta and segment
// is written in.
//
// The container stores every table in its exact in-memory wire layout,
// 8-byte aligned, behind a CRC-covered header of section offsets:
//
//	magic    [8]byte   format identifier, ASCII
//	version  uint32    format version
//	order    uint32    byte-order marker (orderMarker written natively)
//	count    uint32    number of sections
//	seal     uint32    IEEE CRC of everything after the header CRC
//	table    [count]{id uint32, reserved uint32, offset uint64, length uint64}
//	crc32    uint32    IEEE CRC of everything above
//	pad to 8 bytes
//	sections, each starting 8-byte aligned, the gaps between them zero
//
// The container ends at its last section's last byte: no padding follows
// it, so containers laid back to back in one stream each read exactly their
// own bytes, and a buffer or file that runs past that end fails to open
// (ErrCorrupt) — no seal covers those bytes.
//
// Loading is one read into an 8-aligned heap buffer — of exactly the file's
// size (ReadContainerFile), or sized by the header from a stream
// (ReadContainer) — plus structural validation of the header (offsets must
// be 8-aligned, in bounds, and non-overlapping) and then the seal: every byte
// a reader can reach is covered by the header CRC or by the seal, so a
// damaged container fails to open with ErrChecksum before any section is
// handed out. A reader then casts a section straight into a typed slice — no
// decode loop, no further copy — and the section's owner still validates what
// it takes, since a correctly sealed container is still outside input. The
// buffer is an ordinary heap object: whatever aliases it keeps it alive, and
// nothing releases it by hand. Dense tables are written in host byte order;
// the order marker makes a snapshot written on a different-endian host fail
// loudly instead of decoding garbage.
package snapio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"unsafe"
)

// orderMarker is written in host byte order and compared against its
// little-endian reading; a mismatch means the snapshot was written on a
// host with different endianness (rebuild it there).
const orderMarker uint32 = 0x01020304

// sectionAlign is the alignment every section offset honors, chosen for the
// widest element type the tables hold (int64/float64).
const sectionAlign = 8

// sectionHdrLen is the fixed header prefix before the section table.
const sectionHdrLen = MagicLen + 4 + 4 + 4 + 4

// sealOff is where the seal lies in the header prefix.
const sealOff = MagicLen + 12

// sectionEntryLen is one section-table entry.
const sectionEntryLen = 4 + 4 + 8 + 8

// maxSections caps the declared section count so a corrupt header cannot
// drive a huge allocation or scan.
const maxSections = 1 << 10

// SectionWriter accumulates named sections and writes the complete
// container. The zero value is ready to use. Section data slices are
// retained until WriteTo, not copied.
type SectionWriter struct {
	ids  []uint32
	data [][]byte
}

// Add appends a section. Ids must be unique; order is preserved.
func (w *SectionWriter) Add(id uint32, data []byte) {
	w.ids = append(w.ids, id)
	w.data = append(w.data, data)
}

// pad8 returns the zero padding needed to align n up to sectionAlign.
func pad8(n uint64) uint64 { return (sectionAlign - n%sectionAlign) % sectionAlign }

// WriteTo writes the full container (header, CRC-covered section table,
// aligned payloads, the seal over them) to out.
func (w *SectionWriter) WriteTo(out io.Writer, magic string, version uint32) error {
	if len(magic) != MagicLen {
		return fmt.Errorf("snapio: magic %q must be %d bytes", magic, MagicLen)
	}
	if len(w.ids) > maxSections {
		return fmt.Errorf("snapio: %d sections exceeds %d", len(w.ids), maxSections)
	}
	seen := map[uint32]bool{}
	for _, id := range w.ids {
		if seen[id] {
			return fmt.Errorf("snapio: duplicate section id %d", id)
		}
		seen[id] = true
	}

	hdrLen := uint64(sectionHdrLen + sectionEntryLen*len(w.ids) + 4)
	hdr := make([]byte, hdrLen+pad8(hdrLen))
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[MagicLen:], version)
	// The order marker is written through the same unsafe cast the dense
	// sections use, so it records the byte order of the payload tables.
	*(*uint32)(unsafe.Pointer(&hdr[MagicLen+4])) = orderMarker
	binary.LittleEndian.PutUint32(hdr[MagicLen+8:], uint32(len(w.ids)))

	off := uint64(len(hdr))
	for i, id := range w.ids {
		e := hdr[sectionHdrLen+sectionEntryLen*i:]
		binary.LittleEndian.PutUint32(e, id)
		binary.LittleEndian.PutUint64(e[8:], off)
		binary.LittleEndian.PutUint64(e[16:], uint64(len(w.data[i])))
		off += uint64(len(w.data[i]))
		off += pad8(off)
	}
	// The zero gap that aligns the section after data i; none follows the
	// last section, where the container ends.
	var zeros [sectionAlign]byte
	gap := func(i int) []byte {
		if i == len(w.data)-1 {
			return nil
		}
		return zeros[:pad8(uint64(len(w.data[i])))]
	}
	seal := crc32.ChecksumIEEE(hdr[hdrLen:])
	for i, data := range w.data {
		seal = crc32.Update(seal, crc32.IEEETable, data)
		seal = crc32.Update(seal, crc32.IEEETable, gap(i))
	}
	sealHeader(hdr[:hdrLen], seal)

	if _, err := out.Write(hdr); err != nil {
		return err
	}
	for i, data := range w.data {
		if _, err := out.Write(data); err != nil {
			return err
		}
		if g := gap(i); len(g) > 0 {
			if _, err := out.Write(g); err != nil {
				return err
			}
		}
	}
	return nil
}

// sealHeader stores seal in a whole header (CRC included) and ends it with
// the CRC of everything before the CRC.
func sealHeader(hdr []byte, seal uint32) {
	binary.LittleEndian.PutUint32(hdr[sealOff:], seal)
	n := len(hdr) - 4
	binary.LittleEndian.PutUint32(hdr[n:], crc32.ChecksumIEEE(hdr[:n]))
}

// Reseal rewrites, in place, the seal and the header CRC of the container at
// the start of data to match the bytes data holds, as WriteTo would have
// written them: how a test that damages a container on purpose lets the
// damage reach the checks behind the seal. Data too short for the header it
// declares is left as it is.
func Reseal(data []byte) {
	if len(data) < sectionHdrLen {
		return
	}
	count := binary.LittleEndian.Uint32(data[MagicLen+8:])
	hdrLen := sectionHdrLen + sectionEntryLen*int(count) + 4
	if count > maxSections || len(data) < hdrLen {
		return
	}
	end, err := sectionsEnd(data[:hdrLen])
	if err != nil || end > uint64(len(data)) {
		end = uint64(len(data))
	}
	sealHeader(data[:hdrLen], crc32.ChecksumIEEE(data[hdrLen:end]))
}

// Container is a validated, read-only view over a section container held in
// one 8-aligned heap buffer. Sections alias the buffer and must be treated
// as immutable: nothing checks a write, and a write into a section is a write
// into every table cast from it. The buffer lives as long as anything
// references it — a section or a typed view.
type Container struct {
	data     []byte // header through the last section's data
	sections map[uint32][]byte
}

// alignedBytes returns n zero bytes (n > 0) starting on a sectionAlign
// boundary, which every section's typed cast relies on.
func alignedBytes(n uint64) []byte {
	buf := make([]uint64, (n+sectionAlign-1)/sectionAlign)
	return unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), n)
}

// OpenContainer validates data as a section container of the given magic
// and version. The bytes are copied into an 8-aligned buffer only when data
// itself is misaligned (heap buffers almost always are aligned; fuzzing
// inputs may not be).
func OpenContainer(data []byte, magic string, version uint32) (*Container, error) {
	if len(data) > 0 && uintptr(unsafe.Pointer(&data[0]))%sectionAlign != 0 {
		buf := alignedBytes(uint64(len(data)))
		copy(buf, data)
		data = buf
	}
	return newContainer(data, magic, version)
}

// ReadContainerFile reads the container at path into one 8-aligned heap buffer
// of exactly the file's size and validates it as OpenContainer does. The
// size comes from the file, never from its header: an empty file is
// ErrTruncated, one over the payload cap ErrCorrupt, and a header declaring
// sections past the end of the file fails with ErrTruncated having allocated
// no more than the file. Like every container, the file must end where its
// last section's data ends (see newContainer).
func ReadContainerFile(path string, magic string, version uint32) (*Container, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return nil, fmt.Errorf("%w: empty file %s", ErrTruncated, path)
	}
	if size > maxPayload {
		return nil, fmt.Errorf("%w: %s is %d bytes, exceeds %d", ErrCorrupt, path, size, maxPayload)
	}
	data := alignedBytes(uint64(size))
	if _, err := io.ReadFull(f, data); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("%w: %s shrank below its %d bytes while read", ErrTruncated, path, size)
		}
		return nil, fmt.Errorf("snapio: read %s: %w", path, err)
	}
	return newContainer(data, magic, version)
}

// checkPrefix checks the magic and version a container opens with. A
// container carries exactly one version: older and newer ones are both
// ErrBadVersion.
func checkPrefix(hdr []byte, magic string, version uint32) error {
	if string(hdr[:MagicLen]) != magic {
		return fmt.Errorf("%w: have %q, want %q", ErrBadMagic, hdr[:MagicLen], magic)
	}
	if have := binary.LittleEndian.Uint32(hdr[MagicLen:]); have != version {
		return fmt.Errorf("%w: version %d (decoder reads %d)", ErrBadVersion, have, version)
	}
	return nil
}

// tableLen checks the fixed prefix of a container header — magic, version,
// byte order, section count — and returns the length of the whole header
// it declares, CRC included.
func tableLen(hdr []byte, magic string, version uint32) (int, error) {
	if err := checkPrefix(hdr, magic, version); err != nil {
		return 0, err
	}
	if *(*uint32)(unsafe.Pointer(&hdr[MagicLen+4])) != orderMarker {
		return 0, fmt.Errorf("%w: snapshot was written on a host with different byte order — rebuild it", ErrCorrupt)
	}
	count := binary.LittleEndian.Uint32(hdr[MagicLen+8:])
	if count > maxSections {
		return 0, fmt.Errorf("%w: %d sections exceeds %d", ErrCorrupt, count, maxSections)
	}
	return sectionHdrLen + sectionEntryLen*int(count) + 4, nil
}

// checksumErr reports a CRC that does not match the bytes it covers: an
// ErrChecksum, which is a kind of ErrCorrupt.
func checksumErr(what string, have, want uint32) error {
	return fmt.Errorf("%w: %w: %s CRC have %08x, want %08x", ErrCorrupt, ErrChecksum, what, have, want)
}

// containerEnd checks a whole header (CRC included) and returns where the
// container it declares ends. Both openers check this before anything else in
// the table, so a container cut short fails the same way read from a stream
// as from a file.
func containerEnd(hdr []byte) (uint64, error) {
	n := len(hdr) - 4
	if want, have := binary.LittleEndian.Uint32(hdr[n:]), crc32.ChecksumIEEE(hdr[:n]); want != have {
		return 0, checksumErr("header", have, want)
	}
	return sectionsEnd(hdr)
}

// sectionsEnd returns where the container a whole header declares ends: the
// end of its last section's data, or of the header's padding when no section
// lies past it. A section reaching past the payload cap is ErrCorrupt.
func sectionsEnd(hdr []byte) (uint64, error) {
	end := uint64(len(hdr)) + pad8(uint64(len(hdr)))
	for i := 0; i < (len(hdr)-sectionHdrLen-4)/sectionEntryLen; i++ {
		e := hdr[sectionHdrLen+sectionEntryLen*i:]
		off, length := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		if off > maxPayload || length > maxPayload-off {
			return 0, fmt.Errorf("%w: section [%d,+%d) exceeds %d bytes", ErrCorrupt, off, length, maxPayload)
		}
		end = max(end, off+length)
	}
	return end, nil
}

// ReadContainer reads a section container from r, through the end of its last
// section's data and not a byte further, into an aligned heap buffer sized by
// its header, then validates it as OpenContainer does.
func ReadContainer(r io.Reader, magic string, version uint32) (*Container, error) {
	hdr := make([]byte, sectionHdrLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: section header: %v", ErrTruncated, err)
	}
	hdrLen, err := tableLen(hdr, magic, version)
	if err != nil {
		return nil, err
	}
	hdr = append(hdr, make([]byte, hdrLen-sectionHdrLen)...)
	if _, err := io.ReadFull(r, hdr[sectionHdrLen:]); err != nil {
		return nil, fmt.Errorf("%w: section table: %v", ErrTruncated, err)
	}
	end, err := containerEnd(hdr)
	if err != nil {
		return nil, err
	}
	data := alignedBytes(end)
	copy(data, hdr)
	if _, err := io.ReadFull(r, data[hdrLen:]); err != nil {
		return nil, fmt.Errorf("%w: %d-byte container: %v", ErrTruncated, end, err)
	}
	return newContainer(data, magic, version)
}

// newContainer validates the container — its header, then the layout of its
// sections, then the seal over them, then that data ends where the last
// section's data ends — and builds the section index. Bytes after that end
// are ErrCorrupt whichever opener brought them: no seal covers them, and a
// stream reader stops before them.
func newContainer(data []byte, magic string, version uint32) (*Container, error) {
	if len(data) < sectionHdrLen {
		return nil, fmt.Errorf("%w: %d bytes is smaller than a section header", ErrTruncated, len(data))
	}
	hdrLen, err := tableLen(data, magic, version)
	if err != nil {
		return nil, err
	}
	if len(data) < hdrLen {
		return nil, fmt.Errorf("%w: header declares %d sections but only %d bytes present",
			ErrTruncated, (hdrLen-sectionHdrLen-4)/sectionEntryLen, len(data))
	}
	end, err := containerEnd(data[:hdrLen])
	if err != nil {
		return nil, err
	}
	if end > uint64(len(data)) {
		return nil, fmt.Errorf("%w: sections run to byte %d, only %d present", ErrTruncated, end, len(data))
	}
	count := (hdrLen - sectionHdrLen - 4) / sectionEntryLen

	type span struct {
		id       uint32
		off, end uint64
	}
	spans := make([]span, count)
	sections := make(map[uint32][]byte, count)
	minOff := uint64(hdrLen) + pad8(uint64(hdrLen))
	for i := range spans {
		e := data[sectionHdrLen+sectionEntryLen*i:]
		id := binary.LittleEndian.Uint32(e)
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		if off%sectionAlign != 0 {
			return nil, fmt.Errorf("%w: section %d offset %d is not %d-aligned", ErrCorrupt, id, off, sectionAlign)
		}
		if off < minOff || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("%w: section %d [%d,+%d) outside payload of %d bytes", ErrTruncated, id, off, length, len(data))
		}
		if _, dup := sections[id]; dup {
			return nil, fmt.Errorf("%w: duplicate section id %d", ErrCorrupt, id)
		}
		spans[i] = span{id: id, off: off, end: off + length}
		sections[id] = data[off : off+length : off+length]
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].off < spans[b].off })
	for i := 1; i < len(spans); i++ {
		if spans[i].off < spans[i-1].end {
			return nil, fmt.Errorf("%w: sections %d and %d overlap", ErrCorrupt, spans[i-1].id, spans[i].id)
		}
	}
	if have, want := crc32.ChecksumIEEE(data[hdrLen:end]), binary.LittleEndian.Uint32(data[sealOff:]); have != want {
		return nil, checksumErr("section", have, want)
	}
	if end != uint64(len(data)) {
		return nil, fmt.Errorf("%w: %d bytes run past the container's end at byte %d", ErrCorrupt, uint64(len(data))-end, end)
	}
	return &Container{data: data, sections: sections}, nil
}

// Section returns the raw bytes of section id; ok is false when absent.
// The slice aliases the container.
func (m *Container) Section(id uint32) ([]byte, bool) {
	b, ok := m.sections[id]
	return b, ok
}

// The typed section views cast the raw bytes in place (zero copy). Length
// must divide evenly by the element size; alignment is guaranteed by the
// container's 8-aligned offsets.

// I32Section returns section id as an []int32 view.
func (m *Container) I32Section(id uint32) ([]int32, error) {
	b, err := m.need(id, 4)
	if err != nil || len(b) == 0 {
		return nil, err
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4), nil
}

// I64Section returns section id as an []int64 view.
func (m *Container) I64Section(id uint32) ([]int64, error) {
	b, err := m.need(id, 8)
	if err != nil || len(b) == 0 {
		return nil, err
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8), nil
}

// F64Section returns section id as a []float64 view.
func (m *Container) F64Section(id uint32) ([]float64, error) {
	b, err := m.need(id, 8)
	if err != nil || len(b) == 0 {
		return nil, err
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8), nil
}

// need fetches a section and validates its length divides the element size.
func (m *Container) need(id uint32, elem int) ([]byte, error) {
	b, ok := m.sections[id]
	if !ok {
		return nil, fmt.Errorf("%w: section %d missing", ErrCorrupt, id)
	}
	if len(b)%elem != 0 {
		return nil, fmt.Errorf("%w: section %d length %d not a multiple of %d", ErrCorrupt, id, len(b), elem)
	}
	return b, nil
}

// The inverse casts, for writers laying dense tables into sections without
// an encode pass. The returned bytes alias the slice.

// I32Bytes views an []int32 as raw bytes.
func I32Bytes(v []int32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
}

// F64Bytes views a []float64 as raw bytes.
func F64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}
