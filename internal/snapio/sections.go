// Section-table container: the mmap-friendly snapshot layout.
//
// The frame format in snapio.go serializes every table through an encoder,
// which forces the reader to decode — and therefore allocate — each table on
// load. The section container instead stores every dense table in its exact
// in-memory wire layout, 8-byte aligned, behind a CRC-covered header of
// section offsets:
//
//	magic    [8]byte   format identifier, ASCII
//	version  uint32    format version
//	order    uint32    byte-order marker (orderMarker written natively)
//	count    uint32    number of sections
//	reserved uint32    zero
//	table    [count]{id uint32, reserved uint32, offset uint64, length uint64}
//	crc32    uint32    IEEE CRC of everything above
//	pad to 8 bytes
//	sections, each starting 8-byte aligned, padded with zero bytes
//
// Loading is mmap (or one aligned read on platforms without mmap) plus
// structural validation of the header: offsets must be 8-aligned, in bounds,
// and non-overlapping. Section payloads are NOT checksummed — that is the
// point: a reader casts a section straight into a typed slice without
// touching its pages, so cold start is O(page faults) and every process
// mapping the same file shares one physical copy. Dense tables are written
// in host byte order; the order marker makes a snapshot written on a
// different-endian host fail loudly instead of decoding garbage.
package snapio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
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
// aligned payloads) to out.
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
	binary.LittleEndian.PutUint32(hdr[hdrLen-4:],
		crc32.ChecksumIEEE(hdr[:hdrLen-4]))

	if _, err := out.Write(hdr); err != nil {
		return err
	}
	var zeros [sectionAlign]byte
	for _, data := range w.data {
		if _, err := out.Write(data); err != nil {
			return err
		}
		if p := pad8(uint64(len(data))); p > 0 {
			if _, err := out.Write(zeros[:p]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Mapped is a validated, read-only view over a section container — memory
// mapped when the platform supports it, a private heap copy otherwise.
// Sections alias the mapping and must be treated as immutable; Close
// releases the mapping, after which no section (or anything derived from
// one, including unsafe string views) may be touched again.
type Mapped struct {
	data     []byte
	sections map[uint32][]byte
	closeFn  func() error
}

// OpenMappedBytes validates data as a section container of the given magic
// and version. The bytes are copied into an 8-aligned private buffer only
// when data itself is misaligned (heap buffers almost always are aligned;
// fuzzing inputs may not be). Close on the result is a no-op.
func OpenMappedBytes(data []byte, magic string, version uint32) (*Mapped, error) {
	if len(data) > 0 && uintptr(unsafe.Pointer(&data[0]))%sectionAlign != 0 {
		aligned := make([]uint64, (len(data)+7)/8)
		buf := unsafe.Slice((*byte)(unsafe.Pointer(&aligned[0])), len(data))
		copy(buf, data)
		data = buf
	}
	return newMapped(data, magic, version, nil)
}

// CheckHeader reads a section container's magic and version from r and
// checks them, leaving the rest unread: the registration-time check of a
// file whose full open waits for first use.
func CheckHeader(r io.Reader, magic string, version uint32) error {
	var hdr [MagicLen + 4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: section header: %v", ErrTruncated, err)
	}
	return checkPrefix(hdr[:], magic, version)
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

// checkCRC checks a whole header against the CRC that ends it.
func checkCRC(hdr []byte) error {
	n := len(hdr) - 4
	if want, have := binary.LittleEndian.Uint32(hdr[n:]), crc32.ChecksumIEEE(hdr[:n]); want != have {
		return fmt.Errorf("%w: header CRC have %08x, want %08x", ErrChecksum, have, want)
	}
	return nil
}

// ReadMapped reads a section container from r, through the end of its last
// section's data, into an aligned heap buffer sized by its header, then
// validates it as OpenMappedBytes does. Close on the result is a no-op.
func ReadMapped(r io.Reader, magic string, version uint32) (*Mapped, error) {
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
	if err := checkCRC(hdr); err != nil {
		return nil, err
	}
	end := uint64(hdrLen)
	for i := 0; i < (hdrLen-sectionHdrLen-4)/sectionEntryLen; i++ {
		e := hdr[sectionHdrLen+sectionEntryLen*i:]
		off, length := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		if off > maxPayload || length > maxPayload-off {
			return nil, fmt.Errorf("%w: section [%d,+%d) exceeds %d bytes", ErrCorrupt, off, length, maxPayload)
		}
		end = max(end, off+length)
	}
	buf := make([]uint64, (end+pad8(end))/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), end)
	copy(data, hdr)
	if _, err := io.ReadFull(r, data[hdrLen:]); err != nil {
		return nil, fmt.Errorf("%w: %d-byte container: %v", ErrTruncated, end, err)
	}
	return newMapped(data, magic, version, nil)
}

// newMapped validates the container and builds the section index.
func newMapped(data []byte, magic string, version uint32, closeFn func() error) (*Mapped, error) {
	if len(data) < sectionHdrLen+4 {
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
	if err := checkCRC(data[:hdrLen]); err != nil {
		return nil, err
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
	return &Mapped{data: data, sections: sections, closeFn: closeFn}, nil
}

// Size returns the mapped length in bytes.
func (m *Mapped) Size() int64 { return int64(len(m.data)) }

// Bytes returns the full mapped container, header and all — the exact bytes
// on disk, which is what snapshot streaming serves to a bootstrapping
// replica. The slice aliases the mapping: callers must copy anything that
// outlives their pin on the session.
func (m *Mapped) Bytes() []byte { return m.data }

// Section returns the raw bytes of section id; ok is false when absent.
// The slice aliases the mapping.
func (m *Mapped) Section(id uint32) ([]byte, bool) {
	b, ok := m.sections[id]
	return b, ok
}

// Close releases the mapping. Idempotent; no section may be used after.
func (m *Mapped) Close() error {
	fn := m.closeFn
	m.closeFn = nil
	if fn != nil {
		return fn()
	}
	return nil
}

// The typed section views cast the raw bytes in place (zero copy). Length
// must divide evenly by the element size; alignment is guaranteed by the
// container's 8-aligned offsets.

// I32Section returns section id as an []int32 view.
func (m *Mapped) I32Section(id uint32) ([]int32, error) {
	b, err := m.need(id, 4)
	if err != nil || len(b) == 0 {
		return nil, err
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4), nil
}

// I64Section returns section id as an []int64 view.
func (m *Mapped) I64Section(id uint32) ([]int64, error) {
	b, err := m.need(id, 8)
	if err != nil || len(b) == 0 {
		return nil, err
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8), nil
}

// F64Section returns section id as a []float64 view.
func (m *Mapped) F64Section(id uint32) ([]float64, error) {
	b, err := m.need(id, 8)
	if err != nil || len(b) == 0 {
		return nil, err
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8), nil
}

// need fetches a section and validates its length divides the element size.
func (m *Mapped) need(id uint32, elem int) ([]byte, error) {
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

// I64Bytes views an []int64 as raw bytes.
func I64Bytes(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

// F64Bytes views a []float64 as raw bytes.
func F64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

// NewReader returns a Reader over an in-memory payload — how a container's
// encoder-built sections (see Payload) are decoded.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Payload exposes a Writer's accumulated bytes without framing, for
// embedding an encoder-built table as one section of a container.
func (w *Writer) Payload() []byte { return w.buf }
