// Package snapio provides the one binary container every snapshot, delta and
// log segment is written in (sections.go), and the primitive encoding of the
// sections that are not dense tables.
//
// A Writer builds such a section's payload and a Reader decodes it.
// Everything inside is little endian and fixed width except strings, which
// are uvarint-length-prefixed UTF-8. The Reader is fully bounds-checked and
// error-latching: after the first failure every subsequent read returns the
// zero value and Err() reports the original problem, so decoders can be
// written as straight-line code that checks one error at the end — corrupt or
// truncated input yields a descriptive error, never a panic or partial state.
package snapio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// MagicLen is the fixed magic length in the container header.
const MagicLen = 8

// maxPayload caps a container's size so a corrupted header cannot drive a
// huge allocation. 1 GiB is far above any realistic snapshot.
const maxPayload = 1 << 30

// Sentinel errors for container-level failures; decode errors wrap these so
// callers can errors.Is on the class.
var (
	// ErrBadMagic reports a container whose magic does not match the
	// expected format identifier.
	ErrBadMagic = errors.New("snapio: bad magic")
	// ErrBadVersion reports a container version the decoder does not
	// understand.
	ErrBadVersion = errors.New("snapio: unsupported version")
	// ErrTruncated reports input shorter than its header or fields declare.
	ErrTruncated = errors.New("snapio: truncated input")
	// ErrChecksum reports bytes whose CRC does not match; errors carrying it
	// carry ErrCorrupt too.
	ErrChecksum = errors.New("snapio: checksum mismatch")
	// ErrCorrupt reports any other structural inconsistency in the payload.
	ErrCorrupt = errors.New("snapio: corrupt payload")
)

// Writer accumulates a payload. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bits, so round-trips are
// bit-identical.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Str appends a uvarint-length-prefixed string.
func (w *Writer) Str(s string) {
	w.buf = binary.AppendUvarint(w.buf, uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Payload returns the accumulated bytes, to be added as one section of a
// container.
func (w *Writer) Payload() []byte { return w.buf }

// Reader decodes a payload with latched errors and full bounds checking.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader returns a Reader over a payload a Writer built — one section of
// a container.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// fail latches the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// need reports whether n more bytes are available, latching ErrTruncated
// otherwise.
func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || r.pos+n > len(r.buf) {
		r.fail(fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, r.pos, len(r.buf)))
		return false
	}
	return true
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

// Bool reads a one-byte boolean, rejecting values other than 0 and 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if r.err == nil && v > 1 {
		r.fail(fmt.Errorf("%w: boolean byte %d", ErrCorrupt, v))
	}
	return v == 1
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str reads a uvarint-length-prefixed string.
func (r *Reader) Str() string {
	if r.err != nil {
		return ""
	}
	n, w := binary.Uvarint(r.buf[r.pos:])
	if w <= 0 {
		r.fail(fmt.Errorf("%w: bad string length at offset %d", ErrCorrupt, r.pos))
		return ""
	}
	r.pos += w
	if n > uint64(len(r.buf)-r.pos) {
		r.fail(fmt.Errorf("%w: string of %d bytes at offset %d of %d", ErrTruncated, n, r.pos, len(r.buf)))
		return ""
	}
	s := string(r.buf[r.pos : r.pos+uint64n(n)])
	r.pos += uint64n(n)
	return s
}

// uint64n narrows a validated uint64 to int.
func uint64n(n uint64) int { return int(n) }

// Count reads a uint32 element count and validates it against the bytes
// remaining, assuming each element occupies at least minElemBytes — a
// corrupted count fails here instead of driving a huge allocation.
func (r *Reader) Count(minElemBytes int) int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if minElemBytes > 0 && int(n) > (len(r.buf)-r.pos)/minElemBytes {
		r.fail(fmt.Errorf("%w: count %d exceeds remaining payload", ErrCorrupt, n))
		return 0
	}
	return int(n)
}

// Finish reports the latched error, or an error if undecoded payload bytes
// remain (a well-formed decoder consumes the payload exactly).
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf)-r.pos)
	}
	return nil
}

// Err returns the latched error without the trailing-bytes check.
func (r *Reader) Err() error { return r.err }
