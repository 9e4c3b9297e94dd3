package snapshot

import "fmt"

// Writer builds a snapshot payload. All integers are little-endian and
// fixed-width; there is deliberately no varint or map encoding, so equal
// state always serializes to equal bytes.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the payload size so far.
func (w *Writer) Len() int { return len(w.buf) }

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = append(w.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 writes an int64 as its two's-complement bits.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as an int64 (platform-independent width).
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes64 writes a length-prefixed byte string.
func (w *Writer) Bytes64(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Raw writes b with no length prefix, for fixed-size blocks whose length both
// sides know (e.g. memory pages).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Mark opens a named section. The matching Reader.Expect verifies it, so a
// writer/reader skew fails with the section name instead of misparsing.
func (w *Writer) Mark(name string) { w.Str(name) }

// Reader parses a snapshot payload with a sticky error: after the first
// failure every subsequent read returns zero values, and Err reports the
// original failure. Callers read a whole section and check Err once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over payload.
func NewReader(payload []byte) *Reader { return &Reader{buf: payload} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Failf records an error (used by layers for semantic validation, e.g. a
// geometry mismatch). The first recorded error sticks.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	// n comes from the input: a negative length, or one so large that
	// r.off+n would overflow, is as truncated as any other overlong one.
	if n < 0 || n > len(r.buf)-r.off {
		r.err = fmt.Errorf("snapshot: truncated payload: need %d bytes at offset %d of %d", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Rest returns all unread bytes without consuming them.
func (r *Reader) Rest() []byte { return r.buf[r.off:] }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.U32()
	b := r.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// Bytes64 reads a length-prefixed byte string (a fresh copy).
func (r *Reader) Bytes64() []byte {
	n := r.U64()
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// Count reads an element count written by Writer.Int ahead of a list whose
// elements take at least elemBytes bytes each. The count comes from the
// input, so it is checked before it sizes anything: a negative count fails,
// and so does one the unread bytes cannot hold. On failure it returns 0, so
// a caller may size and loop by the result before checking Err.
func (r *Reader) Count(what string, elemBytes int) int {
	n := r.Int()
	switch {
	case r.err != nil:
		return 0
	case n < 0:
		r.err = fmt.Errorf("snapshot: negative %s count %d", what, n)
		return 0
	case n > len(r.buf[r.off:])/elemBytes:
		r.err = fmt.Errorf("snapshot: truncated payload: %d %s entries of %d bytes, %d bytes left", n, what, elemBytes, len(r.buf[r.off:]))
		return 0
	}
	return n
}

// Raw reads n unprefixed bytes written by Writer.Raw. The returned slice
// aliases the payload; callers copy it into their own storage.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Expect verifies a section mark written by Writer.Mark.
func (r *Reader) Expect(name string) {
	got := r.Str()
	if r.err == nil && got != name {
		r.err = fmt.Errorf("snapshot: expected section %q, found %q", name, got)
	}
}
