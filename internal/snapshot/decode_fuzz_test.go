package snapshot

import (
	"bytes"
	"strings"
	"testing"
)

// TestReaderHostileLength feeds lengths no payload can back: a length that
// overflows the read offset, one that converts to a negative int, and a
// negative Raw size. Each must fail as truncated, not panic slicing.
func TestReaderHostileLength(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    uint64 // the length prefix in front of the payload
		read func(r *Reader)
	}{
		{"Bytes64 of 2^63-8", 1<<63 - 8, func(r *Reader) { r.Bytes64() }},
		{"Bytes64 of 2^64-1", ^uint64(0), func(r *Reader) { r.Bytes64() }},
		{"Raw of -1", 0, func(r *Reader) { r.U64(); r.Raw(-1) }},
	} {
		w := &Writer{}
		w.U64(tc.n)
		w.Raw([]byte("payload"))
		r := NewReader(w.Bytes())
		tc.read(r)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("%s: err = %v, want a truncation error", tc.name, err)
		}
	}
}

// walk reads b as a stream of Reader calls, each chosen by the next byte,
// until the reader fails or runs dry. Every iteration consumes the opcode
// byte, so the walk always ends.
func walk(b []byte) {
	r := NewReader(b)
	for r.Err() == nil && len(r.Rest()) > 0 {
		switch r.U8() % 5 {
		case 0:
			r.U32()
		case 1:
			r.U64()
		case 2:
			r.Str()
		case 3:
			r.Bytes64()
		case 4:
			r.Raw(int(r.I64()))
		}
	}
}

// FuzzDecode: arbitrary bytes decode with an error or into a payload that
// re-encodes to the same bytes, and no Reader walk over them panics; any
// payload Encode frames decodes back unchanged.
func FuzzDecode(f *testing.F) {
	const kind = "machine"
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := Decode(data, kind)
		if err == nil {
			if !bytes.Equal(Encode(kind, payload), data) {
				t.Fatal("decoded container does not re-encode byte-identically")
			}
			walk(payload)
		}
		walk(data)

		got, err := Decode(Encode(kind, data), kind)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Encode/Decode round trip: err = %v, payload equal = %v", err, bytes.Equal(got, data))
		}
	})
}
