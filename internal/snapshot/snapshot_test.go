package snapshot

import (
	"strings"
	"testing"
)

func TestWireRoundTrip(t *testing.T) {
	w := &Writer{}
	w.Mark("sect")
	w.U8(0xab)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.I64(-42)
	w.Int(192)
	w.Bool(true)
	w.Bool(false)
	w.Str("hello")
	w.Bytes64([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	r.Expect("sect")
	if got := r.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != 192 {
		t.Errorf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Errorf("Bool round trip broken")
	}
	if got := r.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	b := r.Bytes64()
	if len(b) != 3 || b[0] != 1 || b[2] != 3 {
		t.Errorf("Bytes64 = %v", b)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("clean round trip errored: %v", err)
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2})
	_ = r.U64() // truncated
	if r.Err() == nil {
		t.Fatal("truncated read did not error")
	}
	first := r.Err()
	_ = r.U64()
	_ = r.Str()
	if r.Err() != first {
		t.Fatalf("error not sticky: %v then %v", first, r.Err())
	}
}

// TestReaderCount checks a count is accepted only when the unread bytes can
// hold that many elements, and that a refused count reads as 0.
func TestReaderCount(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string // error substring; empty for success
	}{
		{2, ""},
		{3, "truncated"},
		{-1, "negative list count"},
		{1 << 62, "truncated"},
	} {
		w := &Writer{}
		w.Int(tc.n)
		w.Raw(make([]byte, 2*8))
		r := NewReader(w.Bytes())
		got := r.Count("list", 8)
		if tc.want == "" {
			if got != tc.n || r.Err() != nil {
				t.Errorf("Count(%d) = %d, %v", tc.n, got, r.Err())
			}
			continue
		}
		if got != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), tc.want) {
			t.Errorf("Count(%d) = %d, %v; want 0 and an error containing %q", tc.n, got, r.Err(), tc.want)
		}
	}
}

func TestExpectMismatch(t *testing.T) {
	w := &Writer{}
	w.Mark("bpred")
	r := NewReader(w.Bytes())
	r.Expect("cache")
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "bpred") {
		t.Fatalf("section mismatch error = %v, want it to name the found section", err)
	}
}

func TestContainer(t *testing.T) {
	payload := []byte("state bytes")
	data := Encode("machine", payload)

	got, err := Decode(data, "machine")
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}

	if _, err := Decode(data, "other"); err == nil {
		t.Error("wrong kind accepted")
	}
	if _, err := Decode([]byte("XXXX"), "machine"); err == nil {
		t.Error("bad magic accepted")
	}

	// Flip one payload byte: the self-digest must catch it.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-1] ^= 0x01
	if _, err := Decode(corrupt, "machine"); err == nil {
		t.Error("corrupt payload accepted")
	}

	// Truncate: must error, not panic.
	if _, err := Decode(data[:len(data)-4], "machine"); err == nil {
		t.Error("truncated container accepted")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a := Encode("k", []byte{9, 8, 7})
	b := Encode("k", []byte{9, 8, 7})
	if string(a) != string(b) {
		t.Fatal("Encode is not deterministic")
	}
}
