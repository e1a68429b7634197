package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/timestamp"
)

func TestReaderRoundTrip(t *testing.T) {
	ts := timestamp.TS{Clock: 0x01020304, Writer: 5}
	var b []byte
	b = append(b, 0xAA)
	b = binary.LittleEndian.AppendUint32(b, 0xBBCCDDEE)
	b = binary.LittleEndian.AppendUint64(b, 0x1122334455667788)
	b = AppendTS(b, ts)
	b = AppendBytes(b, []byte("value"))
	b = AppendBytes(b, nil)
	b = binary.LittleEndian.AppendUint32(b, 2) // a count of two 8-byte entries
	b = binary.LittleEndian.AppendUint64(b, 7)
	b = binary.LittleEndian.AppendUint64(b, 8)

	r := NewReader(b)
	if r.U8() != 0xAA || r.U32() != 0xBBCCDDEE || r.U64() != 0x1122334455667788 || r.TS() != ts {
		t.Fatal("fixed-size fields do not round-trip")
	}
	if v := r.Bytes(); string(v) != "value" {
		t.Fatalf("Bytes = %q", v)
	}
	if v := r.Bytes(); len(v) != 0 {
		t.Fatalf("empty Bytes = %q", v)
	}
	n := r.Count(8, 2)
	if n != 2 || r.U64() != 7 || r.U64() != 8 {
		t.Fatalf("Count = %d, or its entries do not follow it", n)
	}
	if !r.Ok() || r.Len() != 0 {
		t.Fatalf("Ok %v with %d bytes left after reading everything", r.Ok(), r.Len())
	}
}

// A short read empties the reader: every later read fails and returns zeros,
// even one whose bytes were there before, so a decoder checks Ok once.
func TestShortReadIsSticky(t *testing.T) {
	b := binary.LittleEndian.AppendUint32(nil, 9)
	b = append(b, 1, 2, 3) // U64 needs 8, only 7 are there
	r := NewReader(b)
	if v := r.U64(); v != 0 || r.Ok() || r.Len() != 0 {
		t.Fatalf("short U64 = %d, Ok %v, Len %d", v, r.Ok(), r.Len())
	}
	if r.U8() != 0 || r.U32() != 0 || r.U64() != 0 || r.TS() != (timestamp.TS{}) ||
		r.Bytes() != nil || r.Count(0, 10) != 0 || r.Rest() != nil || r.Ok() {
		t.Fatal("a read after a short read succeeded")
	}

	r = NewReader([]byte{1, 2})
	r.Fail()
	if r.Ok() || r.Len() != 0 || r.U8() != 0 {
		t.Fatal("Fail left bytes to read")
	}
}

// A length prefix is compared, unsigned, with the bytes left: 0xFFFFFFFF is -1
// as a 32-bit int and must neither pass the check nor reach a slice expression.
func TestBytesRefusesLyingLength(t *testing.T) {
	for _, n := range []uint32{0xFFFFFFFF, 0x80000000, 6} {
		b := binary.LittleEndian.AppendUint32(nil, n)
		b = append(b, "value"...)
		r := NewReader(b)
		if v := r.Bytes(); v != nil || r.Ok() || r.Len() != 0 {
			t.Fatalf("length %#x over 5 bytes: got %q, Ok %v", n, v, r.Ok())
		}
	}
}

func TestCountBounds(t *testing.T) {
	count := func(n uint32, rest int) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, n), make([]byte, rest)...)
	}
	for _, tc := range []struct {
		name         string
		in           []byte
		minSize, max int
		want         int
		ok           bool
	}{
		{"fits", count(3, 24), 8, 10, 3, true},
		{"at max", count(10, 80), 8, 10, 10, true},
		{"over max", count(11, 88), 8, 10, 0, false},
		{"entries past the end", count(4, 24), 8, 10, 0, false},
		// 2^29 entries of 8 bytes are 2^32 bytes: a 32-bit product wraps to 0.
		{"product wraps 32 bits", count(1<<29, 0), 8, 1 << 30, 0, false},
		{"0xFFFFFFFF", count(0xFFFFFFFF, 8), 1, 1 << 30, 0, false},
		{"zero-size entries", count(5, 0), 0, 10, 5, true},
		{"no count", []byte{1, 2, 3}, 1, 10, 0, false},
	} {
		r := NewReader(tc.in)
		if got := r.Count(tc.minSize, tc.max); got != tc.want || r.Ok() != tc.ok {
			t.Errorf("%s: Count = %d, Ok %v; want %d, %v", tc.name, got, r.Ok(), tc.want, tc.ok)
		}
	}
}

// Returned byte strings alias the input with their capacity clipped: an
// append to one reallocates instead of overwriting the field behind it.
func TestBytesCapacityClipped(t *testing.T) {
	b := AppendBytes(nil, []byte("ab"))
	b = AppendBytes(b, []byte("cd"))
	r := NewReader(b)
	first := r.Bytes()
	if cap(first) != len(first) || &first[0] != &b[4] {
		t.Fatalf("Bytes = %q with cap %d; want a clipped window of the input", first, cap(first))
	}
	_ = append(first, 'X', 'X', 'X', 'X')
	if second := r.Bytes(); string(second) != "cd" || !r.Ok() {
		t.Fatalf("the field after an appended-to value reads %q", second)
	}
	if !bytes.Equal(b[6:8], []byte{2, 0}) {
		t.Fatal("append to a returned value wrote into the input")
	}
	rest := NewReader([]byte("xyz"))
	if got := rest.Rest(); string(got) != "xyz" || rest.Len() != 0 || !rest.Ok() {
		t.Fatalf("Rest = %q, Len %d after", got, rest.Len())
	}
}
