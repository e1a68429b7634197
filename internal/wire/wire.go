// Package wire is the one codec for bytes that cross a process boundary as
// a slice: every rpc, session and consistency entry is read through a Reader
// and its timestamps and byte strings are written by AppendTS and AppendBytes.
// All fields are little endian. A timestamp is clock(4) writer(1); a byte
// string is len(4) followed by the bytes.
//
// A decoder reads a whole entry and checks Ok once. A read that would pass the
// end of the input empties the Reader and marks it short, so every later read
// fails too and returns zeros — no read panics, whatever the input says. A
// length or count is compared, as an unsigned number, with the bytes left
// before it is converted to an int, so a lying prefix cannot wrap a 32-bit int
// into passing the check or size an allocation.
package wire

import (
	"encoding/binary"

	"repro/internal/timestamp"
)

// Reader reads fields off the front of a byte slice.
type Reader struct {
	b     []byte
	short bool
}

// NewReader returns a Reader over b. Slices it returns alias b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Ok reports whether every read so far found its bytes.
func (r *Reader) Ok() bool { return !r.short }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Rest returns the unread bytes and leaves the Reader empty.
func (r *Reader) Rest() []byte {
	b := r.b
	r.b = nil
	return b
}

// Fail marks the Reader short and drops the unread bytes: for a decoder that
// finds a field it cannot accept, so that the entry fails like a short one.
func (r *Reader) Fail() {
	r.b = nil
	r.short = true
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if len(r.b) < 1 {
		r.Fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if len(r.b) < 4 {
		r.Fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if len(r.b) < 8 {
		r.Fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// TS reads a timestamp: clock(4) writer(1).
func (r *Reader) TS() timestamp.TS {
	if len(r.b) < 5 {
		r.Fail()
		return timestamp.TS{}
	}
	ts := timestamp.TS{Clock: binary.LittleEndian.Uint32(r.b), Writer: r.b[4]}
	r.b = r.b[5:]
	return ts
}

// Bytes reads a byte string: len(4) bytes. The result aliases the input and
// its capacity is clipped to its length, so an append to it copies instead of
// overwriting the field behind it.
func (r *Reader) Bytes() []byte {
	n := r.U32()
	if uint64(n) > uint64(len(r.b)) {
		r.Fail()
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Count reads count(4), the number of entries that follow, each at least
// minSize bytes long. It refuses a count above max and one whose entries
// could not fit in the unread bytes, so a caller may size an allocation by
// the result.
func (r *Reader) Count(minSize, max int) int {
	n := uint64(r.U32())
	if n > uint64(max) || n*uint64(minSize) > uint64(len(r.b)) {
		r.Fail()
		return 0
	}
	return int(n)
}

// AppendTS appends a timestamp in the form TS reads.
func AppendTS(b []byte, ts timestamp.TS) []byte {
	b = binary.LittleEndian.AppendUint32(b, ts.Clock)
	return append(b, ts.Writer)
}

// AppendBytes appends v in the form Bytes reads.
func AppendBytes(b []byte, v []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}
