package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/timestamp"
)

func TestProtocolString(t *testing.T) {
	if SC.String() != "SC" || Lin.String() != "Lin" {
		t.Fatalf("protocol names wrong")
	}
	if Protocol(9).String() == "" {
		t.Fatalf("unknown protocol must render")
	}
}

func TestMsgTypeString(t *testing.T) {
	for mt, want := range map[MsgType]string{
		MsgUpdate: "update", MsgInvalidation: "invalidation", MsgAck: "ack",
	} {
		if mt.String() != want {
			t.Fatalf("%v != %s", mt, want)
		}
	}
	if MsgType(0).String() == "" {
		t.Fatalf("unknown type must render")
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	u := Update{Key: 0xdeadbeef, TS: timestamp.TS{Clock: 77, Writer: 3}, Value: []byte("payload")}
	buf := u.Encode(nil)
	if len(buf) != u.Msg().Size() {
		t.Fatalf("encoded %d bytes, Size says %d", len(buf), u.Msg().Size())
	}
	got, n, err := Decode(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: %v n=%d", err, n)
	}
	if got.Type != MsgUpdate || got.Key != u.Key || got.TS != u.TS || !bytes.Equal(got.Value, u.Value) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestInvalidationRoundTrip(t *testing.T) {
	i := Invalidation{Key: 42, TS: timestamp.TS{Clock: 1, Writer: 2}, From: 7}
	buf := i.Encode(nil)
	if len(buf) != i.Msg().Size() {
		t.Fatalf("size mismatch")
	}
	got, n, err := Decode(buf)
	if err != nil || n != len(buf) || got.Type != MsgInvalidation || (Invalidation{got.Key, got.TS, got.From}) != i {
		t.Fatalf("round trip: %+v %d %v", got, n, err)
	}
}

func TestAckRoundTrip(t *testing.T) {
	a := Ack{Key: 9, TS: timestamp.TS{Clock: 5, Writer: 1}, From: 4}
	buf := a.Encode(nil)
	got, n, err := Decode(buf)
	if err != nil || n != len(buf) || got.Type != MsgAck || (Ack{got.Key, got.TS, got.From}) != a {
		t.Fatalf("round trip: %+v %d %v", got, n, err)
	}
}

func TestDecodeStream(t *testing.T) {
	// Multiple messages back to back must decode in sequence.
	var buf []byte
	buf = Update{Key: 1, TS: timestamp.TS{Clock: 1}, Value: []byte("ab")}.Encode(buf)
	buf = Invalidation{Key: 2, TS: timestamp.TS{Clock: 2}, From: 1}.Encode(buf)
	buf = Ack{Key: 3, TS: timestamp.TS{Clock: 3}, From: 2}.Encode(buf)

	kinds := []MsgType{}
	for len(buf) > 0 {
		m, n, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, m.Type)
		buf = buf[n:]
	}
	if len(kinds) != 3 || kinds[0] != MsgUpdate || kinds[1] != MsgInvalidation || kinds[2] != MsgAck {
		t.Fatalf("stream decode order: %v", kinds)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{byte(MsgUpdate)},
		{99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // unknown type
	}
	for i, c := range cases {
		if _, _, err := Decode(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Truncated update value.
	u := Update{Key: 1, TS: timestamp.TS{Clock: 1}, Value: []byte("abcdef")}
	buf := u.Encode(nil)
	if _, _, err := Decode(buf[:len(buf)-2]); err == nil {
		t.Errorf("truncated update must fail")
	}
}

func TestEmptyValueUpdate(t *testing.T) {
	u := Update{Key: 1, TS: timestamp.TS{Clock: 1, Writer: 0}}
	got, n, err := Decode(u.Encode(nil))
	if err != nil || n != u.Msg().Size() || got.Type != MsgUpdate || len(got.Value) != 0 {
		t.Fatalf("empty value round trip failed: %v %d", err, n)
	}
}

// Property: encode→decode is the identity for arbitrary updates.
func TestUpdateRoundTripProperty(t *testing.T) {
	f := func(key uint64, clock uint32, writer uint8, value []byte) bool {
		u := Update{Key: key, TS: timestamp.TS{Clock: clock, Writer: writer}, Value: value}
		got, n, err := Decode(u.Encode(nil))
		if err != nil || n != u.Msg().Size() {
			return false
		}
		return got.Type == MsgUpdate && got.Key == key && got.TS == u.TS && bytes.Equal(got.Value, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// packetSeeds is the fuzz corpus: the round-trip tests' messages alone and
// coalesced the way the consistency lanes send them, then the same bytes cut
// short, with lying value lengths and with unknown types.
func packetSeeds() [][]byte {
	upd := Update{Key: 0xdeadbeef, TS: timestamp.TS{Clock: 77, Writer: 3}, Value: []byte("payload")}.Encode(nil)
	inv := Invalidation{Key: 42, TS: timestamp.TS{Clock: 1, Writer: 2}, From: 7}.Encode(nil)
	ack := Ack{Key: 9, TS: timestamp.TS{Clock: 5, Writer: 1}, From: 4}.Encode(nil)
	empty := Update{Key: 1, TS: timestamp.TS{Clock: 1}}.Encode(nil)
	packet := bytes.Join([][]byte{upd, inv, ack, empty, upd}, nil)
	lying := append([]byte(nil), upd...)
	binary.LittleEndian.PutUint32(lying[14:18], 0xFFFFFFF0) // negative as an int32
	tooLong := append([]byte(nil), packet...)
	binary.LittleEndian.PutUint32(tooLong[14:18], uint32(len(packet))) // reaches past the packet's end
	return [][]byte{
		nil, upd, inv, ack, empty, packet, lying, tooLong,
		upd[:len(upd)-2], upd[:headerSize+3], inv[:headerSize], ack[:3],
		packet[:len(packet)-3],                  // truncated tail after clean messages
		append(append([]byte(nil), inv...), 99), // unknown type after a clean message
		{99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	}
}

// Hostile bytes for the one packet kind core owns. The buffer is walked the
// way the receive dispatcher walks a consistency packet
// (cluster/worker.handleConsistency): decode, advance, stop at the first
// error. Every step either refuses or parses cleanly: consumed lands in
// (0, len], the message re-encodes to exactly the bytes consumed, and an
// update's value is a window of the input — never a copy sized by the
// length field, never a byte outside what was consumed. The input is copied
// into a slice with no spare capacity, so a read past its end panics.
func FuzzDecodePacket(f *testing.F) {
	for _, seed := range packetSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := append(make([]byte, 0, len(data)), data...)
		for len(buf) > 0 {
			msg, n, err := Decode(buf)
			if err != nil {
				if msg.Type != 0 || n != 0 {
					t.Fatalf("refusal returned (%v, %d)", msg, n)
				}
				return
			}
			if n <= 0 || n > len(buf) {
				t.Fatalf("consumed %d of %d bytes", n, len(buf))
			}
			const valueAt = headerSize + 4
			switch msg.Type {
			case MsgUpdate:
				if len(msg.Value) != n-valueAt || (len(msg.Value) > 0 && &msg.Value[0] != &buf[valueAt]) {
					t.Fatalf("update value (%d bytes) is not the input's bytes [%d:%d]", len(msg.Value), valueAt, n)
				}
			case MsgInvalidation, MsgAck:
			default:
				t.Fatalf("decoded a message of type %v", msg.Type)
			}
			again := msg.Encode(nil)
			if !bytes.Equal(again, buf[:n]) {
				t.Fatalf("clean parse does not round-trip: %x vs %x", again, buf[:n])
			}
			buf = buf[n:]
		}
	})
}
