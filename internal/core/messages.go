// Package core implements the paper's primary contribution: the symmetric
// cache (EuroSys'18, §4) and the two fully-distributed consistency protocols
// that keep all cache replicas strongly consistent (§5) — per-key Sequential
// Consistency (SC, an adaptation of Burckhardt's update protocol) and per-key
// Linearizability (Lin, an adaptation of Guerraoui et al.'s atomic storage
// algorithm).
//
// The package is transport-agnostic: protocol operations return the messages
// that must be broadcast, and the caller (internal/cluster) moves them over
// whatever fabric is in use. The protocols themselves are defined once, as
// pure per-entry steps over Line (step.go); Cache wraps each step in the
// entry lock, value copies, wake-ups and counters, and the model checker
// (internal/mcheck) enumerates the very same steps — it has no model of its
// own to drift from what runs.
package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/timestamp"
	"repro/internal/wire"
)

// Protocol selects the consistency model enforced across the caches.
type Protocol uint8

// Supported consistency protocols.
const (
	// SC is per-key Sequential Consistency: non-blocking writes serialized
	// by Lamport timestamps, propagated with a single update broadcast.
	SC Protocol = iota
	// Lin is per-key Linearizability: blocking two-phase writes
	// (invalidate, gather acks, then update).
	Lin
)

// String names the protocol as the paper does.
func (p Protocol) String() string {
	switch p {
	case SC:
		return "SC"
	case Lin:
		return "Lin"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// MsgType tags protocol messages on the wire.
type MsgType uint8

// Message kinds exchanged between cache threads.
const (
	MsgUpdate MsgType = iota + 1
	MsgInvalidation
	MsgAck
)

// String names the message type.
func (m MsgType) String() string {
	switch m {
	case MsgUpdate:
		return "update"
	case MsgInvalidation:
		return "invalidation"
	case MsgAck:
		return "ack"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(m))
	}
}

// Update carries a new value and its timestamp to all replicas. Under SC it
// is the only consistency message; under Lin it is the second phase, sent
// after all acknowledgements are gathered.
type Update struct {
	Key   uint64
	TS    timestamp.TS
	Value []byte
}

// Invalidation is the first phase of a Lin write: it announces the write's
// timestamp so replicas can invalidate and acknowledge.
type Invalidation struct {
	Key  uint64
	TS   timestamp.TS
	From uint8 // writer node, destination for the ack
}

// Ack acknowledges an invalidation back to the writer.
type Ack struct {
	Key  uint64
	TS   timestamp.TS
	From uint8 // acking node
}

// Msg is the one wire form of a consistency message: what the send lanes
// queue, Encode writes and Decode returns, by value. Every message starts with
// the same header H = type(1) key(8) T, where T is a timestamp, clock(4)
// writer(1), and V a length-prefixed byte string, len(4) bytes (package wire):
//
//	update:        H V        — Value
//	invalidation:  H from(1)  — From: the writer, where the ack goes
//	ack:           H from(1)  — From: the acking node
type Msg struct {
	Type  MsgType
	Key   uint64
	TS    timestamp.TS
	From  uint8
	Value []byte // update only; read-only
}

// headerSize is H's length: type(1) + key(8) + clock(4) + writer(1).
const headerSize = 1 + 8 + 4 + 1

// Msg returns the update's wire form.
func (u Update) Msg() Msg { return Msg{Type: MsgUpdate, Key: u.Key, TS: u.TS, Value: u.Value} }

// Msg returns the invalidation's wire form.
func (i Invalidation) Msg() Msg {
	return Msg{Type: MsgInvalidation, Key: i.Key, TS: i.TS, From: i.From}
}

// Msg returns the ack's wire form.
func (a Ack) Msg() Msg { return Msg{Type: MsgAck, Key: a.Key, TS: a.TS, From: a.From} }

// Encode appends the update's wire form to buf.
func (u Update) Encode(buf []byte) []byte { return u.Msg().Encode(buf) }

// Encode appends the invalidation's wire form to buf.
func (i Invalidation) Encode(buf []byte) []byte { return i.Msg().Encode(buf) }

// Encode appends the ack's wire form to buf.
func (a Ack) Encode(buf []byte) []byte { return a.Msg().Encode(buf) }

// Size returns the message's wire size.
func (m Msg) Size() int {
	if m.Type == MsgUpdate {
		return headerSize + 4 + len(m.Value)
	}
	return headerSize + 1
}

// AppendHead appends the message's wire form up to an update's value bytes,
// which it leaves out: the coalescing consistency sender splices the value in
// as its own packet segment on zero-copy transports. For an invalidation or an
// ack it is the whole message.
func (m Msg) AppendHead(buf []byte) []byte {
	buf = append(buf, byte(m.Type))
	buf = binary.LittleEndian.AppendUint64(buf, m.Key)
	buf = wire.AppendTS(buf, m.TS)
	if m.Type == MsgUpdate {
		return binary.LittleEndian.AppendUint32(buf, uint32(len(m.Value)))
	}
	return append(buf, m.From)
}

// Encode appends the message's wire form to buf.
func (m Msg) Encode(buf []byte) []byte {
	buf = m.AppendHead(buf)
	if m.Type == MsgUpdate {
		buf = append(buf, m.Value...)
	}
	return buf
}

// Decode parses one protocol message from buf, returning it, the number of
// bytes consumed, and an error on malformed input. A decoded update's value
// aliases buf's storage; callers that retain it must copy it.
//
// Consistency packets may coalesce many messages back to back; receivers
// decode and apply them in buffer order. That order is the per-key ordering
// invariant the coalescing sender relies on: a worker's messages toward one
// peer travel a single FIFO lane, so an update followed by a later
// invalidation for the same key can never be observed transposed within or
// across packets. Reordering *between* lanes (different workers, hence
// different keys) is harmless, and cross-packet reordering by an adversarial
// transport is tolerated by the timestamp checks in ApplyUpdate*/
// ApplyInvalidation.
func Decode(buf []byte) (Msg, int, error) {
	r := wire.NewReader(buf)
	m := Msg{Type: MsgType(r.U8()), Key: r.U64(), TS: r.TS()}
	switch m.Type {
	case MsgUpdate:
		m.Value = r.Bytes()
	case MsgInvalidation, MsgAck:
		m.From = r.U8()
	default:
		if r.Ok() {
			return Msg{}, 0, fmt.Errorf("core: unknown message type %d", buf[0])
		}
	}
	if !r.Ok() {
		return Msg{}, 0, fmt.Errorf("core: short %v (%d bytes)", m.Type, len(buf))
	}
	return m, len(buf) - r.Len(), nil
}
