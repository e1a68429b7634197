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

// Wire sizes. Header: type(1) + key(8) + clock(4) + writer(1) = 14 bytes;
// updates add a 4-byte length prefix plus the value; invalidations and acks
// add a 1-byte node id.
const (
	headerSize       = 1 + 8 + 4 + 1
	updateOverhead   = headerSize + 4
	invalidationSize = headerSize + 1
	ackSize          = headerSize + 1
)

// EncodedSize returns the wire size of an update with the given value length.
func (u Update) EncodedSize() int { return updateOverhead + len(u.Value) }

// Encode appends the update's wire form to buf.
func (u Update) Encode(buf []byte) []byte {
	return append(u.EncodeHeader(buf), u.Value...)
}

// EncodeHeader appends everything of the update's wire form except the value
// bytes: type, key, timestamp and the value-length prefix. The coalescing
// consistency sender uses it on zero-copy transports to splice the value in
// as its own packet segment instead of re-copying it; EncodeHeader followed
// by the value bytes is exactly Encode.
func (u Update) EncodeHeader(buf []byte) []byte {
	buf = append(buf, byte(MsgUpdate))
	buf = binary.LittleEndian.AppendUint64(buf, u.Key)
	buf = binary.LittleEndian.AppendUint32(buf, u.TS.Clock)
	buf = append(buf, u.TS.Writer)
	return binary.LittleEndian.AppendUint32(buf, uint32(len(u.Value)))
}

// EncodedSize returns the wire size of an invalidation.
func (i Invalidation) EncodedSize() int { return invalidationSize }

// Encode appends the invalidation's wire form to buf.
func (i Invalidation) Encode(buf []byte) []byte {
	buf = append(buf, byte(MsgInvalidation))
	buf = binary.LittleEndian.AppendUint64(buf, i.Key)
	buf = binary.LittleEndian.AppendUint32(buf, i.TS.Clock)
	buf = append(buf, i.TS.Writer)
	return append(buf, i.From)
}

// EncodedSize returns the wire size of an ack.
func (a Ack) EncodedSize() int { return ackSize }

// Encode appends the ack's wire form to buf.
func (a Ack) Encode(buf []byte) []byte {
	buf = append(buf, byte(MsgAck))
	buf = binary.LittleEndian.AppendUint64(buf, a.Key)
	buf = binary.LittleEndian.AppendUint32(buf, a.TS.Clock)
	buf = append(buf, a.TS.Writer)
	return append(buf, a.From)
}

// Decode parses one protocol message from buf, returning the message (one of
// Update, Invalidation, Ack), the number of bytes consumed, and an error on
// malformed input. Decoded updates alias buf's storage; callers that retain
// the value must copy it.
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
func Decode(buf []byte) (any, int, error) {
	if len(buf) < headerSize {
		return nil, 0, fmt.Errorf("core: short message (%d bytes)", len(buf))
	}
	mt := MsgType(buf[0])
	key := binary.LittleEndian.Uint64(buf[1:9])
	ts := timestamp.TS{
		Clock:  binary.LittleEndian.Uint32(buf[9:13]),
		Writer: buf[13],
	}
	switch mt {
	case MsgUpdate:
		if len(buf) < updateOverhead {
			return nil, 0, fmt.Errorf("core: short update")
		}
		// Compared unsigned and before any arithmetic on it: a lying length
		// must not wrap an int (32-bit builds) into passing the check.
		vlen := binary.LittleEndian.Uint32(buf[14:18])
		if uint64(vlen) > uint64(len(buf)-updateOverhead) {
			return nil, 0, fmt.Errorf("core: truncated update value (%d < %d)", len(buf)-updateOverhead, vlen)
		}
		end := updateOverhead + int(vlen)
		return Update{Key: key, TS: ts, Value: buf[updateOverhead:end]}, end, nil
	case MsgInvalidation:
		if len(buf) < invalidationSize {
			return nil, 0, fmt.Errorf("core: short invalidation")
		}
		return Invalidation{Key: key, TS: ts, From: buf[14]}, invalidationSize, nil
	case MsgAck:
		if len(buf) < ackSize {
			return nil, 0, fmt.Errorf("core: short ack")
		}
		return Ack{Key: key, TS: ts, From: buf[14]}, ackSize, nil
	default:
		return nil, 0, fmt.Errorf("core: unknown message type %d", buf[0])
	}
}
