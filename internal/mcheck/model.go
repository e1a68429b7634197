// Package mcheck is an explicit-state model checker for the ccKVS
// consistency protocols, reproducing the paper's Murφ verification (§5.2):
// the Lin protocol is exhaustively checked for safety (the data-value
// invariant, unique write serialization and the real-time order that makes
// it linearizable: no readable copy is older than a put that has returned)
// and for deadlock freedom, with a configurable number of processors,
// addresses and timestamp bound — the paper verified 3 processors,
// 2 addresses and 2-bit timestamps.
//
// There is no model of the protocol here. Every transition the checker takes
// is a call into internal/core's step functions (core/step.go) over the same
// core.Line the cache embeds in each entry, so what is verified is what
// runs; this package owns only the network (an unordered multiset of
// messages), the enumeration, and the invariants. The injectable faults
// perturb that boundary — an ack not sent, a forged stamp handed to a step,
// a step's result not committed, a guard asked without its stamp check — and
// never reach into core.
package mcheck

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/timestamp"
)

// Bounds configure the finite protocol instance being checked.
type Bounds struct {
	// Procs is the number of replicas (paper: 3).
	Procs int
	// Addrs is the number of independent keys (paper: 2).
	Addrs int
	// MaxClock bounds the Lamport clock; 3 corresponds to the paper's
	// two-bit timestamps.
	MaxClock uint8
}

// live is the membership view every step counts against: all procs (crash
// and view-flip transitions are not enumerated).
func (b Bounds) live() core.NodeSet { return core.FullNodeSet(b.Procs) }

// DefaultBounds returns the paper's Murφ configuration.
func DefaultBounds() Bounds { return Bounds{Procs: 3, Addrs: 2, MaxClock: 3} }

// Validate reports bound errors.
func (b Bounds) Validate() error {
	if b.Procs < 2 || b.Procs > 4 {
		return fmt.Errorf("mcheck: procs %d out of [2,4]", b.Procs)
	}
	if b.Addrs < 1 || b.Addrs > 2 {
		return fmt.Errorf("mcheck: addrs %d out of [1,2]", b.Addrs)
	}
	if b.MaxClock < 1 || b.MaxClock > 3 {
		return fmt.Errorf("mcheck: max clock %d out of [1,3]", b.MaxClock)
	}
	return nil
}

// Copy is one replica's copy of one address: the protocol line core's steps
// transition, plus the identity of the value the copy holds. The protocol
// stamps every write's value with its timestamp, so the data-value invariant
// is "Valid implies Val == TS"; Val is set from the effects the steps report.
type Copy struct {
	core.Line
	Val timestamp.TS
}

// Msg is one in-flight protocol message. The network is an unordered
// multiset: any in-flight message may be delivered next, which models the
// arbitrary reordering of RDMA UD datagrams.
type Msg struct {
	Kind core.MsgType
	Addr uint8
	TS   timestamp.TS
	To   uint8
	From uint8
	Val  timestamp.TS // updates only
}

// State is a global protocol configuration. Lines is indexed [proc][addr].
type State struct {
	Lines []Copy // proc*addrs + addr
	// Returned is, per address, the highest stamp of a put that has returned
	// to its client (Lin: at the step that reports the write done). It is
	// what turns a history property — a get invoked after a put returned
	// must not observe an older write — into a state invariant.
	Returned []timestamp.TS
	Msgs     []Msg
}

// line returns the copy of address a at proc p.
func (s *State) line(b Bounds, p, a int) *Copy { return &s.Lines[p*b.Addrs+a] }

// clone deep-copies the state.
func (s *State) clone() State {
	return State{
		Lines:    append([]Copy(nil), s.Lines...),
		Returned: append([]timestamp.TS(nil), s.Returned...),
		Msgs:     append([]Msg(nil), s.Msgs...),
	}
}

// initial returns the all-Valid zero state.
func initial(b Bounds) State {
	return State{Lines: make([]Copy, b.Procs*b.Addrs), Returned: make([]timestamp.TS, b.Addrs)}
}

// broadcast puts one copy of m in flight toward every proc but its sender.
func (s *State) broadcast(b Bounds, m Msg) {
	for q := 0; q < b.Procs; q++ {
		if q != int(m.From) {
			m.To = uint8(q)
			s.Msgs = append(s.Msgs, m)
		}
	}
}

// removeMsg deletes message i (order is irrelevant: the set is canonicalized
// before hashing).
func (s *State) removeMsg(i int) {
	s.Msgs[i] = s.Msgs[len(s.Msgs)-1]
	s.Msgs = s.Msgs[:len(s.Msgs)-1]
}

// key serializes the state into a canonical, hashable form. Messages are
// sorted so that permutations of the multiset collapse to one state. Clocks
// fit a byte (MaxClock <= 3) and ack sets a bitmask (Procs <= 4). Of a line,
// PendWait and Superseded are left out: only the view-change steps read
// them, and those are not enumerated here.
func (s *State) key(b Bounds) string {
	buf := make([]byte, 0, len(s.Lines)*9+len(s.Returned)*2+len(s.Msgs)*8)
	for i := range s.Lines {
		l := &s.Lines[i]
		var pend, acks byte
		if l.Pending {
			pend = 1
		}
		for q := 0; q < b.Procs; q++ {
			if l.AckFrom.Has(uint8(q)) {
				acks |= 1 << q
			}
		}
		buf = append(buf, byte(l.State), byte(l.TS.Clock), l.TS.Writer, byte(l.Val.Clock), l.Val.Writer,
			pend, byte(l.PendTS.Clock), l.PendTS.Writer, acks)
	}
	for _, r := range s.Returned {
		buf = append(buf, byte(r.Clock), r.Writer)
	}
	msgs := make([]uint64, len(s.Msgs))
	for i, m := range s.Msgs {
		msgs[i] = m.sortKey()
	}
	slices.Sort(msgs)
	for _, k := range msgs {
		buf = binary.BigEndian.AppendUint64(buf, k)
	}
	return string(buf)
}

// sortKey is m as the integer it is ordered and hashed by.
func (m Msg) sortKey() uint64 {
	return uint64(m.Kind)<<56 | uint64(m.Addr)<<48 | uint64(m.TS.Clock&0xff)<<40 | uint64(m.TS.Writer)<<32 |
		uint64(m.To)<<24 | uint64(m.From)<<16 | uint64(m.Val.Clock&0xff)<<8 | uint64(m.Val.Writer)
}

// Protocol selects which of core's two protocols to check.
type Protocol = core.Protocol

// Checked protocols.
const (
	Lin = core.Lin
	SC  = core.SC
)

// Fault selects a deliberately broken protocol variant, used to demonstrate
// that the checker detects the corresponding class of bug (the reason the
// paper model-checked Lin in the first place).
type Fault int

// Injectable faults.
const (
	// FaultNone checks the correct protocol.
	FaultNone Fault = iota
	// FaultConditionalAck only acknowledges invalidations that actually
	// invalidate. A writer that loses a timestamp race then starves —
	// the classic deadlock the unconditional ack prevents.
	FaultConditionalAck
	// FaultApplyMismatchedUpdate applies any update received while
	// Invalid, without matching timestamps — breaking the data-value
	// invariant when a superseded writer's update arrives late.
	FaultApplyMismatchedUpdate
	// FaultServeAfterLowerAck lets a replica in the Write state acknowledge
	// a lower-stamped invalidation and keep serving its pre-write value —
	// the protocol as it stood before core.Line.Invalidate learned to
	// yield. The acknowledged put can return while that replica still
	// serves the value it overwrote: a stale read, caught by the real-time
	// invariant.
	FaultServeAfterLowerAck
	// FaultJoinDoomed lets a put join a pending write that has adopted a
	// higher-stamped invalidation: core.Line.JoinLin without its
	// TS == PendTS half. The winner can return, and be read, while the
	// doomed write is still joinable, so a put invoked after that read would
	// be ordered before the value it saw — caught by the join invariant.
	FaultJoinDoomed
)

// String names the fault.
func (f Fault) String() string {
	return [...]string{"none", "conditional-ack", "apply-mismatched-update", "serve-after-lower-ack", "join-doomed"}[f]
}

// joinable reports whether a local put may join l's pending write
// (core.Line.JoinLin, as the executor asks it), or under FaultJoinDoomed the
// guard with its stamp check skipped.
func joinable(l *Copy, fault Fault) bool {
	if fault == FaultJoinDoomed {
		return l.Pending
	}
	return l.JoinLin(l.PendTS)
}

// startWrite takes core's write-start step at (p, a) and puts what it asks
// to be broadcast in flight. It reports whether the write was enabled: the
// clock bound leaves room and (Lin) no local write is pending.
func startWrite(proto Protocol, b Bounds, s *State, p, a int) bool {
	l := s.line(b, p, a)
	if l.TS.Clock >= uint32(b.MaxClock) {
		return false
	}
	m := Msg{Addr: uint8(a), From: uint8(p)}
	if proto == SC {
		// Non-blocking: applied locally at once, one update broadcast.
		m.Kind, m.TS = core.MsgUpdate, l.WriteSC(m.From)
		l.Val, m.Val = m.TS, m.TS
	} else {
		var ok bool
		if m.TS, ok = l.StartLin(m.From, b.live()); !ok {
			return false
		}
		m.Kind = core.MsgInvalidation
	}
	s.broadcast(b, m)
	return true
}

// deliver consumes message i and takes the receive step core defines for
// it, turning the step's effect into messages, value identities and the
// returned-put high-water mark.
func deliver(proto Protocol, b Bounds, s *State, i int, fault Fault) {
	m := s.Msgs[i]
	s.removeMsg(i)
	l := s.line(b, int(m.To), int(m.Addr))
	switch {
	case proto == SC:
		if l.AdoptSC(m.TS) {
			l.Val = m.Val
		}
	case m.Kind == core.MsgInvalidation:
		before := l.Line
		eff := l.Invalidate(m.TS, true)
		if fault == FaultServeAfterLowerAck && eff == core.InvYielded {
			l.Line = before // the step's result is not committed
		}
		// Acks are unconditional (deadlock freedom) — unless the fault makes
		// the receiver earn them.
		if fault != FaultConditionalAck || eff == core.InvAdopted {
			s.Msgs = append(s.Msgs, Msg{Kind: core.MsgAck, Addr: m.Addr, TS: m.TS, To: m.From, From: m.To})
		}
	case m.Kind == core.MsgAck:
		eff := l.Ack(m.From, m.TS, b.live())
		if eff == core.WriteOpen {
			return
		}
		if eff == core.WriteApplied {
			l.Val = l.PendTS // write performed locally
		}
		// Either way the put returns to its client here.
		s.Returned[m.Addr] = timestamp.Max(s.Returned[m.Addr], l.PendTS)
		s.broadcast(b, Msg{Kind: core.MsgUpdate, Addr: m.Addr, TS: l.PendTS, From: m.To, Val: l.PendTS})
	case m.Kind == core.MsgUpdate:
		ts := m.TS
		if fault == FaultApplyMismatchedUpdate {
			ts = l.TS // forged: whatever stamp the line is waiting for
		}
		if l.ApplyUpdateLin(ts) {
			l.Val = m.Val
		}
	}
}
