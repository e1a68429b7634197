package core

import "repro/internal/timestamp"

// Line is the protocol state of one replica's copy of one key, and the
// methods in this file are every per-entry transition of SC and Lin (§5.2),
// defined once: pure steps over that value — no lock, no value bytes, no
// allocation, no I/O — that report what happened as an effect. Cache embeds
// a Line in each entry and wraps every step in "lock, step, act on the
// effect" (copy the value, wake the parked, count); internal/mcheck
// enumerates these same methods over bare Lines. What is verified is what
// runs: a protocol change is a change to this file.
type Line struct {
	State State
	// TS is the highest stamp this replica has adopted for the key: the
	// stamp of the value it holds when Valid, of the invalidation whose
	// update it awaits when Invalid.
	TS timestamp.TS

	// This node's outstanding Lin write. The ack accounting is set-based, not
	// a counter: PendWait records which peers were counted when the write
	// started (the live view minus this node), AckFrom which peers have
	// acknowledged. The write completes when AckFrom covers PendWait
	// intersected with the *current* live view — so a counted peer that dies
	// mid-write stops being required, a peer that joins mid-write is never
	// required (it got no invalidation), and a duplicated ack cannot
	// double-count.
	Pending  bool
	PendTS   timestamp.TS
	PendWait NodeSet
	AckFrom  NodeSet
	// Superseded marks a write that completed conflict-lost: its client was
	// told success, but a concurrent higher-stamped write won and the staged
	// value was never published — the winner's update carries the final
	// value. Cleared when that update lands or a newer local write starts.
	// If the winner dies unpublished the staged value must be re-published
	// (HealOrphan, TakeOrphanedLoser), or an acknowledged write would vanish
	// from every replica.
	Superseded bool
}

// WriteSC is SC's write step: the write is stamped with the next Lamport
// clock and is this replica's newest at once (SC writes do not block).
func (l *Line) WriteSC(self uint8) timestamp.TS {
	l.TS = l.TS.Next(self)
	return l.TS
}

// AdoptSC is SC's receive step, and the local step of a write stamped
// elsewhere: ts and the value it tags are taken only when ts orders after
// the stored stamp, so every replica applies a key's writes in one order.
func (l *Line) AdoptSC(ts timestamp.TS) bool {
	if !ts.After(l.TS) {
		return false
	}
	l.TS = ts
	return true
}

// StartLin begins this node's Lin write (phase 1, writer side) and returns
// the stamp to invalidate with; ok is false while an earlier local write is
// outstanding — Pending is the key's node-local write mutex. The stamp must
// dominate everything this replica has seen, including a concurrent writer's
// invalidation, and the writer stamps its own copy too: at completion
// TS == PendTS tells it that no higher-stamped write intervened. Only the
// peers live right now are counted — the invalidation broadcast that follows
// reaches exactly those. A Valid line turns Write and keeps serving the
// pre-write value (the put has not returned, so that is linearizable); an
// Invalid one stays Invalid until this write completes.
func (l *Line) StartLin(self uint8, live NodeSet) (ts timestamp.TS, ok bool) {
	if l.Pending {
		return timestamp.TS{}, false
	}
	l.PendTS = l.TS.Next(self)
	l.TS = l.PendTS
	l.Pending = true
	l.Superseded = false // the new write supersedes any lost predecessor
	l.PendWait = live.Without(self)
	l.AckFrom = NodeSet{}
	if l.State == StateValid {
		l.State = StateWrite
	}
	return l.PendTS, true
}

// JoinLin reports whether a later local put may join this node's pending Lin
// write stamped ts rather than start a round of its own: it re-stages the
// value under ts and returns when that write completes, linearized
// immediately after the put it joined — both are in flight at once, and
// the earlier value is never visible. TS == PendTS refuses a write that has
// adopted a higher-stamped invalidation: that winner may already be
// readable, and a put invoked after such a read must not be ordered before
// it. A pure predicate: the line does not change.
func (l *Line) JoinLin(ts timestamp.TS) bool {
	return l.Pending && l.PendTS == ts && l.TS == ts
}

// InvEffect is what an invalidation did to a line. Whatever it is, the
// receiver acknowledges: acks are unconditional, so concurrent writers can
// never starve each other.
type InvEffect uint8

const (
	// InvStale: the line already holds this stamp or a later one.
	InvStale InvEffect = iota
	// InvAdopted: the line took the stamp and is Invalid until the matching
	// update arrives.
	InvAdopted
	// InvYielded: the line keeps its own, later pending stamp but stopped
	// serving reads until that write completes.
	InvYielded
)

// Invalidate is phase 1 at a receiver. An invalidation that orders after
// the stored stamp is adopted: the line goes Invalid under that stamp — a
// replica itself in the Write state thus loses the race, and its own
// completion will not publish its value. One from a writer outside the
// membership view is not adopted (writerLive false): its update can never
// arrive, so it would wedge readers on a state only that update could clear.
//
// An invalidation that does not order after the line's stamp still means a
// write is in flight that may complete — and return to its client — without
// ever touching this line again (its update will be discarded here as
// stale). A line in the Write state is serving a value older than that
// write, so it yields: Invalid, stamp unchanged (its own pending stamp),
// until its own last ack applies the staged value (Recheck, TS == PendTS)
// and returns it to Valid. Without this a get here, issued after that put
// returned, reads the pre-write value — not linearizable. The line reached
// is (Invalid, Pending, TS == PendTS), the one a write started on an
// Invalid line already produces, so everything that handles that handles
// this: readers and RMWs are refused with ErrInvalid and park on the wake
// this write's completion already sends; CollectFrozen sees a pending write
// and retries; TakeOrphanedLoser refuses a Pending line, and HealOrphan
// matches TS.Writer — here this node, never the excised peer it is asked
// about — so a view change cannot "heal" a live pending write into serving
// the old value again.
func (l *Line) Invalidate(ts timestamp.TS, writerLive bool) InvEffect {
	if writerLive && ts.After(l.TS) {
		l.TS = ts
		l.State = StateInvalid
		return InvAdopted
	}
	if l.Pending && l.State == StateWrite {
		l.State = StateInvalid
		return InvYielded
	}
	return InvStale
}

// WriteEffect is the outcome of a completion check on a line's pending
// write. Both done effects return the put to its client and broadcast the
// update stamped PendTS.
type WriteEffect uint8

const (
	// WriteOpen: no write is pending, or required acks are still missing.
	WriteOpen WriteEffect = iota
	// WriteApplied: done, and still the latest write this replica has seen:
	// the staged value becomes the line's value and the line is Valid.
	WriteApplied
	// WriteSuperseded: done, but a concurrent higher-stamped write
	// invalidated this replica meanwhile: the staged value is superseded
	// before ever becoming visible, and the line stays Invalid awaiting the
	// winner's update.
	WriteSuperseded
)

// Ack records an acknowledgement of this node's pending write (acks of any
// other stamp are ignored) and re-runs the completion check.
func (l *Line) Ack(from uint8, ts timestamp.TS, live NodeSet) WriteEffect {
	if !l.Pending || ts != l.PendTS {
		return WriteOpen
	}
	l.AckFrom = l.AckFrom.With(from)
	return l.Recheck(live)
}

// Recheck completes the pending write once its acks cover every
// still-required peer. The requirement prunes *permanently*: a counted peer
// found outside the live view at any check is removed from PendWait and
// never re-required — even if it later rejoins it received no invalidation,
// so re-requiring its ack would deadlock the writer across an excise/rejoin
// flap. (Every pending write is rechecked when the view shrinks, so the
// prune always happens while the peer is out.)
func (l *Line) Recheck(live NodeSet) WriteEffect {
	if !l.Pending {
		return WriteOpen
	}
	l.PendWait = l.PendWait.Intersect(live)
	if !l.AckFrom.Contains(l.PendWait) {
		return WriteOpen
	}
	l.Pending = false
	if l.TS != l.PendTS {
		l.Superseded = true
		return WriteSuperseded
	}
	l.State = StateValid
	return WriteApplied
}

// ApplyUpdateLin is phase 2 at a receiver: the update's value is taken only
// by an Invalid line whose stamp matches — exactly the update it is waiting
// for. Anything else is stale (superseded by a later invalidation) or a
// duplicate, and is discarded.
func (l *Line) ApplyUpdateLin(ts timestamp.TS) bool {
	if l.State != StateInvalid || ts != l.TS {
		return false
	}
	l.State = StateValid
	// The winner published: a conflict-lost local write is now correctly
	// "applied then overwritten" — nothing left to resurrect.
	l.Superseded = false
	return true
}

// HealOrphan re-validates a line left Invalid by an in-flight write of
// writer, which has just left the view: the matching update can never
// arrive. The pre-invalidation value becomes readable again — the orphaned
// write was never acknowledged to the dead writer's client, so discarding
// it is within the Lin contract. resurrect reports a conflict-lost local
// write the dead winner was supposed to carry: this node's client was told
// success, so its staged value must be re-driven through a fresh write.
func (l *Line) HealOrphan(writer uint8) (healed, resurrect bool) {
	if l.State != StateInvalid || l.TS.Writer != writer {
		return false, false
	}
	l.State = StateValid
	resurrect, l.Superseded = l.Superseded, false
	return true, resurrect
}

// TakeOrphanedLoser is HealOrphan for a write that completed conflict-lost
// after its winner had already left the view (HealOrphan only sees writes
// that were conflict-lost when the view flipped). The flag clears, so the
// staged value is taken exactly once; a live winner means the update is
// still coming and nothing is taken.
func (l *Line) TakeOrphanedLoser(live NodeSet) bool {
	if l.Pending || !l.Superseded || live.Has(l.TS.Writer) {
		return false
	}
	l.Superseded = false
	// The dead winner's invalidation can no longer be cleared by its update;
	// re-validate so the re-publish (and readers) are not wedged.
	if l.State == StateInvalid {
		l.State = StateValid
	}
	return true
}
