package core

import "repro/internal/timestamp"

// Lin protocol (per-key Linearizability, §5.2).
//
// Lin writes are synchronous: a put may return only after its value has
// become visible to all replicas. The protocol is two-phase, adapted from
// Guerraoui et al.'s high-throughput atomic storage algorithm:
//
//  1. The writer moves the entry to the transient Write state, tags the
//     write with a fresh Lamport timestamp and broadcasts invalidations.
//  2. Every replica that receives an invalidation with a timestamp greater
//     than its stored one transitions the entry to Invalid (reads stall)
//     and always acknowledges — acks are unconditional so that concurrent
//     writers can never starve each other (deadlock freedom). A replica in
//     the Write state that acknowledges a timestamp *not* greater than its
//     own also goes Invalid, keeping its own timestamp, until its own write
//     completes: the acknowledged write may return first, and the pre-write
//     value this replica was serving would then be a stale read.
//  3. When the writer has gathered N-1 acks it applies the value locally
//     (if no higher-timestamped write intervened), transitions the entry
//     back to Valid and broadcasts the update; replicas in Invalid state
//     apply an update exactly when its timestamp matches the invalidation
//     they observed last, otherwise the update is discarded.
//
// Writes are fully distributed: any replica can initiate a write for any
// cached key; serialization comes from the timestamps alone.
//
// The transitions themselves are the pure steps of step.go, where each one's
// reasons are written down; this file is what the cache adds around a step:
// the entry lock, value bytes, wake-ups for parked callers, and counters.

// WriteLinStart begins a Lin write (Line.StartLin). On a cache hit it stages
// the value and returns the Invalidation to broadcast; the write completes
// when ApplyAck reports done, and until then further local writes to the key
// are refused with ErrWritePending.
func (c *Cache) WriteLinStart(key uint64, value []byte) (Invalidation, error) {
	e, err := c.lockWritable(key)
	if err != nil {
		return Invalidation{}, err
	}
	inv, ok := c.startLinLocked(e, key, value)
	e.lock.Unlock()
	if !ok {
		return Invalidation{}, ErrWritePending
	}
	c.stats.Hits.Add(1)
	return inv, nil
}

// startLinLocked takes the start step, for a plain write and an RMW alike,
// and stages value beside it. Called with e.lock held.
func (c *Cache) startLinLocked(e *entry, key uint64, value []byte) (Invalidation, bool) {
	ts, ok := e.StartLin(c.nodeID, *c.live.Load())
	if !ok {
		return Invalidation{}, false
	}
	e.stageLocked(value)
	c.stats.WritesLin.Add(1)
	return Invalidation{Key: key, TS: ts, From: c.nodeID}, true
}

// WriteLinJoin stages value as the payload of this node's pending Lin write
// stamped ts when Line.JoinLin allows it, so the put completes with that
// write's round instead of starting its own; the caller then awaits ts. It
// reports false, with nothing changed, for an uncached or frozen entry and
// for a write that completed or adopted a higher stamp.
func (c *Cache) WriteLinJoin(key uint64, ts timestamp.TS, value []byte) bool {
	e, err := c.lockWritable(key)
	if err != nil {
		return false
	}
	ok := e.JoinLin(ts)
	if ok {
		e.stageLocked(value)
		c.stats.Hits.Add(1)
		c.stats.WritesJoined.Add(1)
	}
	e.lock.Unlock()
	return ok
}

// stageLocked copies value into the staged payload of the entry's pending
// write. Called with e.lock held.
func (e *entry) stageLocked(value []byte) {
	if len(e.pendVal) < len(value) {
		e.pendVal = make([]byte, len(value))
	}
	copy(e.pendVal[:len(value)], value)
	e.pendVlen = len(value)
}

// RMWLinStart begins a Lin read-modify-write: under the entry lock it reads
// the current value, hands a copy to compute, and — when compute elects to
// write — stages the returned value exactly like WriteLinStart. The lock
// is what makes the read-to-publish window atomic against every other local
// mutation of the entry; remote writers are ordered by the timestamp the RMW
// claims before releasing it. witness is the value compute observed (always
// a fresh copy), applied reports whether compute chose to write (a CAS whose
// expectation failed returns applied=false with no protocol action — the
// witness is the answer).
func (c *Cache) RMWLinStart(key uint64, compute func(cur []byte) ([]byte, bool)) (inv Invalidation, witness []byte, applied bool, err error) {
	e, witness, err := c.lockReadable(key)
	if err != nil {
		return Invalidation{}, nil, false, err
	}
	if value, write := compute(witness); write {
		inv, applied = c.startLinLocked(e, key, value)
	}
	e.lock.Unlock()
	return inv, witness, applied, nil
}

// ApplyInvalidation takes Line.Invalidate for a received invalidation and
// returns the Ack to send back — always — with whether the entry went Invalid.
func (c *Cache) ApplyInvalidation(inv Invalidation) (Ack, bool) {
	c.stats.Invalidations.Add(1)
	ack := Ack{Key: inv.Key, TS: inv.TS, From: c.nodeID}
	e, ok := c.table.Load().m[inv.Key]
	if !ok {
		// Not cached this epoch: nothing to invalidate, but still ack so
		// the writer can make progress.
		return ack, false
	}
	e.lock.Lock()
	// The dead-writer check reads the view under e.lock, AFTER the lock is
	// acquired: an in-flight invalidation racing the writer's excision must
	// not re-open the window DiscardOrphanedInvalidations closed. The
	// excision scan takes this same entry lock after storing the shrunken
	// live set, so whichever side runs second sees the other's effect: the
	// scan heals an already-applied invalidation, and a post-scan
	// invalidation sees the writer dead and skips. Still acked either way,
	// in case the suspicion was false and the writer is counting.
	eff := e.Invalidate(inv.TS, c.live.Load().Has(inv.From))
	e.lock.Unlock()
	return ack, eff != InvStale
}

// ApplyAck records an acknowledgement for this node's outstanding write
// (Line.Ack). When that completes the write, the Update to broadcast is
// returned with done=true.
func (c *Cache) ApplyAck(a Ack) (Update, bool) {
	e, ok := c.table.Load().m[a.Key]
	if !ok {
		return Update{}, false
	}
	c.stats.AcksReceived.Add(1)
	e.lock.Lock()
	upd, done := c.completeLocked(e, a.Key, e.Ack(a.From, a.TS, *c.live.Load()))
	e.lock.Unlock()
	return upd, done
}

// completeLocked acts on a completion check's effect: a done write wakes the
// writer itself, writers queued on the key and — if the entry turned Valid —
// its readers, and its Update is returned for broadcast. Called with e.lock
// held.
func (c *Cache) completeLocked(e *entry, key uint64, eff WriteEffect) (Update, bool) {
	switch eff {
	case WriteOpen:
		return Update{}, false
	case WriteApplied:
		e.setValueLocked(e.pendVal[:e.pendVlen])
		e.dirty = true
	case WriteSuperseded:
		c.stats.WriteConflictsLost.Add(1)
	}
	e.wakeLocked()
	return e.stagedUpdate(key), true
}

// stagedUpdate returns the entry's staged write as an Update carrying a
// fresh copy of the value.
func (e *entry) stagedUpdate(key uint64) Update {
	return Update{Key: key, TS: e.PendTS, Value: append([]byte(nil), e.pendVal[:e.pendVlen]...)}
}

// RecheckPending re-runs the completion check for key's outstanding write
// against the current live view, as if a (virtual) ack had arrived. Writers
// call it after broadcasting their invalidations: if the live view shrank
// between the write's start and its broadcast — or the writer is the only
// live member — no further ack may ever arrive, and this is what completes
// the write instead.
func (c *Cache) RecheckPending(key uint64) (Update, bool) {
	e, ok := c.table.Load().m[key]
	if !ok {
		return Update{}, false
	}
	e.lock.Lock()
	defer e.lock.Unlock()
	return c.completeLocked(e, key, e.Recheck(*c.live.Load()))
}

// SetLive installs a new membership view and rechecks every outstanding Lin
// write against it: a write that was waiting on a peer no longer in the view
// completes the moment its remaining required acks are all in. The completed
// updates are returned for the caller to broadcast — exactly what ApplyAck's
// done=true hands it on the normal path. Growing the view never completes
// anything (Line.Recheck).
func (c *Cache) SetLive(live NodeSet) []Update {
	c.live.Store(&live)
	var completed []Update
	for key, e := range c.table.Load().m {
		e.lock.Lock()
		if upd, done := c.completeLocked(e, key, e.Recheck(live)); done {
			completed = append(completed, upd)
		}
		e.lock.Unlock()
	}
	return completed
}

// Live returns the membership view the protocols currently count against.
func (c *Cache) Live() NodeSet { return *c.live.Load() }

// TakeOrphanedLoserWrite returns the staged value of a completed
// conflict-lost write whose superseding winner has left the live view
// (Line.TakeOrphanedLoser): the caller must re-drive this acknowledged value
// through a fresh write. Completion paths call it after every
// conflict-capable completion on a shrunken view.
func (c *Cache) TakeOrphanedLoserWrite(key uint64) (Update, bool) {
	e, ok := c.table.Load().m[key]
	if !ok {
		return Update{}, false
	}
	e.lock.Lock()
	defer e.lock.Unlock()
	if !e.TakeOrphanedLoser(*c.live.Load()) {
		return Update{}, false
	}
	e.wakeLocked()
	return e.stagedUpdate(key), true
}

// DiscardOrphanedInvalidations re-validates every entry left Invalid by an
// in-flight write of the given (newly excised) writer (Line.HealOrphan):
// without this, readers of those hot keys would stay parked on ErrInvalid
// until some client happened to rewrite the key.
//
// Healed entries holding a conflict-lost local write are returned in
// resurrect — the caller must re-drive each through the full write protocol
// so the acknowledged value reaches every replica with a fresh dominating
// timestamp. If the orphan's update reached a subset of replicas before the
// death, replicas diverge on that key until the next write (whose strictly
// higher timestamp re-converges every copy) — an accepted recovery window;
// see ROADMAP for the full per-key recovery round.
func (c *Cache) DiscardOrphanedInvalidations(writer uint8) (healed int, resurrect []Update) {
	for key, e := range c.table.Load().m {
		e.lock.Lock()
		if ok, again := e.HealOrphan(writer); ok {
			e.wakeLocked()
			healed++
			if again {
				resurrect = append(resurrect, e.stagedUpdate(key))
			}
		}
		e.lock.Unlock()
	}
	return healed, resurrect
}

// ApplyUpdateLin applies a received Lin update if it is the one the entry is
// waiting for, and reports whether it was applied.
func (c *Cache) ApplyUpdateLin(u Update) bool {
	e, ok := c.table.Load().m[u.Key]
	if !ok {
		c.stats.UpdatesDiscarded.Add(1)
		return false
	}
	e.lock.Lock()
	applied := e.ApplyUpdateLin(u.TS)
	if applied {
		e.setValueLocked(u.Value)
		e.dirty = true
		e.wakeLocked()
	}
	e.lock.Unlock()
	c.countUpdate(applied)
	return applied
}

// countUpdate counts one received update as applied or discarded.
func (c *Cache) countUpdate(applied bool) {
	if applied {
		c.stats.UpdatesApplied.Add(1)
	} else {
		c.stats.UpdatesDiscarded.Add(1)
	}
}

// PendingWrite reports whether this node has an outstanding Lin write for
// key (test hook).
func (c *Cache) PendingWrite(key uint64) bool {
	_, p := c.PendingWriteTS(key)
	return p
}

// PendingWriteTS returns the timestamp of key's outstanding Lin write, if
// any. RMW completion polling matches it against the stamp the poller was
// handed, so a later writer's pending write never reads as "still mine".
func (c *Cache) PendingWriteTS(key uint64) (ts timestamp.TS, pending bool) {
	if e, ok := c.table.Load().m[key]; ok {
		e.lock.Read(func() { ts, pending = e.PendTS, e.Pending })
	}
	return ts, pending
}
