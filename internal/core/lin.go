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
//     writers can never starve each other (deadlock freedom).
//  3. When the writer has gathered N-1 acks it applies the value locally
//     (if no higher-timestamped write intervened), transitions the entry
//     back to Valid and broadcasts the update; replicas in Invalid state
//     apply an update exactly when its timestamp matches the invalidation
//     they observed last, otherwise the update is discarded.
//
// Writes are fully distributed: any replica can initiate a write for any
// cached key; serialization comes from the timestamps alone.

// WriteLinStart begins a Lin write. On a cache hit it stages the value,
// moves the entry to the Write state and returns the Invalidation to
// broadcast. The write completes when ApplyAck reports done; until then
// reads on this node return the pre-write value (the put has not returned,
// so that is linearizable), and further local writes to the key are refused
// with ErrWritePending.
func (c *Cache) WriteLinStart(key uint64, value []byte) (Invalidation, error) {
	e, ok := c.table.Load().m[key]
	if !ok {
		c.stats.Misses.Add(1)
		return Invalidation{}, ErrMiss
	}
	var inv Invalidation
	e.lock.Lock()
	if e.frozen {
		// The key is being demoted; the caller retries until the entry is
		// removed and the write misses to the home shard (which by then
		// holds the demotion's write-back).
		e.lock.Unlock()
		return Invalidation{}, ErrFrozen
	}
	if e.pendActive {
		e.lock.Unlock()
		return Invalidation{}, ErrWritePending
	}
	// The new timestamp must dominate everything this replica has seen,
	// including a concurrent writer's invalidation timestamp. The writer
	// stamps its own copy too: at completion, e.ts == pendTS tells it that
	// no higher-timestamped write intervened.
	e.pendTS = e.ts.Next(c.nodeID)
	e.ts = e.pendTS
	if len(e.pendVal) < len(value) {
		e.pendVal = make([]byte, len(value))
	}
	copy(e.pendVal[:len(value)], value)
	e.pendVlen = len(value)
	e.pendActive = true
	e.pendSuperseded = false // the new write supersedes any lost predecessor
	// Count only the peers live right now: the invalidation broadcast that
	// follows reaches exactly those, so they are exactly the acks to wait for.
	e.pendWait = c.live.Load().Without(c.nodeID)
	e.ackFrom = NodeSet{}
	if e.state == StateValid {
		e.state = StateWrite
	}
	inv = Invalidation{Key: key, TS: e.pendTS, From: c.nodeID}
	e.lock.Unlock()

	c.stats.Hits.Add(1)
	c.stats.WritesLin.Add(1)
	return inv, nil
}

// RMWLinStart begins a Lin read-modify-write: under the entry lock it reads
// the current value, hands a copy to compute, and — when compute elects to
// write — stages the returned value exactly like WriteLinStart (fresh
// dominating timestamp, Write state, Invalidation to broadcast). The lock
// is what makes the read-to-publish window atomic against every other local
// mutation of the entry; remote writers are ordered by the timestamp the RMW
// claims before releasing it. witness is the value compute observed (always
// a fresh copy), applied reports whether compute chose to write (a CAS whose
// expectation failed returns applied=false with no protocol action — the
// witness is the answer). Unlike a blind write, an RMW cannot proceed on an
// Invalid entry: the current value is unreadable until the in-flight
// update lands, so ErrInvalid is returned and the caller parks like a read.
func (c *Cache) RMWLinStart(key uint64, compute func(cur []byte) ([]byte, bool)) (inv Invalidation, witness []byte, applied bool, err error) {
	e, ok := c.table.Load().m[key]
	if !ok {
		c.stats.Misses.Add(1)
		return Invalidation{}, nil, false, ErrMiss
	}
	e.lock.Lock()
	if e.frozen {
		e.lock.Unlock()
		return Invalidation{}, nil, false, ErrFrozen
	}
	if e.installing {
		// Promotion placeholder: no value to read; the home shard serves.
		e.lock.Unlock()
		c.stats.Misses.Add(1)
		return Invalidation{}, nil, false, ErrMiss
	}
	if e.state == StateInvalid {
		e.lock.Unlock()
		c.stats.InvalidStalls.Add(1)
		return Invalidation{}, nil, false, ErrInvalid
	}
	if e.pendActive {
		e.lock.Unlock()
		return Invalidation{}, nil, false, ErrWritePending
	}
	witness = append([]byte(nil), e.val[:e.vlen]...)
	value, ok := compute(witness)
	if !ok {
		e.lock.Unlock()
		c.stats.Hits.Add(1)
		return Invalidation{}, witness, false, nil
	}
	e.pendTS = e.ts.Next(c.nodeID)
	e.ts = e.pendTS
	if len(e.pendVal) < len(value) {
		e.pendVal = make([]byte, len(value))
	}
	copy(e.pendVal[:len(value)], value)
	e.pendVlen = len(value)
	e.pendActive = true
	e.pendSuperseded = false
	e.pendWait = c.live.Load().Without(c.nodeID)
	e.ackFrom = NodeSet{}
	if e.state == StateValid {
		e.state = StateWrite
	}
	inv = Invalidation{Key: key, TS: e.pendTS, From: c.nodeID}
	e.lock.Unlock()

	c.stats.Hits.Add(1)
	c.stats.WritesLin.Add(1)
	return inv, witness, true, nil
}

// ApplyInvalidation processes a received invalidation and returns the Ack to
// send back to the writer. Acks are always produced; the entry is
// invalidated only when the incoming timestamp orders after the stored one.
// A replica that is itself in the Write state can thus lose the race: its
// entry becomes Invalid and its own completion will not publish its value.
func (c *Cache) ApplyInvalidation(inv Invalidation) (Ack, bool) {
	c.stats.Invalidations.Add(1)
	e, ok := c.table.Load().m[inv.Key]
	if !ok {
		// Not cached this epoch: nothing to invalidate, but still ack so
		// the writer can make progress.
		return Ack{Key: inv.Key, TS: inv.TS, From: c.nodeID}, false
	}
	invalidated := false
	e.lock.Lock()
	// The dead-writer check runs under e.lock, AFTER the lock is acquired:
	// a writer outside our membership view can never publish its update
	// (broadcasts exclude it both ways), so invalidating would wedge local
	// readers on a state only that update could clear — an in-flight
	// invalidation racing the writer's excision must not re-open the window
	// DiscardOrphanedInvalidations closed. The excision scan takes this same
	// entry lock after storing the shrunken live set, so whichever side runs
	// second sees the other's effect: the scan heals an already-applied
	// invalidation, and a post-scan invalidation sees the writer dead and
	// skips. Still acked either way, in case the suspicion was false and the
	// writer is counting.
	if c.live.Load().Has(inv.From) && inv.TS.After(e.ts) {
		e.ts = inv.TS
		e.state = StateInvalid
		invalidated = true
	}
	e.lock.Unlock()
	return Ack{Key: inv.Key, TS: inv.TS, From: c.nodeID}, invalidated
}

// ApplyAck records an acknowledgement for this node's outstanding write.
// When acks cover every counted peer still in the live view, the write
// completes: the staged value is applied locally if its timestamp is still
// the highest observed (otherwise a concurrent writer won the race and its
// update will carry the final value), the entry returns to Valid when
// appropriate, and the Update to broadcast is returned with done=true.
func (c *Cache) ApplyAck(a Ack) (Update, bool) {
	e, ok := c.table.Load().m[a.Key]
	if !ok {
		return Update{}, false
	}
	c.stats.AcksReceived.Add(1)

	var out Update
	done := false
	e.lock.Lock()
	if e.pendActive && a.TS == e.pendTS {
		e.ackFrom = e.ackFrom.With(a.From)
		if c.pendingSatisfiedLocked(e) {
			done = true
			out = c.finishPendingLocked(e, a.Key)
		}
	}
	e.lock.Unlock()
	return out, done
}

// pendingSatisfiedLocked reports whether e's outstanding write has gathered
// acks from every still-required peer. The requirement prunes *permanently*:
// a counted peer found outside the live view at any evaluation is removed
// from pendWait and never re-required — even if it later rejoins, it
// received no invalidation, so re-requiring its ack would deadlock the
// writer across an excise/rejoin flap. (SetLive evaluates every outstanding
// write when the view shrinks, so the prune always happens while the peer is
// out.) Called with e.lock held.
func (c *Cache) pendingSatisfiedLocked(e *entry) bool {
	e.pendWait = e.pendWait.Intersect(*c.live.Load())
	return e.ackFrom.Contains(e.pendWait)
}

// finishPendingLocked completes e's outstanding write and returns the Update
// to broadcast. Called with e.lock held and pendActive true.
func (c *Cache) finishPendingLocked(e *entry, key uint64) Update {
	e.pendActive = false
	e.wakeLocked() // the writer itself, writers queued on the key, readers if it turns Valid
	if e.ts == e.pendTS {
		// Our write is still the latest this replica has seen: perform it
		// locally and publish.
		e.setValueLocked(e.pendVal[:e.pendVlen])
		e.dirty = true
		e.state = StateValid
	} else {
		// A concurrent write with a higher timestamp invalidated us; our
		// value is superseded before ever becoming visible. The entry stays
		// Invalid awaiting the winner's update — but the client is told
		// success, so the staged value must survive until that update lands
		// (pendSuperseded: if the winner dies unpublished, it re-publishes).
		e.pendSuperseded = true
		c.stats.WriteConflictsLost.Add(1)
	}
	return Update{
		Key:   key,
		TS:    e.pendTS,
		Value: append([]byte(nil), e.pendVal[:e.pendVlen]...),
	}
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
	var out Update
	done := false
	e.lock.Lock()
	if e.pendActive && c.pendingSatisfiedLocked(e) {
		done = true
		out = c.finishPendingLocked(e, key)
	}
	e.lock.Unlock()
	return out, done
}

// SetLive installs a new membership view and re-examines every outstanding
// Lin write against it: a write that was waiting on a peer no longer in the
// view completes the moment its remaining required acks are all in. The
// completed updates are returned so the caller can wake the blocked writers
// and broadcast — exactly what ApplyAck's done=true hands it on the normal
// path. Growing the view never completes anything (a joining peer was not
// counted by in-flight writes and is not added to their requirements).
func (c *Cache) SetLive(live NodeSet) []Update {
	c.live.Store(&live)
	var completed []Update
	for key, e := range c.table.Load().m {
		e.lock.Lock()
		if e.pendActive && c.pendingSatisfiedLocked(e) {
			completed = append(completed, c.finishPendingLocked(e, key))
		}
		e.lock.Unlock()
	}
	return completed
}

// Live returns the membership view the protocols currently count against.
func (c *Cache) Live() NodeSet { return *c.live.Load() }

// TakeOrphanedLoserWrite returns the staged value of a completed
// conflict-lost write whose superseding winner has left the live view: the
// winner can never publish the update that was supposed to carry the final
// value, so the caller must re-drive this acknowledged value through a
// fresh write. Completion paths call it after every conflict-capable
// completion — DiscardOrphanedInvalidations only covers writes that were
// already conflict-lost when the view flipped; a write whose final ack
// lands after the flip reaches this instead. The flag clears so the value
// is taken exactly once; a live winner (flag kept) means the update is
// still coming and nothing is taken.
func (c *Cache) TakeOrphanedLoserWrite(key uint64) (Update, bool) {
	e, ok := c.table.Load().m[key]
	if !ok {
		return Update{}, false
	}
	e.lock.Lock()
	defer e.lock.Unlock()
	if e.pendActive || !e.pendSuperseded || c.live.Load().Has(e.ts.Writer) {
		return Update{}, false
	}
	e.pendSuperseded = false
	// The dead winner's invalidation can no longer be cleared by its
	// update; re-validate so the re-publish (and readers) are not wedged.
	if e.state == StateInvalid {
		e.state = StateValid
		e.wakeLocked()
	}
	return Update{
		Key:   key,
		TS:    e.pendTS,
		Value: append([]byte(nil), e.pendVal[:e.pendVlen]...),
	}, true
}

// DiscardOrphanedInvalidations re-validates every entry left Invalid by an
// in-flight write of the given (newly excised) writer: the matching update
// can never arrive — the writer is gone and broadcasts exclude it — so
// without this, readers of those hot keys would stay parked on ErrInvalid until
// some client happened to rewrite the key. The pre-invalidation value
// becomes readable again: the orphaned write was never acknowledged to the
// dead writer's client, so discarding it is within the Lin contract.
//
// Healed entries holding a conflict-lost local write (pendSuperseded: this
// node's client WAS told success, and the dead winner was supposed to carry
// the final value) are returned in resurrect — the caller must re-drive each
// through the full write protocol so the acknowledged value reaches every
// replica with a fresh dominating timestamp. If the orphan's update reached
// a subset of replicas before the death, replicas diverge on that key until
// the next write (whose strictly higher timestamp re-converges every copy)
// — an accepted recovery window; see ROADMAP for the full per-key recovery
// round.
func (c *Cache) DiscardOrphanedInvalidations(writer uint8) (healed int, resurrect []Update) {
	for key, e := range c.table.Load().m {
		e.lock.Lock()
		if e.state == StateInvalid && e.ts.Writer == writer {
			e.state = StateValid
			e.wakeLocked()
			healed++
			if e.pendSuperseded {
				e.pendSuperseded = false
				resurrect = append(resurrect, Update{
					Key:   key,
					TS:    e.pendTS,
					Value: append([]byte(nil), e.pendVal[:e.pendVlen]...),
				})
			}
		}
		e.lock.Unlock()
	}
	return healed, resurrect
}

// ApplyUpdateLin applies a received Lin update: the value is installed only
// when the entry is Invalid and the update's timestamp matches the
// invalidation's, i.e. this is exactly the update the replica is waiting
// for; stale updates (superseded by a higher-timestamped invalidation) are
// discarded. It reports whether the update was applied.
func (c *Cache) ApplyUpdateLin(u Update) bool {
	e, ok := c.table.Load().m[u.Key]
	if !ok {
		c.stats.UpdatesDiscarded.Add(1)
		return false
	}
	applied := false
	e.lock.Lock()
	if e.state == StateInvalid && u.TS == e.ts {
		e.setValueLocked(u.Value)
		e.dirty = true
		e.state = StateValid
		// The winner published: a conflict-lost local write is now correctly
		// "applied then overwritten" — nothing left to resurrect.
		e.pendSuperseded = false
		e.wakeLocked()
		applied = true
	}
	e.lock.Unlock()
	if applied {
		c.stats.UpdatesApplied.Add(1)
	} else {
		c.stats.UpdatesDiscarded.Add(1)
	}
	return applied
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
func (c *Cache) PendingWriteTS(key uint64) (timestamp.TS, bool) {
	e, ok := c.table.Load().m[key]
	if !ok {
		return timestamp.TS{}, false
	}
	var (
		ts timestamp.TS
		p  bool
	)
	e.lock.Read(func() { p = e.pendActive; ts = e.pendTS })
	return ts, p
}
