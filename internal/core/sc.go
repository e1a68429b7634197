package core

// SC protocol (per-key Sequential Consistency, §5.2).
//
// The protocol is the update-based design of Burckhardt, fully distributed:
// a put that hits in any cache is applied locally at once — writes are
// non-blocking and reads that follow observe the new value immediately —
// and an update carrying the new value and its Lamport timestamp is
// broadcast to the other replicas. Replicas apply an update only when its
// timestamp exceeds the stored one (session ids break ties), so all replicas
// converge on the same per-key write order: the (clock, writer) pair gives
// every write a unique point in a single total order.

// WriteSC performs a local SC write. On a cache hit it increments the
// Lamport clock, stores the value, and returns the Update that must be
// broadcast to the other N-1 replicas. On a miss it returns ErrMiss and the
// caller forwards the put to the key's home shard.
func (c *Cache) WriteSC(key uint64, value []byte) (Update, error) {
	e, err := c.lockWritable(key)
	if err != nil {
		return Update{}, err
	}
	ts := e.WriteSC(c.nodeID)
	e.setValueLocked(value)
	e.dirty = true
	e.lock.Unlock()
	c.stats.Hits.Add(1)
	c.stats.WritesSC.Add(1)
	return Update{Key: key, TS: ts, Value: append([]byte(nil), value...)}, nil
}

// RMWSC performs a local SC read-modify-write: under the entry lock it reads
// the current value, hands a copy to compute, and — when compute elects to
// write — applies the returned value immediately (SC writes are
// non-blocking) and returns the Update to broadcast. witness is the value
// compute observed (always a fresh copy); applied reports whether compute
// chose to write. The entry lock makes the read-compute-write sequence
// atomic against every other mutation of this replica; under SC this node is
// the key's single RMW serialization point, so replica convergence by
// timestamp order carries RMW atomicity cluster-wide.
func (c *Cache) RMWSC(key uint64, compute func(cur []byte) ([]byte, bool)) (upd Update, witness []byte, applied bool, err error) {
	e, witness, err := c.lockReadable(key)
	if err != nil {
		return Update{}, nil, false, err
	}
	value, applied := compute(witness)
	if applied {
		upd = Update{Key: key, TS: e.WriteSC(c.nodeID), Value: append([]byte(nil), value...)}
		e.setValueLocked(value)
		e.dirty = true
		c.stats.WritesSC.Add(1)
	}
	e.lock.Unlock()
	return upd, witness, applied, nil
}

// ApplyUpdateSC applies a received SC update: the change is applied only if
// the received timestamp orders after the stored one. It reports whether the
// update was applied.
func (c *Cache) ApplyUpdateSC(u Update) bool {
	e, ok := c.table.Load().m[u.Key]
	if !ok {
		// The hot set shifted between the sender's epoch and ours; the
		// update is simply dropped — the KVS home copy is the fallback.
		c.stats.UpdatesDiscarded.Add(1)
		return false
	}
	e.lock.Lock()
	applied := e.AdoptSC(u.TS)
	if applied {
		e.setValueLocked(u.Value)
		e.dirty = true
	}
	e.lock.Unlock()
	c.countUpdate(applied)
	return applied
}
