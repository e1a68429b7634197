package core

import "repro/internal/timestamp"

// Parking: the one way to wait for a cached entry to change.
//
// Three refusals tell a caller "not now, and something else has to happen
// first": ErrInvalid (an update is in flight), ErrWritePending (this node's
// own write to the key is gathering acks — the key's node-local write mutex)
// and ErrFrozen (a hot-set reconfiguration holds the key's writers). A fourth
// wait has no error: a writer waiting for its own staged write to complete.
// All four end inside a section that holds the entry lock, so the entry
// carries one wake channel: made lazily, under that lock, by the first
// caller that finds its condition still true, and closed (then forgotten)
// by every locked section that can end a stall — an applied update, a
// completed write, a heal after a view flip, an unfreeze, a fill, a retire,
// a removal. Checking the condition and taking the channel happen under the
// same lock the transition takes, so a wake-up cannot be lost; an entry
// nobody waits on carries a nil channel and pays one nil check per
// transition. Closing wakes every waiter whatever it waits for; a waiter
// whose own condition still holds simply parks again.

// wakeLocked releases everyone parked on e. Called with e.lock held.
func (e *entry) wakeLocked() {
	if e.wake != nil {
		close(e.wake)
		e.wake = nil
	}
}

// parkWhile returns a channel closed at key's entry's next stall-ending
// change, or nil when there is nothing to wait for: holds (evaluated under
// the entry lock) is already false, or the entry left the hot set — a table
// swap stores the new table before it locks the dropped entries, so whoever
// takes the entry lock after that sees the swap here, and whoever took it
// before is woken by it.
func (c *Cache) parkWhile(key uint64, holds func(*entry) bool) <-chan struct{} {
	e, ok := c.table.Load().m[key]
	if !ok {
		return nil
	}
	e.lock.Lock()
	defer e.lock.Unlock()
	if c.table.Load().m[key] != e || !holds(e) {
		return nil
	}
	if e.wake == nil {
		e.wake = make(chan struct{})
	}
	return e.wake
}

// Park is what a caller does with ErrInvalid, ErrWritePending or ErrFrozen:
// it returns a channel to wait on before retrying, or nil when the refusal
// no longer holds (or the key is no longer cached) and the retry can go
// ahead at once. A wake-up promises only that the entry changed; the retry
// may be refused again.
func (c *Cache) Park(key uint64, stall error) <-chan struct{} {
	return c.parkWhile(key, func(e *entry) bool {
		switch stall {
		case ErrInvalid:
			return e.State == StateInvalid
		case ErrWritePending:
			return e.Pending
		case ErrFrozen:
			return e.frozen
		}
		return false
	})
}

// AwaitWrite is Park for a writer's own staged write: nil once the write
// stamped ts (the timestamp of the Invalidation its WriteLinStart or
// RMWLinStart returned) is no longer outstanding — its last ack arrived, or
// a view change pruned the peers it was waiting for. A later write to the
// key never reads as "still mine": its stamp is strictly higher.
func (c *Cache) AwaitWrite(key uint64, ts timestamp.TS) <-chan struct{} {
	return c.parkWhile(key, func(e *entry) bool {
		return e.Pending && e.PendTS == ts
	})
}
