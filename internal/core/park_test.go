package core

import (
	"testing"

	"repro/internal/timestamp"
)

// parked reports whether ch is a live park: non-nil and not yet closed.
func parked(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return false
	default:
		return true
	}
}

// woken reports whether ch was a park that has since been released.
func woken(ch <-chan struct{}) bool { return ch != nil && !parked(ch) }

func TestParkNothingToWaitFor(t *testing.T) {
	c := newCacheWith(t, 0, 3, 1)
	for _, stall := range []error{ErrInvalid, ErrWritePending, ErrFrozen, ErrMiss} {
		if ch := c.Park(1, stall); ch != nil {
			t.Fatalf("Park(%v) on a quiet entry returned a channel", stall)
		}
		if ch := c.Park(9, stall); ch != nil {
			t.Fatalf("Park(%v) on an uncached key returned a channel", stall)
		}
	}
	if ch := c.AwaitWrite(1, timestamp.TS{Clock: 1}); ch != nil {
		t.Fatal("AwaitWrite with no write outstanding returned a channel")
	}
}

// A reader parks on an invalidated entry and the matching update — nothing
// else — releases it; the write's completion releases the writer and a second
// local writer queued behind it.
func TestParkReleasedByTheProtocol(t *testing.T) {
	caches := newReplicaGroup(t, 3, 1)
	inv, err := caches[0].WriteLinStart(1, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	own := caches[0].AwaitWrite(1, inv.TS)
	if _, err := caches[0].WriteLinStart(1, []byte("v2")); err != ErrWritePending {
		t.Fatalf("second local write: %v, want ErrWritePending", err)
	}
	queued := caches[0].Park(1, ErrWritePending)
	if !parked(own) || !parked(queued) {
		t.Fatal("writer and queued writer must both park while acks are outstanding")
	}

	a1, _ := caches[1].ApplyInvalidation(inv)
	a2, _ := caches[2].ApplyInvalidation(inv)
	if _, _, err := caches[1].Read(1, nil); err != ErrInvalid {
		t.Fatalf("read of invalidated entry: %v", err)
	}
	reader := caches[1].Park(1, ErrInvalid)
	if !parked(reader) {
		t.Fatal("reader must park on the invalidated entry")
	}

	caches[0].ApplyAck(a1)
	if !parked(own) {
		t.Fatal("first ack of two released the writer")
	}
	upd, done := caches[0].ApplyAck(a2)
	if !done {
		t.Fatal("write did not complete")
	}
	if !woken(own) || !woken(queued) {
		t.Fatal("completion must release the writer and the writer queued behind it")
	}
	if ch := caches[0].AwaitWrite(1, inv.TS); ch != nil {
		t.Fatal("a completed write still reads as outstanding")
	}

	// A stale update (wrong timestamp) must not release the reader.
	caches[1].ApplyUpdateLin(Update{Key: 1, TS: timestamp.TS{Clock: 99}, Value: []byte("zz")})
	if !parked(reader) {
		t.Fatal("a discarded update released the reader")
	}
	caches[1].ApplyUpdateLin(upd)
	if !woken(reader) {
		t.Fatal("the matching update did not release the reader")
	}
	if ch := caches[1].Park(1, ErrInvalid); ch != nil {
		t.Fatal("entry is Valid again; nothing to park on")
	}
}

// A later local write's stamp never reads as the earlier writer's own.
func TestAwaitWriteMatchesOnlyItsOwnStamp(t *testing.T) {
	caches := newReplicaGroup(t, 3, 1)
	first := deliverLinWrite(t, caches, 0, 1, []byte("a"))
	inv, err := caches[0].WriteLinStart(1, []byte("b"))
	if err != nil {
		t.Fatal(err)
	}
	if ch := caches[0].AwaitWrite(1, first.TS); ch != nil {
		t.Fatal("the completed first write reads as outstanding because a second one is")
	}
	if ch := caches[0].AwaitWrite(1, inv.TS); !parked(ch) {
		t.Fatal("the outstanding second write must park its writer")
	}
}

// View changes end stalls too: a shrunken view completes the write (writer
// released), and excising an invalidating writer heals the entry (reader
// released).
func TestParkReleasedByViewChange(t *testing.T) {
	caches := newReplicaGroup(t, 3, 1, 2)
	// Key 1: node 2 invalidates node 0 and dies before publishing.
	inv, err := caches[2].WriteLinStart(1, []byte("dead"))
	if err != nil {
		t.Fatal(err)
	}
	caches[0].ApplyInvalidation(inv)
	reader := caches[0].Park(1, ErrInvalid)
	// Key 2: node 1's write has node 0's ack and waits on node 2's.
	mine, err := caches[1].WriteLinStart(2, []byte("mine"))
	if err != nil {
		t.Fatal(err)
	}
	writer := caches[1].AwaitWrite(2, mine.TS)
	ack, _ := caches[0].ApplyInvalidation(mine)
	caches[1].ApplyAck(ack)
	if !parked(reader) || !parked(writer) {
		t.Fatal("both must be parked before the flip")
	}

	live := FullNodeSet(3).Without(2)
	if done := caches[1].SetLive(live); len(done) != 1 {
		t.Fatalf("SetLive completed %d writes, want 1", len(done))
	}
	if !woken(writer) {
		t.Fatal("the view flip completed the write but left its writer parked")
	}
	caches[0].SetLive(live)
	if healed, _ := caches[0].DiscardOrphanedInvalidations(2); healed != 1 {
		t.Fatalf("healed %d entries, want 1", healed)
	}
	if !woken(reader) {
		t.Fatal("healing the orphaned invalidation left the reader parked")
	}
}

// Reconfiguration ends frozen stalls: Unfreeze releases, and so does leaving
// the hot set — by Remove or by a full Install — whichever side of the table
// swap the parker arrived on.
func TestParkReleasedByReconfiguration(t *testing.T) {
	c := newCacheWith(t, 0, 3, 1, 2, 3)
	c.Freeze([]uint64{1, 2, 3})
	if _, err := c.WriteLinStart(1, []byte("x")); err != ErrFrozen {
		t.Fatalf("write to frozen entry: %v", err)
	}
	p1, p2, p3 := c.Park(1, ErrFrozen), c.Park(2, ErrFrozen), c.Park(3, ErrFrozen)
	if !parked(p1) || !parked(p2) || !parked(p3) {
		t.Fatal("writers must park on frozen entries")
	}
	c.Unfreeze([]uint64{1})
	if !woken(p1) || !parked(p2) {
		t.Fatal("Unfreeze must release exactly the unfrozen key's writers")
	}
	c.Retire([]uint64{2})
	c.Remove([]uint64{2})
	if !woken(p2) {
		t.Fatal("Remove left a writer parked on the dropped entry")
	}
	if ch := c.Park(2, ErrFrozen); ch != nil {
		t.Fatal("a dropped key must not be parked on: the retry misses")
	}
	c.Install([]uint64{1}, func(uint64) ([]byte, timestamp.TS, bool) { return nil, timestamp.TS{}, false })
	if !woken(p3) {
		t.Fatal("Install left a writer parked on the evicted entry")
	}
}

// A placeholder's fill wakes whoever waits on it (reads start hitting).
func TestParkReleasedByFill(t *testing.T) {
	c := newCacheWith(t, 0, 3)
	c.AddPending([]uint64{7})
	p := c.Park(7, ErrFrozen)
	if !parked(p) {
		t.Fatal("a writer must park on a promotion placeholder")
	}
	c.FillAdd(7, []byte("v"), timestamp.TS{Clock: 1})
	if !woken(p) {
		t.Fatal("FillAdd did not wake the placeholder's waiters")
	}
	if again := c.Park(7, ErrFrozen); !parked(again) {
		t.Fatal("the filled entry is still frozen: the woken writer parks again")
	}
}

// The wake primitive is free while nobody waits: a full Lin write allocates
// exactly what it did before entries could be parked on.
func TestParkingCostsNothingUnparked(t *testing.T) {
	caches := newReplicaGroup(t, 3, 1)
	val := []byte("0123456789012345678901234567890123456789")
	allocs := testing.AllocsPerRun(200, func() {
		inv, _ := caches[0].WriteLinStart(1, val)
		a1, _ := caches[1].ApplyInvalidation(inv)
		a2, _ := caches[2].ApplyInvalidation(inv)
		caches[0].ApplyAck(a1)
		upd, _ := caches[0].ApplyAck(a2)
		caches[1].ApplyUpdateLin(upd)
		caches[2].ApplyUpdateLin(upd)
	})
	// The one allocation is the update's immutable value copy.
	if allocs > 1 {
		t.Fatalf("an unparked Lin write costs %.1f allocs, want 1", allocs)
	}
}
