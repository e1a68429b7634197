package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/timestamp"
)

// deliverLinWrite runs one complete, uncontended Lin write through the
// two-phase protocol and returns the update that was broadcast.
func deliverLinWrite(t *testing.T, caches []*Cache, writer int, key uint64, val []byte) Update {
	t.Helper()
	inv, err := caches[writer].WriteLinStart(key, val)
	if err != nil {
		t.Fatal(err)
	}
	var upd Update
	done := false
	for i, c := range caches {
		if i == writer {
			continue
		}
		ack, _ := c.ApplyInvalidation(inv)
		if upd2, d := caches[writer].ApplyAck(ack); d {
			upd, done = upd2, true
		}
	}
	if !done {
		t.Fatalf("write did not complete after %d acks", len(caches)-1)
	}
	for i, c := range caches {
		if i == writer {
			continue
		}
		c.ApplyUpdateLin(upd)
	}
	return upd
}

func TestLinMiss(t *testing.T) {
	c := newCacheWith(t, 0, 3, 1)
	if _, err := c.WriteLinStart(9, []byte("x")); err != ErrMiss {
		t.Fatalf("err = %v", err)
	}
}

func TestLinTwoPhaseBasic(t *testing.T) {
	caches := newReplicaGroup(t, 3, 1)
	upd := deliverLinWrite(t, caches, 0, 1, []byte("lin"))
	if upd.TS.Writer != 0 || upd.TS.Clock != 1 {
		t.Fatalf("update ts = %v", upd.TS)
	}
	for i, c := range caches {
		v, ts, err := c.Read(1, nil)
		if err != nil || string(v) != "lin" || ts != upd.TS {
			t.Fatalf("replica %d: %q %v %v", i, v, ts, err)
		}
		st, _, _ := c.EntryState(1)
		if st != StateValid {
			t.Fatalf("replica %d state %v", i, st)
		}
	}
}

func TestLinWriterServesOldValueWhilePending(t *testing.T) {
	caches := newReplicaGroup(t, 3, 7)
	if _, err := caches[0].WriteLinStart(7, []byte("new")); err != nil {
		t.Fatal(err)
	}
	// The put has not returned; a read at the writer must return the old
	// value (returning the new one would violate Lin's "a get may return a
	// value only after the put has returned" for remote sessions).
	v, _, err := caches[0].Read(7, nil)
	if err != nil || !bytes.Equal(v, []byte{7}) {
		t.Fatalf("pending read: %v %v", v, err)
	}
	st, _, _ := caches[0].EntryState(7)
	if st != StateWrite {
		t.Fatalf("state = %v, want Write", st)
	}
	if !caches[0].PendingWrite(7) {
		t.Fatalf("pending write not reported")
	}
}

func TestLinInvalidatedReplicaStallsReads(t *testing.T) {
	caches := newReplicaGroup(t, 3, 7)
	inv, err := caches[0].WriteLinStart(7, []byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	ack, invalidated := caches[1].ApplyInvalidation(inv)
	if !invalidated {
		t.Fatalf("replica must invalidate on a newer timestamp")
	}
	if ack.TS != inv.TS || ack.From != 1 {
		t.Fatalf("ack = %+v", ack)
	}
	if _, _, err := caches[1].Read(7, nil); err != ErrInvalid {
		t.Fatalf("read on Invalid entry: err = %v, want ErrInvalid", err)
	}
	if caches[1].Stats().InvalidStalls.Load() != 1 {
		t.Fatalf("stall not counted")
	}

	// Completing the protocol unblocks the reader with the new value.
	if _, done := caches[0].ApplyAck(ack); done {
		t.Fatalf("write must need N-1=2 acks, completed after 1")
	}
	ack2, _ := caches[2].ApplyInvalidation(inv)
	upd, done := caches[0].ApplyAck(ack2)
	if !done {
		t.Fatalf("write must complete after 2 acks")
	}
	if !caches[1].ApplyUpdateLin(upd) {
		t.Fatalf("matching update must apply")
	}
	v, _, err := caches[1].Read(7, nil)
	if err != nil || string(v) != "new" {
		t.Fatalf("after update: %q %v", v, err)
	}
}

func TestLinSecondLocalWriteRefused(t *testing.T) {
	caches := newReplicaGroup(t, 2, 1)
	if _, err := caches[0].WriteLinStart(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := caches[0].WriteLinStart(1, []byte("b")); err != ErrWritePending {
		t.Fatalf("err = %v, want ErrWritePending", err)
	}
}

func TestLinAckAlwaysSentEvenWhenStale(t *testing.T) {
	caches := newReplicaGroup(t, 2, 1)
	// Pre-advance replica 1 far ahead.
	deliverLinWrite(t, caches, 1, 1, []byte("x"))
	deliverLinWrite(t, caches, 1, 1, []byte("y"))

	// A writer stuck with an older view still gets acks (no deadlock) even
	// though its invalidation does not invalidate anyone. To build the
	// scenario, craft a stale invalidation directly.
	stale := Invalidation{Key: 1, TS: timestamp.TS{Clock: 1, Writer: 0}, From: 0}
	ack, invalidated := caches[1].ApplyInvalidation(stale)
	if invalidated {
		t.Fatalf("stale invalidation must not invalidate")
	}
	if ack.TS != stale.TS {
		t.Fatalf("ack must echo the invalidation timestamp")
	}
}

func TestLinStaleUpdateDiscarded(t *testing.T) {
	caches := newReplicaGroup(t, 3, 1)
	invA, _ := caches[0].WriteLinStart(1, []byte("A")) // ts 1.0
	invB, _ := caches[1].WriteLinStart(1, []byte("B")) // ts 1.1, wins tie

	// Replica 2 sees both invalidations; B's timestamp is higher.
	caches[2].ApplyInvalidation(invA)
	caches[2].ApplyInvalidation(invB)

	// A's update (would carry ts 1.0) must be discarded at replica 2.
	if caches[2].ApplyUpdateLin(Update{Key: 1, TS: invA.TS, Value: []byte("A")}) {
		t.Fatalf("stale update applied")
	}
	// B's matching update applies.
	if !caches[2].ApplyUpdateLin(Update{Key: 1, TS: invB.TS, Value: []byte("B")}) {
		t.Fatalf("winning update discarded")
	}
	v, _, _ := caches[2].Read(1, nil)
	if string(v) != "B" {
		t.Fatalf("value = %q", v)
	}
}

// Two concurrent writers: the higher (clock, writer) timestamp must win on
// every replica, the loser must detect the conflict, and everyone converges
// Valid. This is the scenario that makes the Lin protocol "more complex than
// the SC protocol" (§5.2) and is the core of its Murφ verification.
func TestLinConcurrentWritersConverge(t *testing.T) {
	caches := newReplicaGroup(t, 3, 1)
	invA, _ := caches[0].WriteLinStart(1, []byte("A")) // 1.0
	invB, _ := caches[1].WriteLinStart(1, []byte("B")) // 1.1

	// Cross-deliver invalidations (each writer also receives the other's).
	ackB0, _ := caches[0].ApplyInvalidation(invB) // invalidates A's entry (1.1 > 1.0)
	ackA1, _ := caches[1].ApplyInvalidation(invA) // stale at B (1.0 < 1.1), still acked
	ackA2, _ := caches[2].ApplyInvalidation(invA)
	ackB2, _ := caches[2].ApplyInvalidation(invB)

	updA, doneA := caches[0].ApplyAck(ackA1)
	if _, d := caches[0].ApplyAck(ackA2); !d && !doneA {
		t.Fatalf("A never completed")
	} else if d {
		updA = Update{Key: 1, TS: invA.TS, Value: []byte("A")}
		_ = updA
	}
	updA = Update{Key: 1, TS: invA.TS, Value: []byte("A")}

	updB, doneB := caches[1].ApplyAck(ackB0)
	if !doneB {
		if updB, doneB = caches[1].ApplyAck(ackB2); !doneB {
			t.Fatalf("B never completed")
		}
	} else {
		caches[1].ApplyAck(ackB2)
	}

	// The loser (A) must have recorded the conflict.
	if caches[0].Stats().WriteConflictsLost.Load() != 1 {
		t.Fatalf("A should have lost the race")
	}

	// Deliver updates everywhere, in the adversarial order (loser last).
	caches[1].ApplyUpdateLin(updB)
	caches[2].ApplyUpdateLin(updB)
	caches[1].ApplyUpdateLin(updA)
	caches[2].ApplyUpdateLin(updA)
	caches[0].ApplyUpdateLin(updB)
	caches[0].ApplyUpdateLin(updA)

	for i, c := range caches {
		v, ts, err := c.Read(1, nil)
		if err != nil || string(v) != "B" || ts != invB.TS {
			t.Fatalf("replica %d: %q %v %v (want B @ %v)", i, v, ts, err, invB.TS)
		}
		st, _, _ := c.EntryState(1)
		if st != StateValid {
			t.Fatalf("replica %d not Valid: %v", i, st)
		}
	}
}

// Randomized whole-protocol soup: many writes from random nodes with
// arbitrarily interleaved message delivery must always quiesce with all
// replicas Valid (deadlock freedom) and identical (safety/convergence).
func TestLinRandomizedSoup(t *testing.T) {
	type envelope struct {
		to  int
		msg any
	}
	const nodes = 4
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		caches := newReplicaGroup(t, nodes, 1, 2)
		var inflight []envelope
		writesLeft := 30
		writersBusy := map[string]bool{}

		step := func() {
			// Either start a new write or deliver a random message.
			if writesLeft > 0 && (len(inflight) == 0 || rng.Intn(3) == 0) {
				w := rng.Intn(nodes)
				key := uint64(1 + rng.Intn(2))
				tag := fmt.Sprintf("%d/%d", w, key)
				if writersBusy[tag] {
					return
				}
				val := []byte(fmt.Sprintf("w%d-%d", w, writesLeft))
				inv, err := caches[w].WriteLinStart(key, val)
				if err == ErrWritePending {
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				writersBusy[tag] = true
				writesLeft--
				for to := 0; to < nodes; to++ {
					if to != w {
						inflight = append(inflight, envelope{to, inv})
					}
				}
				return
			}
			if len(inflight) == 0 {
				return
			}
			i := rng.Intn(len(inflight))
			env := inflight[i]
			inflight[i] = inflight[len(inflight)-1]
			inflight = inflight[:len(inflight)-1]
			switch m := env.msg.(type) {
			case Invalidation:
				ack, _ := caches[env.to].ApplyInvalidation(m)
				inflight = append(inflight, envelope{int(m.From), ack})
			case Ack:
				if upd, done := caches[env.to].ApplyAck(m); done {
					writersBusy[fmt.Sprintf("%d/%d", env.to, m.Key)] = false
					for to := 0; to < nodes; to++ {
						if to != env.to {
							inflight = append(inflight, envelope{to, upd})
						}
					}
				}
			case Update:
				caches[env.to].ApplyUpdateLin(m)
			}
		}

		for iter := 0; iter < 100000 && (writesLeft > 0 || len(inflight) > 0); iter++ {
			step()
		}
		if len(inflight) != 0 {
			t.Fatalf("trial %d: %d messages never drained (deadlock?)", trial, len(inflight))
		}

		for _, key := range []uint64{1, 2} {
			ref, refTS, err := caches[0].Read(key, nil)
			if err != nil {
				t.Fatalf("trial %d: replica 0 not readable: %v", trial, err)
			}
			for i := 1; i < nodes; i++ {
				v, ts, err := caches[i].Read(key, nil)
				if err != nil {
					t.Fatalf("trial %d key %d: replica %d unreadable at quiescence: %v", trial, key, i, err)
				}
				if !bytes.Equal(v, ref) || ts != refTS {
					t.Fatalf("trial %d key %d: replica %d diverged: %q@%v vs %q@%v",
						trial, key, i, v, ts, ref, refTS)
				}
				st, _, _ := caches[i].EntryState(key)
				if st != StateValid {
					t.Fatalf("trial %d key %d: replica %d stuck in %v", trial, key, i, st)
				}
			}
		}
	}
}

func TestLinWriteToInvalidEntry(t *testing.T) {
	caches := newReplicaGroup(t, 3, 1)
	invA, _ := caches[0].WriteLinStart(1, []byte("A")) // 1.0

	// Replica 1 is invalidated, then starts its own write on the Invalid
	// entry. Its timestamp must dominate A's.
	caches[1].ApplyInvalidation(invA)
	invB, err := caches[1].WriteLinStart(1, []byte("B"))
	if err != nil {
		t.Fatal(err)
	}
	if !invB.TS.After(invA.TS) {
		t.Fatalf("B's write must dominate the seen invalidation: %v !> %v", invB.TS, invA.TS)
	}
	// The entry stays Invalid (pre-write value is stale); it becomes Valid
	// when B's own write completes.
	st, _, _ := caches[1].EntryState(1)
	if st != StateInvalid {
		t.Fatalf("state = %v, want Invalid", st)
	}
}

func TestLinUpdateForUncachedKeyDropped(t *testing.T) {
	c := newCacheWith(t, 0, 2, 1)
	if c.ApplyUpdateLin(Update{Key: 99, TS: timestamp.TS{Clock: 1}}) {
		t.Fatalf("uncached update applied")
	}
	// Invalidation for uncached key still acked (writer progress).
	ack, invalidated := c.ApplyInvalidation(Invalidation{Key: 99, TS: timestamp.TS{Clock: 1}, From: 1})
	if invalidated || ack.Key != 99 {
		t.Fatalf("uncached invalidation: %v %v", ack, invalidated)
	}
}

func BenchmarkLinFullWrite(b *testing.B) {
	const nodes = 9
	caches := make([]*Cache, nodes)
	for i := range caches {
		caches[i] = NewCache(uint8(i), nodes)
		caches[i].Install([]uint64{1}, func(uint64) ([]byte, timestamp.TS, bool) {
			return make([]byte, 40), timestamp.TS{}, true
		})
	}
	val := make([]byte, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := i % nodes
		inv, err := caches[w].WriteLinStart(1, val)
		if err != nil {
			b.Fatal(err)
		}
		var upd Update
		for j := range caches {
			if j == w {
				continue
			}
			ack, _ := caches[j].ApplyInvalidation(inv)
			if u, done := caches[w].ApplyAck(ack); done {
				upd = u
			}
		}
		for j := range caches {
			if j != w {
				caches[j].ApplyUpdateLin(upd)
			}
		}
	}
}

// Duplicate delivery: unreliable datagrams may duplicate as well as
// reorder. Replaying invalidations, acks and updates must not double-apply
// or double-complete anything.
func TestLinDuplicateDeliveryIdempotent(t *testing.T) {
	caches := newReplicaGroup(t, 3, 1)
	inv, err := caches[0].WriteLinStart(1, []byte("dup"))
	if err != nil {
		t.Fatal(err)
	}
	ack1, _ := caches[1].ApplyInvalidation(inv)
	// Duplicate invalidation: acked again (idempotent), state unchanged.
	ack1b, invalidated := caches[1].ApplyInvalidation(inv)
	if invalidated {
		t.Fatal("duplicate invalidation re-invalidated")
	}
	if ack1b.TS != ack1.TS {
		t.Fatal("duplicate ack differs")
	}
	ack2, _ := caches[2].ApplyInvalidation(inv)

	if _, done := caches[0].ApplyAck(ack1); done {
		t.Fatal("completed after one ack")
	}
	upd, done := caches[0].ApplyAck(ack2)
	if !done {
		t.Fatal("never completed")
	}
	// Duplicate ack after completion: must not re-complete.
	if _, d := caches[0].ApplyAck(ack1b); d {
		t.Fatal("duplicate ack re-completed the write")
	}
	if !caches[1].ApplyUpdateLin(upd) {
		t.Fatal("update rejected")
	}
	// Duplicate update: discarded (entry already Valid).
	if caches[1].ApplyUpdateLin(upd) {
		t.Fatal("duplicate update applied twice")
	}
	v, _, err := caches[1].Read(1, nil)
	if err != nil || string(v) != "dup" {
		t.Fatalf("%q %v", v, err)
	}
}

// A second write by the same node must be able to start immediately after
// completion (pending bookkeeping is fully reset).
func TestLinBackToBackWrites(t *testing.T) {
	caches := newReplicaGroup(t, 2, 1)
	for i := 0; i < 10; i++ {
		val := []byte{byte(i)}
		upd := deliverLinWrite(t, caches, i%2, 1, val)
		if upd.TS.Clock != uint32(i+1) {
			t.Fatalf("write %d: clock %d", i, upd.TS.Clock)
		}
	}
	v, ts, _ := caches[0].Read(1, nil)
	if v[0] != 9 || ts.Clock != 10 {
		t.Fatalf("final state %v @ %v", v, ts)
	}
}

// The stale read behind a returned put (ROADMAP item 1; mcheck's
// FaultServeAfterLowerAck): A and B write one key concurrently, B's stamp the
// lower. B's invalidation reaches A and C, both ack, B's put returns — with
// A, the higher-stamped writer, still gathering its own acks. A must stop
// serving its pre-write value the moment it acks B (a get at A issued after
// B's put returned would otherwise read a value two writes old), a reader
// parked there must be released by A's own last ack and by nothing earlier,
// and A then reads its own value.
func TestLinWriterYieldsToLowerStampedWrite(t *testing.T) {
	const key = 7
	caches := newReplicaGroup(t, 3, key)
	a, b, c := caches[1], caches[0], caches[2]
	invA, _ := a.WriteLinStart(key, []byte("A")) // 1.1
	invB, _ := b.WriteLinStart(key, []byte("B")) // 1.0, orders before A's
	if !invA.TS.After(invB.TS) {
		t.Fatalf("setup: A's stamp %v must order after B's %v", invA.TS, invB.TS)
	}

	ackBA, yielded := a.ApplyInvalidation(invB)
	ackBC, _ := c.ApplyInvalidation(invB)
	if !yielded {
		t.Fatal("A acked a lower-stamped write from the Write state without yielding")
	}
	b.ApplyAck(ackBA)
	if _, done := b.ApplyAck(ackBC); !done {
		t.Fatal("B's put did not return after both acks")
	}

	// B's put has returned. Nothing at A may serve the value it overwrote.
	if v, _, err := a.Read(key, nil); err != ErrInvalid {
		t.Fatalf("read at A after B's put returned: %q, %v; want ErrInvalid", v, err)
	}
	if st, ts, _ := a.EntryState(key); st != StateInvalid || ts != invA.TS || !a.PendingWrite(key) {
		t.Fatalf("A is (%v, %v, pending=%v); want (Invalid, its own stamp %v, pending)", st, ts, a.PendingWrite(key), invA.TS)
	}
	// Everything that meets the yielded entry treats it as a write in flight.
	if _, _, _, err := a.RMWLinStart(key, func(cur []byte) ([]byte, bool) { return cur, true }); err != ErrInvalid {
		t.Fatalf("RMW on the yielded entry: %v, want ErrInvalid", err)
	}
	a.Freeze([]uint64{key})
	if _, _, stall := a.CollectFrozen(key); stall != ErrWritePending {
		t.Fatalf("a yielded entry with a pending write: collect stall %v, want ErrWritePending", stall)
	}
	a.Unfreeze([]uint64{key})
	reader := a.Park(key, ErrInvalid)
	if !parked(reader) {
		t.Fatal("a reader at A must park until A's own write completes")
	}
	if healed, _ := a.DiscardOrphanedInvalidations(b.NodeID()); healed != 0 || !parked(reader) {
		t.Fatal("B's excision healed A's live pending write back into serving the old value")
	}

	// A's own acks: the first changes nothing, the last applies A's value.
	ackAB, _ := b.ApplyInvalidation(invA)
	ackAC, _ := c.ApplyInvalidation(invA)
	a.ApplyAck(ackAB)
	if !parked(reader) {
		t.Fatal("the first of A's two acks released the reader")
	}
	updA, done := a.ApplyAck(ackAC)
	if !done || !woken(reader) {
		t.Fatalf("A's last ack: done=%v, reader released=%v", done, woken(reader))
	}
	if v, ts, err := a.Read(key, nil); err != nil || string(v) != "A" || ts != invA.TS {
		t.Fatalf("A after its own completion: %q @ %v, %v", v, ts, err)
	}

	// B's update is stale everywhere by now; A's converges the group.
	for _, r := range caches {
		r.ApplyUpdateLin(Update{Key: key, TS: invB.TS, Value: []byte("B")})
		r.ApplyUpdateLin(updA)
		if v, ts, err := r.Read(key, nil); err != nil || string(v) != "A" || ts != invA.TS {
			t.Fatalf("node %d: %q @ %v, %v; want A @ %v", r.NodeID(), v, ts, err, invA.TS)
		}
	}
}

// A put that joins a pending write (Cache.WriteLinJoin) re-stages the value
// under the write's stamp, so one round publishes the last value everywhere.
// The join is refused for another stamp, for a frozen entry, for a write that
// adopted a higher-stamped invalidation and once the write has completed.
func TestLinJoinPendingWrite(t *testing.T) {
	const key = 3
	caches := newReplicaGroup(t, 3, key)
	a := caches[0]
	inv, err := a.WriteLinStart(key, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	if a.WriteLinJoin(key, inv.TS.Next(0), []byte("x")) {
		t.Fatal("joined a write under a stamp it does not carry")
	}
	a.Freeze([]uint64{key})
	if a.WriteLinJoin(key, inv.TS, []byte("x")) {
		t.Fatal("joined a write on a frozen entry")
	}
	a.Unfreeze([]uint64{key})
	if !a.WriteLinJoin(key, inv.TS, []byte("second, longer")) {
		t.Fatal("refused to join the pending write")
	}
	var upd Update
	for _, r := range caches[1:] {
		ack, _ := r.ApplyInvalidation(inv)
		upd, _ = a.ApplyAck(ack)
	}
	if upd.TS != inv.TS || string(upd.Value) != "second, longer" {
		t.Fatalf("the round published %q @ %v, want the joined value @ %v", upd.Value, upd.TS, inv.TS)
	}
	for _, r := range caches[1:] {
		r.ApplyUpdateLin(upd)
	}
	for _, r := range caches {
		if v, _, err := r.Read(key, nil); err != nil || string(v) != "second, longer" {
			t.Fatalf("node %d reads %q, %v", r.NodeID(), v, err)
		}
	}
	if a.WriteLinJoin(key, inv.TS, []byte("late")) {
		t.Fatal("joined a write that had completed")
	}
	if s := a.Stats(); s.WritesLin.Load() != 1 || s.WritesJoined.Load() != 1 {
		t.Fatalf("rounds %d, joins %d; want 1 and 1", s.WritesLin.Load(), s.WritesJoined.Load())
	}

	// A write that adopted a higher stamp is doomed: its winner may be read
	// before it completes, so nothing may join it.
	mine, _ := a.WriteLinStart(key, []byte("mine"))
	higher, _ := caches[1].WriteLinStart(key, []byte("theirs"))
	if !higher.TS.After(mine.TS) {
		t.Fatalf("setup: %v must order after %v", higher.TS, mine.TS)
	}
	a.ApplyInvalidation(higher)
	if a.WriteLinJoin(key, mine.TS, []byte("x")) {
		t.Fatal("joined a write that adopted a higher-stamped invalidation")
	}
}
