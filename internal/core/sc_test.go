package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/timestamp"
)

// newReplicaGroup builds n caches holding the same key set, as symmetric
// caching mandates.
func newReplicaGroup(t *testing.T, n int, keys ...uint64) []*Cache {
	t.Helper()
	caches := make([]*Cache, n)
	for i := range caches {
		caches[i] = NewCache(uint8(i), n)
		caches[i].Install(keys, func(key uint64) ([]byte, timestamp.TS, bool) {
			return []byte{byte(key)}, timestamp.TS{}, true
		})
	}
	return caches
}

func TestWriteSCMiss(t *testing.T) {
	c := newCacheWith(t, 0, 3, 1)
	if _, err := c.WriteSC(9, []byte("x")); err != ErrMiss {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteSCLocalImmediatelyVisible(t *testing.T) {
	c := newCacheWith(t, 2, 3, 1)
	u, err := c.WriteSC(1, []byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	// SC writes are non-blocking: a read right after must see the value
	// without waiting for the broadcast ("allowing for reads following the
	// write to return the new value without waiting", §5.2).
	v, ts, err := c.Read(1, nil)
	if err != nil || string(v) != "new" {
		t.Fatalf("read after write: %q %v", v, err)
	}
	if ts != u.TS || u.TS.Writer != 2 || u.TS.Clock != 1 {
		t.Fatalf("timestamps: read=%v update=%v", ts, u.TS)
	}
	if u.Key != 1 || string(u.Value) != "new" {
		t.Fatalf("update = %+v", u)
	}
}

func TestApplyUpdateSCNewerWins(t *testing.T) {
	caches := newReplicaGroup(t, 2, 1)
	u, _ := caches[0].WriteSC(1, []byte("v1"))
	if !caches[1].ApplyUpdateSC(u) {
		t.Fatalf("first update must apply")
	}
	v, _, _ := caches[1].Read(1, nil)
	if string(v) != "v1" {
		t.Fatalf("replica value %q", v)
	}
}

func TestApplyUpdateSCStaleDiscarded(t *testing.T) {
	caches := newReplicaGroup(t, 3, 1)
	u1, _ := caches[0].WriteSC(1, []byte("a")) // ts 1.0
	u2, _ := caches[1].WriteSC(1, []byte("b")) // ts 1.1 — wins the tie on writer id

	// Replica 2 receives them out of order.
	if !caches[2].ApplyUpdateSC(u2) {
		t.Fatalf("u2 must apply")
	}
	if caches[2].ApplyUpdateSC(u1) {
		t.Fatalf("stale u1 must be discarded")
	}
	v, _, _ := caches[2].Read(1, nil)
	if string(v) != "b" {
		t.Fatalf("replica2 = %q, want b", v)
	}
	if caches[2].Stats().UpdatesDiscarded.Load() != 1 {
		t.Fatalf("discard not counted")
	}
}

func TestApplyUpdateSCUnknownKey(t *testing.T) {
	c := newCacheWith(t, 0, 2, 1)
	if c.ApplyUpdateSC(Update{Key: 99, TS: timestamp.TS{Clock: 5}}) {
		t.Fatalf("update for uncached key must be dropped")
	}
}

// The central SC property: however updates are interleaved and reordered,
// all replicas converge to the same value for every key — write
// serialization via Lamport timestamps (§5.2, Burckhardt's invariant).
func TestSCConvergenceUnderReordering(t *testing.T) {
	const nodes, writes = 5, 40
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		caches := newReplicaGroup(t, nodes, 1, 2)
		var updates []Update
		// Writers scattered across replicas, two keys.
		for w := 0; w < writes; w++ {
			writer := rng.Intn(nodes)
			key := uint64(1 + rng.Intn(2))
			u, err := caches[writer].WriteSC(key, []byte(fmt.Sprintf("w%d-%d", writer, w)))
			if err != nil {
				t.Fatal(err)
			}
			updates = append(updates, u)
		}
		// Deliver every update to every other replica in a fresh random
		// order per replica (update broadcasts are asynchronous and the
		// network may reorder them arbitrarily).
		for i, c := range caches {
			perm := rng.Perm(len(updates))
			for _, pi := range perm {
				u := updates[pi]
				if u.TS.Writer == uint8(i) {
					continue // writers do not self-deliver
				}
				c.ApplyUpdateSC(u)
			}
		}
		for _, key := range []uint64{1, 2} {
			ref, refTS, err := caches[0].Read(key, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < nodes; i++ {
				v, ts, err := caches[i].Read(key, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(v, ref) || ts != refTS {
					t.Fatalf("trial %d key %d: replica %d diverged: %q(%v) vs %q(%v)",
						trial, key, i, v, ts, ref, refTS)
				}
			}
		}
	}
}

// Writes from the same session must appear in session order: a session's
// second write must carry a higher timestamp so no replica can apply them
// in reverse.
func TestSCSessionOrder(t *testing.T) {
	caches := newReplicaGroup(t, 2, 1)
	u1, _ := caches[0].WriteSC(1, []byte("first"))
	u2, _ := caches[0].WriteSC(1, []byte("second"))
	if !u2.TS.After(u1.TS) {
		t.Fatalf("session order violated: %v !> %v", u2.TS, u1.TS)
	}
	// Reordered delivery still ends on "second".
	caches[1].ApplyUpdateSC(u2)
	caches[1].ApplyUpdateSC(u1)
	v, _, _ := caches[1].Read(1, nil)
	if string(v) != "second" {
		t.Fatalf("got %q", v)
	}
}

func TestSCDirtyMarksForWriteBack(t *testing.T) {
	caches := newReplicaGroup(t, 2, 1)
	u, _ := caches[0].WriteSC(1, []byte("x"))
	caches[1].ApplyUpdateSC(u)
	// Both the writer and the update receiver hold dirty copies; evicting
	// from either must surface a write-back.
	for i, c := range caches {
		wb := c.Install(nil, func(uint64) ([]byte, timestamp.TS, bool) { return nil, timestamp.TS{}, false })
		if len(wb) != 1 {
			t.Fatalf("cache %d: %d write-backs", i, len(wb))
		}
	}
}

func BenchmarkWriteSC(b *testing.B) {
	c := NewCache(0, 9)
	c.Install([]uint64{1}, func(uint64) ([]byte, timestamp.TS, bool) {
		return make([]byte, 40), timestamp.TS{}, true
	})
	val := make([]byte, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.WriteSC(1, val)
	}
}

func BenchmarkCacheRead(b *testing.B) {
	c := NewCache(0, 9)
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = uint64(i)
	}
	c.Install(keys, func(uint64) ([]byte, timestamp.TS, bool) {
		return make([]byte, 40), timestamp.TS{}, true
	})
	buf := make([]byte, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _, _ = c.Read(uint64(i)&1023, buf)
	}
}

// SC updates are idempotent: re-applying the latest update must be a no-op
// discard, and replaying an old one must never roll the value back.
func TestSCDuplicateAndReplayDiscarded(t *testing.T) {
	caches := newReplicaGroup(t, 2, 1)
	u1, _ := caches[0].WriteSC(1, []byte("one"))
	u2, _ := caches[0].WriteSC(1, []byte("two"))
	if !caches[1].ApplyUpdateSC(u2) {
		t.Fatal("fresh update rejected")
	}
	if caches[1].ApplyUpdateSC(u2) {
		t.Fatal("duplicate update applied")
	}
	if caches[1].ApplyUpdateSC(u1) {
		t.Fatal("replayed stale update applied")
	}
	v, _, _ := caches[1].Read(1, nil)
	if string(v) != "two" {
		t.Fatalf("rollback: %q", v)
	}
}
