package cluster

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// The allocation diet of the multi-worker PR: a remote get on the in-process
// transport costs a bounded, small number of heap allocations per op. The
// seed measured 7.0 allocs/op on this exact scenario; encode-at-send (no
// per-request scratch buffer), pooled completion channels and the pooled
// server-side read staging bring it to 3 — the remaining ones are the
// per-packet buffers a reference-passing transport cannot recycle plus the
// one unavoidable copy that hands the value to the caller. The assertion
// leaves half an alloc of headroom for map-rehash noise but fails well
// before the seed's count, so a regression that reintroduces per-call
// garbage is caught.
func TestRemoteGetAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, w := range []int{1, 4} {
		c, err := New(Config{Nodes: 2, System: Base, NumKeys: 1024, WorkersPerNode: w})
		if err != nil {
			t.Fatal(err)
		}
		c.Populate()
		n := c.Node(0)
		key := uint64(0)
		for k := uint64(0); k < 1024; k++ {
			if c.HomeNode(k) == 1 {
				key = k
				break
			}
		}
		allocs := testing.AllocsPerRun(2000, func() {
			if _, err := n.Get(key); err != nil {
				t.Fatal(err)
			}
		})
		c.Close()
		t.Logf("workers=%d: remote get %.1f allocs/op (seed: 7.0)", w, allocs)
		if allocs > 4.5 {
			t.Fatalf("workers=%d: remote get costs %.1f allocs/op, want <= 4.5 (seed was 7.0)", w, allocs)
		}
	}
}

// A cold put homed on the node it arrives at is the executor calling the
// home's step directly (homePut): no request, no channel, and the stored
// version read into pooled scratch — the same body a KVS dispatcher runs for
// a peer. 0 allocs/op; the hand-mirrored local form it replaced heap-copied
// the stored value to read its timestamp (1.0).
func TestLocalColdPutAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	c, err := New(Config{Nodes: 2, System: Base, NumKeys: 1024, WorkersPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Populate()
	n := c.Node(0)
	key := uint64(0)
	for c.HomeNode(key) != 0 {
		key++
	}
	val := bytes.Repeat([]byte{0xCD}, 40)
	allocs := testing.AllocsPerRun(2000, func() {
		if err := n.Put(key, val); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("local cold put %.1f allocs/op (parent: 1.0)", allocs)
	if allocs > 0.5 {
		t.Fatalf("local cold put costs %.1f allocs/op, want 0", allocs)
	}
}

// The consistency-plane counterpart: a hot Lin put fans out an invalidation
// broadcast, gathers acks and broadcasts the update — before the coalescing
// plane that was three Encode(nil) allocations per peer per write on top of
// the protocol's own bookkeeping. Encode-at-flush writes every message
// straight into the lane's packet buffer, so the steady-state cost is the
// durable per-write state (the immutable value copy, the channel the writer
// parks on for its acks, per-packet buffers the reference-passing transport
// cannot recycle), not per-message garbage. 19 allocs/op, before and after
// entries could be parked on: the wake channel replaced the per-write waiter
// channel one for one, and nothing else on the path — the pending record, the
// completer's publish — allocates when nobody else waits. The gate sits at
// that number plus half an alloc of map-rehash noise, so one more allocation
// per write fails it.
func TestLinPutAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, w := range []int{1, 4} {
		c, err := New(Config{
			Nodes: 3, System: CCKVS, Protocol: core.Lin,
			NumKeys: 1024, CacheItems: 16, WorkersPerNode: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Populate()
		if err := c.InstallHotSet(DefaultHotSet(16)); err != nil {
			t.Fatal(err)
		}
		n := c.Node(0)
		val := bytes.Repeat([]byte{0xAB}, 40)
		allocs := testing.AllocsPerRun(2000, func() {
			if err := n.Put(0, val); err != nil {
				t.Fatal(err)
			}
		})
		c.Close()
		t.Logf("workers=%d: lin put %.1f allocs/op (gate: 19.0)", w, allocs)
		if allocs > 19.5 {
			t.Fatalf("workers=%d: lin put costs %.1f allocs/op, want <= 19.5 (19.0 before entries could be parked on)", w, allocs)
		}
	}
}

// A Lin batch that writes a hot key twice runs in two waves of the executor
// (exec.go collect): the second put is set aside behind the first and started
// once it settles. The set-aside list is the session lane's, reused, so the
// repeat costs nothing the same batch on distinct keys does not — allocs/op
// match within half an alloc.
func TestLinBatchWaveAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	cfg := Config{
		Nodes: 3, System: CCKVS, Protocol: core.Lin,
		NumKeys: 1024, CacheItems: 64, WorkersPerNode: 1,
	}
	members, cl := newChanClient(t, cfg)
	if _, err := members[0].ApplyHotSet(0, DefaultHotSet(cfg.CacheItems)); err != nil {
		t.Fatal(err)
	}
	const batch = 32
	val := bytes.Repeat([]byte{0xAB}, 8)
	perOp := func(keyOf func(i int) uint64) float64 {
		ops := make([]Op, batch)
		for i := range ops {
			ops[i] = Op{Kind: OpPut, Key: keyOf(i), Value: val}
		}
		return testing.AllocsPerRun(200, func() {
			rs, err := cl.Batch(0, ops)
			if err == nil {
				err = rs[batch-1].Err
			}
			if err != nil {
				t.Fatal(err)
			}
		}) / batch
	}
	distinct := perOp(func(i int) uint64 { return uint64(i) })
	repeat := perOp(func(i int) uint64 { return uint64(i % (batch / 2)) })
	t.Logf("lin client batch of %d puts: %.2f allocs/op on distinct keys, %.2f with every key twice (two waves)", batch, distinct, repeat)
	if repeat > distinct+0.5 {
		t.Fatalf("the two-wave batch costs %.2f allocs/op, the one-wave batch %.2f: want within 0.5", repeat, distinct)
	}
}
