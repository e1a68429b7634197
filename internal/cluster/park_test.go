package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/timestamp"
)

// Parking, publishing at the ack, and overlapping Lin writes within a run
// (exec.go I1–I3). None of these tests sleeps or tunes a wait: each waits on
// the event it needs (a counter that only a park bumps, a write that is
// observably pending) by yielding, and a hang is the test binary's -timeout
// to report. The one deadline, in TestLinDeferredWritesStartTogether, is a
// failure detector for a state a correct executor leaves at once.

// gateTransport withholds acks until release — the way these tests keep a
// Lin write from completing for exactly as long as they need. While armed it
// takes every consistency packet on a gated src→dst direction apart: the acks
// are held back, whatever else the packet carried (an invalidation or update
// an ack piggybacked on) travels on.
type gateTransport struct {
	fabric.Transport
	mu   sync.Mutex
	gate func(src, dst uint8) bool
	held []fabric.Packet
}

func (g *gateTransport) Send(p fabric.Packet) error {
	consistency := p.Class == metrics.ClassAck || p.Class == metrics.ClassUpdate || p.Class == metrics.ClassInvalidate
	g.mu.Lock()
	if !consistency || g.gate == nil || !g.gate(p.Src.Node, p.Dst.Node) {
		g.mu.Unlock()
		return g.Transport.Send(p)
	}
	var acks, rest []byte
	restClass := p.Class
	for buf := p.Data; len(buf) > 0; {
		msg, n, err := core.Decode(buf)
		if err != nil {
			break
		}
		if msg.Type == core.MsgAck {
			acks = append(acks, buf[:n]...)
		} else {
			if rest == nil {
				restClass = metrics.ClassInvalidate
				if msg.Type == core.MsgUpdate {
					restClass = metrics.ClassUpdate
				}
			}
			rest = append(rest, buf[:n]...)
		}
		buf = buf[n:]
	}
	if acks != nil {
		g.held = append(g.held, fabric.Packet{Src: p.Src, Dst: p.Dst, Class: metrics.ClassAck, Data: acks})
	}
	g.mu.Unlock()
	if rest == nil {
		return nil
	}
	return g.Transport.Send(fabric.Packet{Src: p.Src, Dst: p.Dst, Class: restClass, Data: rest})
}

// hold arms the gate; deliver sends what it held so far and keeps it armed;
// release disarms it and delivers what it held.
func (g *gateTransport) hold(gate func(src, dst uint8) bool) {
	g.mu.Lock()
	g.gate = gate
	g.mu.Unlock()
}

func (g *gateTransport) deliver() {
	g.mu.Lock()
	held := g.held
	g.held = nil
	g.mu.Unlock()
	for _, p := range held {
		_ = g.Transport.Send(p)
	}
}

func (g *gateTransport) release() {
	g.hold(nil)
	g.deliver()
}

// heldAcks decodes the acks the gate holds.
func (g *gateTransport) heldAcks() []core.Ack {
	g.mu.Lock()
	defer g.mu.Unlock()
	var acks []core.Ack
	for _, p := range g.held {
		for buf := p.Data; len(buf) > 0; {
			msg, n, err := core.Decode(buf)
			if err != nil {
				break
			}
			acks = append(acks, core.Ack{Key: msg.Key, TS: msg.TS, From: msg.From})
			buf = buf[n:]
		}
	}
	return acks
}

// allAcks gates every direction.
func allAcks(src, dst uint8) bool { return true }

// newGatedMembers is newChanMembers over a gateTransport, with the hot set
// installed.
func newGatedMembers(t *testing.T, cfg Config) ([]*Cluster, *gateTransport) {
	t.Helper()
	stats := fabric.NewStats()
	gate := &gateTransport{Transport: fabric.NewChanTransport(0, stats)}
	members := make([]*Cluster, cfg.Nodes)
	for i := range members {
		m, err := NewMember(cfg, i, gate, stats)
		if err != nil {
			t.Fatal(err)
		}
		m.Populate()
		members[i] = m
	}
	t.Cleanup(func() {
		for _, m := range members {
			m.Close()
		}
	})
	if _, err := members[0].ApplyHotSet(0, DefaultHotSet(cfg.CacheItems)); err != nil {
		t.Fatal(err)
	}
	return members, gate
}

// until yields until cond holds.
func until(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

// parks sums a node's three park counters.
func parks(n *Node) uint64 {
	return n.WritePendingRetries.Load() + n.InvalidRetries.Load() + n.FrozenRetries.Load()
}

var linParkCfg = Config{
	Nodes: 3, System: CCKVS, Protocol: core.Lin,
	NumKeys: 1024, CacheItems: 16, ValueSize: 8, WorkersPerNode: 2,
}

// hotKeyHomedOn returns a hot key whose home (and so, with every member live,
// whose RMW coordinator) is node.
func hotKeyHomedOn(t *testing.T, cfg Config, node int) uint64 {
	t.Helper()
	for k := uint64(0); k < uint64(cfg.CacheItems); k++ {
		if HomeOf(k, cfg.Nodes) == node {
			return k
		}
	}
	t.Fatalf("no hot key homed on node %d", node)
	return 0
}

// A reader parked on an invalidated entry and a writer parked behind a
// write-pending one are released by the protocol finishing, by a view flip,
// by a demotion and by Close — every way a stall can end.
func TestParkedWaitersAreReleased(t *testing.T) {
	// parkPair puts node 0's write of key in flight with its acks withheld,
	// then parks a reader of key at node 1 and a second writer at node 0.
	type outcome struct {
		val []byte
		err error
	}
	parkPair := func(members []*Cluster, gate *gateTransport, key uint64, acks func(src, dst uint8) bool) (first, second, read chan outcome) {
		n0, n1 := members[0].LocalNode(), members[1].LocalNode()
		first, second, read = make(chan outcome, 1), make(chan outcome, 1), make(chan outcome, 1)
		gate.hold(acks)
		go func() { first <- outcome{err: n0.Put(key, []byte("first..1"))} }()
		until(func() bool { return n0.cache.PendingWrite(key) })
		until(func() bool { st, _, _ := n1.cache.EntryState(key); return st == core.StateInvalid })
		go func() { second <- outcome{err: n0.Put(key, []byte("second.2"))} }()
		go func() {
			v, err := n1.Get(key)
			read <- outcome{v, err}
		}()
		until(func() bool { return n0.WritePendingRetries.Load() >= 1 && n1.InvalidRetries.Load() >= 1 })
		return first, second, read
	}

	t.Run("by the update", func(t *testing.T) {
		members, gate := newGatedMembers(t, linParkCfg)
		first, second, read := parkPair(members, gate, 3, allAcks)
		gate.release()
		if o := <-first; o.err != nil {
			t.Fatalf("first writer: %v", o.err)
		}
		if o := <-second; o.err != nil {
			t.Fatalf("queued writer: %v", o.err)
		}
		o := <-read
		if o.err != nil || (!bytes.Equal(o.val, []byte("first..1")) && !bytes.Equal(o.val, []byte("second.2"))) {
			t.Fatalf("parked reader returned (%q, %v), want one of the two written values", o.val, o.err)
		}
		for i, m := range members {
			if v, err := m.LocalNode().Get(3); err != nil || !bytes.Equal(v, []byte("second.2")) {
				t.Fatalf("node %d holds (%q, %v) after both writes, want the second", i, v, err)
			}
		}
	})

	t.Run("by a view flip", func(t *testing.T) {
		members, gate := newGatedMembers(t, linParkCfg)
		n0, n2 := members[0].LocalNode(), members[2].LocalNode()
		// Node 2's acks never leave it, and none reach it: node 0's write waits
		// on node 2 alone, and node 2's own write of another key stays in
		// flight with nodes 0 and 1 invalidated.
		involves2 := func(src, dst uint8) bool { return src == 2 || dst == 2 }
		first, second, _ := parkPair(members, gate, 3, involves2)
		orphan := make(chan error, 1)
		go func() { orphan <- n2.Put(5, []byte("orphan.5")) }()
		until(func() bool { st, _, _ := n0.cache.EntryState(5); return st == core.StateInvalid })
		read5 := make(chan outcome, 1)
		invalidParks := n0.InvalidRetries.Load()
		go func() {
			v, err := n0.Get(5)
			read5 <- outcome{v, err}
		}()
		until(func() bool { return n0.InvalidRetries.Load() > invalidParks })

		cause := errors.New("test: excised")
		members[0].PeerDown(2, cause)
		if o := <-first; o.err != nil {
			t.Fatalf("writer waiting on the excised peer: %v", o.err)
		}
		if o := <-second; o.err != nil {
			t.Fatalf("writer queued behind it: %v", o.err)
		}
		o := <-read5
		if o.err != nil || bytes.Equal(o.val, []byte("orphan.5")) {
			t.Fatalf("reader parked on the excised writer's invalidation returned (%q, %v), want the pre-write value", o.val, o.err)
		}
		members[2].Close()
		if err := <-orphan; err == nil {
			t.Fatal("the excised writer's put returned success after its cluster closed with acks outstanding")
		}
	})

	t.Run("by a demotion", func(t *testing.T) {
		members, _ := newGatedMembers(t, linParkCfg)
		n0 := members[0].LocalNode()
		const key = 3
		n0.cache.Freeze([]uint64{key})
		done := make(chan error, 1)
		go func() { done <- n0.Put(key, []byte("landed.3")) }()
		until(func() bool { return n0.FrozenRetries.Load() >= 1 })
		var keep []uint64
		for _, k := range DefaultHotSet(linParkCfg.CacheItems) {
			if k != key {
				keep = append(keep, k)
			}
		}
		if _, err := members[1].ApplyHotSet(1, keep); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("writer parked across the demotion: %v", err)
		}
		for i, m := range members {
			if m.LocalNode().cache.Contains(key) {
				t.Fatalf("node %d still caches the demoted key", i)
			}
			if v, err := m.LocalNode().Get(key); err != nil || !bytes.Equal(v, []byte("landed.3")) {
				t.Fatalf("node %d reads (%q, %v): the parked write missed to the home shard and must have landed", i, v, err)
			}
		}
	})

	t.Run("by Close", func(t *testing.T) {
		members, gate := newGatedMembers(t, linParkCfg)
		first, second, read := parkPair(members, gate, 3, allAcks)
		members[0].Close()
		members[1].Close()
		for name, ch := range map[string]chan outcome{"writer": first, "queued writer": second, "reader": read} {
			if o := <-ch; !errors.Is(o.err, ErrPipelineClosed) {
				t.Fatalf("%s returned (%q, %v), want ErrPipelineClosed", name, o.val, o.err)
			}
		}
	})
}

// Lin puts whose acks never arrive, a writer queued behind one, a reader of
// an invalidated entry and a remote hot FAA whose write never completes: Close
// fails every one of them and leaves no goroutine behind — in particular none
// per remote RMW, which used to wait for a completion that never came.
func TestCloseLeavesNoLinWaiters(t *testing.T) {
	before := runtime.NumGoroutine()
	stats := fabric.NewStats()
	gate := &gateTransport{Transport: fabric.NewChanTransport(0, stats)}
	c, err := NewWithTransport(linParkCfg, gate, stats)
	if err != nil {
		t.Fatal(err)
	}
	c.Populate()
	if err := c.InstallHotSet(DefaultHotSet(linParkCfg.CacheItems)); err != nil {
		t.Fatal(err)
	}
	n0, n1 := c.Node(0), c.Node(1)
	faaKey := hotKeyHomedOn(t, linParkCfg, 0)
	putKeys := make([]uint64, 0, 4)
	for k := uint64(0); len(putKeys) < 4; k++ {
		if k != faaKey {
			putKeys = append(putKeys, k)
		}
	}

	gate.hold(allAcks)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	call := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- f()
		}()
	}
	for _, k := range putKeys {
		k := k
		call(func() error { return n0.Put(k, []byte("unacked!")) })
		until(func() bool { return n0.cache.PendingWrite(k) })
	}
	call(func() error { return n0.Put(putKeys[0], []byte("queued!!")) })
	until(func() bool { st, _, _ := n1.cache.EntryState(putKeys[1]); return st == core.StateInvalid })
	call(func() error { _, err := n1.Get(putKeys[1]); return err })
	call(func() error { _, err := n1.FetchAndAdd(faaKey, 1); return err })
	until(func() bool {
		return n0.WritePendingRetries.Load() >= 1 && n1.InvalidRetries.Load() >= 1 && n0.cache.PendingWrite(faaKey)
	})
	calls := len(putKeys) + 3

	c.Close()
	wg.Wait()
	for i := 0; i < calls; i++ {
		if err := <-errs; err == nil {
			t.Error("a caller returned success from a cluster closed with its acks outstanding")
		}
	}
	// Session lanes exit on their own once their queues close; give them the
	// processor until they have.
	for i := 0; i < 1_000_000 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before, %d after Close:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// A run of put, get, put on each of K hot keys at one node: the get is
// deferred behind the first put (I2), and the second put behind the get — it
// may not join the first put's round across it — and all K second puts must
// start together once the first round settles: every one staged, its
// invalidations sent and acked, before any completes. With the acks held, the
// test lets the first round's through and then counts the second round's.
// An executor that settles deferred ops one at a time leaves exactly one
// second-round write in flight, its acks held, for as long as anyone waits.
func TestLinDeferredWritesStartTogether(t *testing.T) {
	members, gate := newGatedMembers(t, linParkCfg)
	n0 := members[0].LocalNode()
	const keys = 4
	acksPerRound := keys * (linParkCfg.Nodes - 1)
	ops := make([]Op, 3*keys)
	for i := range ops {
		ops[i] = Op{Kind: OpPut, Key: uint64(i % keys), Value: EncodeCounter(uint64(i))}
		if i/keys == 1 {
			ops[i] = Op{Key: uint64(i % keys)}
		}
	}
	gate.hold(allAcks)
	done := make(chan []Result, 1)
	go func() {
		rs := make([]Result, len(ops))
		n0.Batch(ops, rs)
		done <- rs
	}()

	until(func() bool { return len(gate.heldAcks()) == acksPerRound })
	firstTS := make(map[uint64]timestamp.TS)
	for _, a := range gate.heldAcks() {
		firstTS[a.Key] = a.TS
	}
	gate.deliver()
	// The failure detector: a correct executor stages the second round as
	// soon as the first round's acks land, microseconds from here.
	for deadline := time.Now().Add(20 * time.Second); len(gate.heldAcks()) < acksPerRound; runtime.Gosched() {
		if time.Now().After(deadline) {
			inFlight := len(gate.heldAcks()) / (linParkCfg.Nodes - 1)
			gate.release()
			<-done
			t.Fatalf("%d of %d second-round writes in flight after 20s: the deferred puts did not start together", inFlight, keys)
		}
	}
	perKey := make(map[uint64]int)
	for _, a := range gate.heldAcks() {
		if !a.TS.After(firstTS[a.Key]) {
			t.Fatalf("held ack %+v is not for key %d's second write (first stamped %v)", a, a.Key, firstTS[a.Key])
		}
		perKey[a.Key]++
	}
	for k := uint64(0); k < keys; k++ {
		if perKey[k] != linParkCfg.Nodes-1 || !n0.cache.PendingWrite(k) {
			t.Fatalf("key %d: %d second-round acks held, pending=%v; want every peer's ack of a still-pending write", k, perKey[k], n0.cache.PendingWrite(k))
		}
	}

	gate.release()
	for i, r := range <-done {
		if r.Err != nil {
			t.Fatalf("op %d (%+v): %v", i, ops[i], r.Err)
		}
		if k := uint64(i % keys); i/keys == 1 && !bytes.Equal(r.Value, EncodeCounter(k)) {
			t.Fatalf("get of key %d returned %x, want the first write %x", k, r.Value, EncodeCounter(k))
		}
	}
	for i, m := range members {
		for k := uint64(0); k < keys; k++ {
			if v, err := m.LocalNode().Get(k); err != nil || !bytes.Equal(v, EncodeCounter(2*keys+k)) {
				t.Fatalf("node %d reads key %d as (%x, %v), want the second write %x", i, k, v, err, EncodeCounter(2*keys+k))
			}
		}
	}
}

// A run of two Lin puts on each of K hot keys at one node: the second put of
// every key joins the first's round (core.Line.JoinLin) instead of waiting a
// wave for its own, so the run takes one round per key — exactly one round's
// acks are ever held — and every node ends on the second put's value. An
// executor that defers the second puts starts a second round, whose acks the
// still-armed gate then holds.
func TestLinSameKeyPutsJoinOneRound(t *testing.T) {
	members, gate := newGatedMembers(t, linParkCfg)
	n0 := members[0].LocalNode()
	const keys = 4
	acksPerRound := keys * (linParkCfg.Nodes - 1)
	ops := make([]Op, 2*keys)
	for i := range ops {
		ops[i] = Op{Kind: OpPut, Key: uint64(i % keys), Value: EncodeCounter(uint64(i))}
	}
	stats := n0.cache.Stats()
	rounds, joins := stats.WritesLin.Load(), stats.WritesJoined.Load()
	gate.hold(allAcks)
	done := make(chan []Result, 1)
	go func() {
		rs := make([]Result, len(ops))
		n0.Batch(ops, rs)
		done <- rs
	}()

	until(func() bool { return len(gate.heldAcks()) == acksPerRound })
	gate.deliver() // the gate stays armed: a second round's acks would be held
	var rs []Result
	for rs == nil {
		select {
		case rs = <-done:
		default:
			if held := len(gate.heldAcks()); held != 0 {
				gate.release()
				<-done
				t.Fatalf("%d acks of a second round held: the same-key puts did not join one round", held)
			}
			runtime.Gosched()
		}
	}
	gate.release()
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("op %d (%+v): %v", i, ops[i], r.Err)
		}
	}
	if r, j := stats.WritesLin.Load()-rounds, stats.WritesJoined.Load()-joins; r != keys || j != keys {
		t.Fatalf("%d rounds and %d joins, want %d of each", r, j, keys)
	}
	for i, m := range members {
		for k := uint64(0); k < keys; k++ {
			if v, err := m.LocalNode().Get(k); err != nil || !bytes.Equal(v, EncodeCounter(keys+k)) {
				t.Fatalf("node %d reads key %d as (%x, %v), want the second write %x", i, k, v, err, EncodeCounter(keys+k))
			}
		}
	}
}

// Two nodes complete Lin writes at each other with one-deep consistency
// lanes, one message per packet and a two-packet credit budget: every
// completion publishes its update from a receive dispatcher, almost always
// into a full lane. A dispatcher that waited for lane capacity would stop
// returning credits, and with both nodes doing it neither lane would ever
// drain (the test then hangs within its first few hundred writes).
func TestCompletionPublishNeverBlocksDispatcher(t *testing.T) {
	cfg := Config{
		Nodes: 2, System: CCKVS, Protocol: core.Lin,
		NumKeys: 1024, CacheItems: 16, ValueSize: 8, WorkersPerNode: 1,
		QueueDepth: 1, CreditsPerPeer: 2, BatchMaxMsgs: 1,
	}
	// The transport keeps its default depth: the hazard under test is the
	// lane, not a one-slot switch.
	stats := fabric.NewStats()
	c, err := NewWithTransport(cfg, fabric.NewChanTransport(0, stats), stats)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Populate()
	if err := c.InstallHotSet(DefaultHotSet(cfg.CacheItems)); err != nil {
		t.Fatal(err)
	}
	const writers, rounds, keys = 12, 100, 8
	var wg sync.WaitGroup
	fail := make(chan error, 2*writers)
	for node := 0; node < cfg.Nodes; node++ {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(n *Node, w int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					if err := n.Put(uint64((w+r)%keys), EncodeCounter(uint64(r))); err != nil {
						fail <- err
						return
					}
				}
			}(c.Node(node), w)
		}
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	for k := uint64(0); k < keys; k++ {
		a, errA := c.Node(0).Get(k)
		b, errB := c.Node(1).Get(k)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("key %d: (%x, %v) at node 0, (%x, %v) at node 1", k, a, errA, b, errB)
		}
	}
}

// Every node loops batches of mixed hot gets and puts over the same eight
// keys, each in its own key order, so every lane is — all the time — holding
// staged writes while parked on entries the other lanes' writes invalidated
// (A=[put k1, get k2] against B=[put k2, get k1], thirty-two ops deep). It
// must finish: every wait in collect ends on a receive dispatcher (I1).
func TestLinCrossNodeBurstNoDeadlock(t *testing.T) {
	cfg := Config{
		Nodes: 3, System: CCKVS, Protocol: core.Lin,
		NumKeys: 1024, CacheItems: 16, ValueSize: 8, WorkersPerNode: 2,
	}
	iterations := 2000
	if testing.Short() {
		iterations = 200
	}
	transports := map[string]func(*testing.T) []*Cluster{
		"chan": func(t *testing.T) []*Cluster { return newChanMembers(t, cfg) },
		"tcp":  func(t *testing.T) []*Cluster { m, _ := newTCPMembers(t, cfg); return m },
	}
	for name, build := range transports {
		for _, procs := range []int{1, 0} {
			t.Run(fmt.Sprintf("%s/GOMAXPROCS=%d", name, procs), func(t *testing.T) {
				if procs > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				}
				members := build(t)
				if _, err := members[0].ApplyHotSet(0, DefaultHotSet(cfg.CacheItems)); err != nil {
					t.Fatal(err)
				}
				const frame, keys = 32, 8
				var wg sync.WaitGroup
				fail := make(chan error, len(members))
				for i, m := range members {
					wg.Add(1)
					go func(i int, n *Node) {
						defer wg.Done()
						ops, rs := make([]Op, frame), make([]Result, frame)
						for it := 0; it < iterations; it++ {
							for j := range ops {
								// Node 0 walks the keys upward, node 1 downward, node 2
								// from the middle out.
								k := uint64(j % keys)
								switch i {
								case 1:
									k = keys - 1 - k
								case 2:
									k = (k + keys/2) % keys
								}
								ops[j] = Op{Key: k}
								if (j+it)%2 == 0 {
									ops[j] = Op{Kind: OpPut, Key: k, Value: EncodeCounter(uint64(it))}
								}
							}
							n.Batch(ops, rs)
							for j := range rs {
								if rs[j].Err != nil {
									fail <- fmt.Errorf("node %d iteration %d op %d (%+v): %w", i, it, j, ops[j], rs[j].Err)
									return
								}
							}
						}
					}(i, m.LocalNode())
				}
				wg.Wait()
				close(fail)
				for err := range fail {
					t.Fatal(err)
				}
			})
		}
	}
}

// The contention shape that used to spin: many sessions, any node, a handful
// of keys, puts and gets on two of them and counters on the other two. Every
// FAA must count exactly once, nothing may time out, and the park counters —
// which used to count loop iterations in the millions — stay within a small
// multiple of the ops served.
func TestLinHotKeyHammer(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := Config{
				Nodes: 3, System: CCKVS, Protocol: core.Lin,
				NumKeys: 1024, CacheItems: 16, ValueSize: 8, WorkersPerNode: workers,
			}
			c := newTestCluster(t, cfg)
			const sessions, opsEach = 12, 400
			counters := []uint64{2, 3}
			for _, k := range counters {
				if err := c.Node(0).Put(k, EncodeCounter(0)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			var added [sessions][2]uint64
			fail := make(chan error, sessions)
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(s) + 1))
					for i := 0; i < opsEach; i++ {
						n := c.Node(rng.Intn(cfg.Nodes))
						var err error
						switch r := rng.Intn(10); {
						case r < 3:
							err = n.Put(uint64(rng.Intn(2)), EncodeCounter(uint64(s)<<32|uint64(i)))
						case r < 6:
							_, err = n.Get(uint64(rng.Intn(4)))
						default:
							ci := rng.Intn(2)
							delta := uint64(rng.Intn(5) + 1)
							if _, err = n.FetchAndAdd(counters[ci], delta); err == nil {
								added[s][ci] += delta
							}
						}
						if err != nil {
							fail <- fmt.Errorf("session %d op %d: %w", s, i, err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			close(fail)
			for err := range fail {
				t.Fatal(err)
			}
			for ci, k := range counters {
				var want uint64
				for s := range added {
					want += added[s][ci]
				}
				for node := 0; node < cfg.Nodes; node++ {
					v, err := c.Node(node).Get(k)
					got, derr := DecodeCounter(v)
					if err != nil || derr != nil || got != want {
						t.Fatalf("counter %d at node %d: %d (%v, %v), want exactly %d", k, node, got, err, derr, want)
					}
				}
			}
			var parked uint64
			for node := 0; node < cfg.Nodes; node++ {
				parked += parks(c.Node(node))
			}
			t.Logf("%d ops, %d parks", sessions*opsEach, parked)
			if parked > 2*sessions*opsEach {
				t.Fatalf("%d parks for %d ops: something is looping, not parking", parked, sessions*opsEach)
			}
		})
	}
}
