package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/store"
)

// The client edge: batch session frames, the pipelined client,
// auto-batching, and their failure semantics. The harness is the
// member form over a shared ChanTransport — the client attaches to the same
// transport with a node id outside the server range, exactly how a load
// generator attaches over TCP.

// newChanClient builds a member-form deployment plus a Client on the shared
// transport.
func newChanClient(t *testing.T, cfg Config, opts ...ClientOption) ([]*Cluster, *Client) {
	t.Helper()
	stats := fabric.NewStats()
	tr := fabric.NewChanTransport(cfg.QueueDepth, stats)
	members := make([]*Cluster, cfg.Nodes)
	for i := range members {
		m, err := NewMember(cfg, i, tr, stats)
		if err != nil {
			t.Fatal(err)
		}
		m.Populate()
		members[i] = m
	}
	cl := NewClient(200, cfg.Nodes, tr, opts...)
	t.Cleanup(func() {
		cl.Close()
		for _, m := range members {
			m.Close() // the shared transport closes with the first member
		}
	})
	return members, cl
}

func TestClientBatchRoundTrip(t *testing.T) {
	cfg := Config{Nodes: 3, System: Base, NumKeys: 1024}
	_, cl := newChanClient(t, cfg)

	keys := []uint64{1, 2, 3, 500, 900}
	vals := make([][]byte, len(keys))
	for i := range keys {
		vals[i] = []byte(fmt.Sprintf("batched-%d", keys[i]))
	}
	if err := cl.MultiPut(1, keys, vals); err != nil {
		t.Fatalf("MultiPut: %v", err)
	}

	// Read the batch back through a different node, plus one absent key.
	probe := append(append([]uint64(nil), keys...), cfg.NumKeys+7)
	out, err := cl.MultiGet(2, probe)
	if err != nil {
		t.Fatalf("MultiGet: %v", err)
	}
	for i := range keys {
		if string(out[i]) != string(vals[i]) {
			t.Fatalf("key %d: got %q want %q", keys[i], out[i], vals[i])
		}
	}
	if out[len(keys)] != nil {
		t.Fatalf("absent key returned %q, want nil", out[len(keys)])
	}
}

func TestClientBatchSplitsOversizeBatches(t *testing.T) {
	cfg := Config{Nodes: 2, System: Base, NumKeys: 2048}
	_, cl := newChanClient(t, cfg)

	// More ops than one frame may carry: Batch must chunk transparently.
	n := sessBatchMaxOps + 5
	ops := make([]Op, n)
	for i := range ops {
		ops[i].Key = uint64(i % int(cfg.NumKeys))
	}
	rs, err := cl.Batch(0, ops)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if len(rs) != n {
		t.Fatalf("got %d results, want %d", len(rs), n)
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
		if len(r.Value) == 0 {
			t.Fatalf("op %d: empty value", i)
		}
	}
}

func TestClientEmptyBatch(t *testing.T) {
	cfg := Config{Nodes: 2, System: Base, NumKeys: 256}
	_, cl := newChanClient(t, cfg)

	// Client-side: a zero-op Batch performs no wire traffic.
	rs, err := cl.Batch(0, nil)
	if err != nil || rs != nil {
		t.Fatalf("empty Batch: got (%v, %v), want (nil, nil)", rs, err)
	}

	// Wire-level: a hand-built count=0 frame answers OK with zero entries.
	payload, err := cl.callT(0, sessOpBatch, []byte{0, 0, 0, 0}, cl.timeout)
	if err != nil {
		t.Fatalf("count=0 frame: %v", err)
	}
	if len(payload) != 4 {
		t.Fatalf("count=0 frame: payload %d bytes, want OK with bare count", len(payload))
	}
}

func TestClientOversizeBatchFrameRejected(t *testing.T) {
	cfg := Config{Nodes: 2, System: Base, NumKeys: 256}
	_, cl := newChanClient(t, cfg)

	// A frame claiming more ops than the server's limit is refused whole
	// with the bad-request status, not served partially.
	body := binary.LittleEndian.AppendUint32(nil, sessBatchMaxOps+1)
	_, err := cl.callT(0, sessOpBatch, body, cl.timeout)
	if err == nil || !strings.Contains(err.Error(), "bad request") {
		t.Fatalf("oversize frame: got %v, want bad-request rejection", err)
	}
}

func TestClientBatchMixedStatusesWithHomeDown(t *testing.T) {
	cfg := Config{Nodes: 3, System: Base, NumKeys: 1024, QueueDepth: 256}
	members, cl := newChanClient(t, cfg)

	// Excise node 2 from the view: its cold-homed keys must fail fast with
	// the home-down status — inside the batch, without failing its siblings.
	members[0].PeerDown(2, errors.New("test: node 2 excised"))

	liveKey := coldKeyHomedOn(t, members[0], 0, cfg.NumKeys)
	deadKey := coldKeyHomedOn(t, members[0], 2, cfg.NumKeys)
	var absentKey uint64
	for k := cfg.NumKeys; ; k++ {
		if HomeOf(k, cfg.Nodes) != 2 {
			absentKey = k
			break
		}
	}

	ops := []Op{
		{Key: liveKey},
		{Key: deadKey},
		{Kind: OpPut, Key: liveKey, Value: []byte("still-served")},
		{Key: absentKey},
	}
	rs, err := cl.Batch(0, ops)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if rs[0].Err != nil || len(rs[0].Value) == 0 {
		t.Fatalf("live get: (%q, %v), want a value", rs[0].Value, rs[0].Err)
	}
	if !errors.Is(rs[1].Err, ErrHomeDown) {
		t.Fatalf("dead-homed get: %v, want ErrHomeDown", rs[1].Err)
	}
	if rs[2].Err != nil {
		t.Fatalf("live put: %v", rs[2].Err)
	}
	if !errors.Is(rs[3].Err, store.ErrNotFound) {
		t.Fatalf("absent get: %v, want store.ErrNotFound", rs[3].Err)
	}

	// The batch's put landed despite the dead-homed sibling.
	v, err := cl.Get(1, liveKey)
	if err != nil || string(v) != "still-served" {
		t.Fatalf("after batch: (%q, %v), want still-served", v, err)
	}
}

func TestClientAutoBatchFlushBySize(t *testing.T) {
	cfg := Config{Nodes: 2, System: Base, NumKeys: 512}
	// With a far-future timer, only the size trigger can flush: two
	// concurrent gets fill a maxOps=2 batch and both complete.
	_, cl := newChanClient(t, cfg, WithAutoBatch(2, time.Minute))
	done := make(chan error, 2)
	for g := 0; g < 2; g++ {
		key := uint64(g + 1)
		go func() {
			v, err := cl.Get(0, key)
			if err == nil && len(v) == 0 {
				err = errors.New("empty value")
			}
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("auto-batched get: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("size-triggered flush never fired")
		}
	}
}

func TestClientAutoBatchFlushByTimer(t *testing.T) {
	cfg := Config{Nodes: 2, System: Base, NumKeys: 512}
	// A lone op can only flush on the timer.
	_, cl := newChanClient(t, cfg, WithAutoBatch(64, 20*time.Millisecond))
	start := time.Now()
	v, err := cl.Get(0, 3)
	if err != nil || len(v) == 0 {
		t.Fatalf("timer-flushed get: (%q, %v)", v, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timer flush took %v", elapsed)
	}
}

func TestClientAutoBatchHalfFlushedOnPeerDeath(t *testing.T) {
	cfg := Config{Nodes: 2, System: Base, NumKeys: 512, QueueDepth: 64}
	members, addrs := newTCPMembers(t, cfg)
	// Two ops fill half of a maxOps=4 batch toward the dead node below; the
	// timer flush must fail them per-op with the typed unreachable error
	// instead of stranding the batch.
	cl, err := DialTCP(201, addrs, WithTimeout(2*time.Second), WithAutoBatch(4, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Kill node 1 and wait until the client has positively observed it.
	members[1].Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := cl.Ping(1); errors.Is(err, ErrNodeUnreachable) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never observed the dead server")
		}
		time.Sleep(20 * time.Millisecond)
	}

	done := make(chan error, 2)
	go func() { _, err := cl.Get(1, 1); done <- err }()
	go func() { done <- cl.Put(1, 2, []byte("lost")) }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, ErrNodeUnreachable) && !errors.Is(err, ErrSessionTimeout) {
				t.Fatalf("half-flushed op: %v, want ErrNodeUnreachable", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("half-flushed batch never completed")
		}
	}
}

// The client edge's allocation diet: a point get — a batch frame of one —
// reuses its completion channel, timeout timer, (on copying transports) its
// encode buffer and the server's pooled batch state, leaving only the request
// and response frames themselves on this by-reference transport. Batched ops
// amortize even those across the whole frame.
func TestClientGetAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	cfg := Config{Nodes: 2, System: Base, NumKeys: 1024}
	_, cl := newChanClient(t, cfg)
	key := uint64(0)
	for k := uint64(0); k < cfg.NumKeys; k++ {
		if HomeOf(k, cfg.Nodes) == 0 {
			key = k
			break
		}
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := cl.Get(0, key); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("client get: %.1f allocs/op (seed: 7.0)", allocs)
	if allocs > 2.5 {
		t.Fatalf("client get costs %.1f allocs/op, want <= 2.5 (seed was 7.0)", allocs)
	}
}

func TestClientBatchAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	cfg := Config{Nodes: 2, System: Base, NumKeys: 1024}
	_, cl := newChanClient(t, cfg)
	const batch = 64
	keys := make([]uint64, 0, batch)
	for k := uint64(0); len(keys) < batch; k++ {
		if HomeOf(k, cfg.Nodes) == 0 {
			keys = append(keys, k)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		out, err := cl.MultiGet(0, keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != batch {
			t.Fatal("short batch")
		}
	}) / batch
	t.Logf("batched client get: %.2f allocs/op at batch=%d", allocs, batch)
	if allocs > 1.0 {
		t.Fatalf("batched client get costs %.2f allocs/op, want <= 1.0", allocs)
	}
}

func TestClientBatchPutAllocsPerOp(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	cfg := Config{Nodes: 2, System: Base, NumKeys: 1024}
	_, cl := newChanClient(t, cfg)
	const batch = 64
	keys := make([]uint64, 0, batch)
	for k := uint64(0); len(keys) < batch; k++ {
		if HomeOf(k, cfg.Nodes) == 0 {
			keys = append(keys, k)
		}
	}
	vals := make([][]byte, batch)
	for i := range vals {
		vals[i] = []byte("batched-put-value")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := cl.MultiPut(0, keys, vals); err != nil {
			t.Fatal(err)
		}
	}) / batch
	// 0.08: the frame's fixed costs over 64 ops. It read 1.08 while the local
	// cold put heap-copied the stored value to read its timestamp.
	t.Logf("batched client put: %.2f allocs/op at batch=%d", allocs, batch)
	if allocs > 0.5 {
		t.Fatalf("batched client put costs %.2f allocs/op, want <= 0.5", allocs)
	}
}

// Release/poison semantics on a copying transport: a batch Result's Value
// aliases a pooled buffer, Release returns it, and — with poisoning on (the
// -race default) — any alias kept past the last Release reads poison instead
// of silently-recycled bytes. ValueCopy is the sanctioned way to keep data.
func TestClientBatchReleasePoisons(t *testing.T) {
	old := poisonReleasedBufs
	poisonReleasedBufs = true
	defer func() { poisonReleasedBufs = old }()

	cfg := Config{Nodes: 2, System: Base, NumKeys: 512}
	_, addrs := newTCPMembers(t, cfg)
	cl, err := DialTCP(204, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	want := []byte("lease-backed-value")
	if err := cl.Put(0, 7, want); err != nil {
		t.Fatal(err)
	}
	rs, err := cl.Batch(0, []Op{{Key: 7}, {Key: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Err != nil || !bytes.Equal(rs[0].Value, want) {
		t.Fatalf("batch get: (%q, %v), want %q", rs[0].Value, rs[0].Err, want)
	}
	stale := rs[0].Value      // alias kept past Release — the bug under test
	keep := rs[0].ValueCopy() // the sanctioned copy
	rs[0].Release()
	rs[0].Release() // idempotent
	if rs[0].Value != nil {
		t.Fatal("Release must nil Value")
	}
	rs[1].Release() // last reference: the shared buffer is poisoned + pooled
	for i, b := range stale {
		if b != 0xDD {
			t.Fatalf("released buffer byte %d = %#x, want poison 0xDD", i, b)
		}
	}
	if !bytes.Equal(keep, want) {
		t.Fatalf("ValueCopy = %q after Release, want %q", keep, want)
	}
}

// Leases must survive a mid-batch home-down: ops whose home left the view
// fail per-op while their value-bearing siblings still carry correct,
// releasable leases — over TCP, where the response buffer is pooled and
// refcounted across exactly the value-bearing subset.
func TestClientBatchLeasesSurviveHomeDown(t *testing.T) {
	old := poisonReleasedBufs
	poisonReleasedBufs = true
	defer func() { poisonReleasedBufs = old }()

	cfg := Config{Nodes: 3, System: Base, NumKeys: 1024, QueueDepth: 256}
	members, addrs := newTCPMembers(t, cfg)
	cl, err := DialTCP(205, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	members[0].PeerDown(2, errors.New("test: node 2 excised"))

	liveA := coldKeyHomedOn(t, members[0], 0, cfg.NumKeys)
	liveB := coldKeyHomedOn(t, members[0], 1, cfg.NumKeys)
	deadKey := coldKeyHomedOn(t, members[0], 2, cfg.NumKeys)

	rs, err := cl.Batch(0, []Op{{Key: liveA}, {Key: deadKey}, {Key: liveB}})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if rs[0].Err != nil || len(rs[0].Value) == 0 {
		t.Fatalf("live get before home-down sibling: (%q, %v)", rs[0].Value, rs[0].Err)
	}
	if !errors.Is(rs[1].Err, ErrHomeDown) {
		t.Fatalf("dead-homed get: %v, want ErrHomeDown", rs[1].Err)
	}
	if rs[2].Err != nil || len(rs[2].Value) == 0 {
		t.Fatalf("live get after home-down sibling: (%q, %v)", rs[2].Value, rs[2].Err)
	}
	wantA, wantB := rs[0].ValueCopy(), rs[2].ValueCopy()
	staleA := rs[0].Value
	for i := range rs {
		rs[i].Release() // releasing an error Result (no lease) must be safe
	}
	for i, b := range staleA {
		if b != 0xDD {
			t.Fatalf("released buffer byte %d = %#x, want poison 0xDD", i, b)
		}
	}
	// The copies — and a fresh read — still see the stored values.
	if v, err := cl.Get(1, liveA); err != nil || !bytes.Equal(v, wantA) {
		t.Fatalf("re-read liveA: (%q, %v), want %q", v, err, wantA)
	}
	if v, err := cl.Get(1, liveB); err != nil || !bytes.Equal(v, wantB) {
		t.Fatalf("re-read liveB: (%q, %v), want %q", v, err, wantB)
	}
}

// A point call's value never depends on framing: under WithAutoBatch the
// coalesced frame's receive buffer is pooled like any batch response, and Get
// hands back a detached copy and drops its reference. 64 concurrent
// auto-batched gets keep their values past every call — with poisoning on, an
// alias of a recycled buffer would read 0xDD — and every receive lease the
// client ever took is back at refcount zero.
func TestClientAutoBatchGetDetachesAndReleases(t *testing.T) {
	old := poisonReleasedBufs
	poisonReleasedBufs = true
	defer func() { poisonReleasedBufs = old }()
	// A fresh lease pool whose New records every lease it hands out.
	var mu sync.Mutex
	var leases []*respLease
	respLeasePool = sync.Pool{New: func() any {
		l := new(respLease)
		mu.Lock()
		leases = append(leases, l)
		mu.Unlock()
		return l
	}}
	defer func() { respLeasePool = sync.Pool{New: func() any { return new(respLease) }} }()

	cfg := Config{Nodes: 2, System: Base, NumKeys: 512}
	members, addrs := newTCPMembers(t, cfg)
	cl, err := DialTCP(206, addrs, WithAutoBatch(64, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	const callers = 64
	vals := make([][]byte, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := cl.Get(0, uint64(g))
			if err != nil {
				t.Errorf("get %d: %v", g, err)
			}
			vals[g] = v
		}(g)
	}
	wg.Wait()

	for g, v := range vals {
		want, err := members[0].Node(0).Get(uint64(g))
		if err != nil || len(want) == 0 || !bytes.Equal(v, want) {
			t.Fatalf("key %d: client value %q, stored (%q, %v)", g, v, want, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(leases) == 0 {
		t.Fatal("no receive lease was taken over TCP")
	}
	for i, l := range leases {
		if refs := l.refs.Load(); refs != 0 {
			t.Fatalf("receive lease %d of %d still holds %d references after every call returned", i, len(leases), refs)
		}
	}
}

// On a by-reference transport the payload buffer is fresh per response, so
// Results carry no lease: Release is a cheap no-op and aliases stay valid
// forever — the documented safe default.
func TestClientBatchReleaseNoopOnByRefTransport(t *testing.T) {
	old := poisonReleasedBufs
	poisonReleasedBufs = true
	defer func() { poisonReleasedBufs = old }()

	cfg := Config{Nodes: 2, System: Base, NumKeys: 512}
	_, cl := newChanClient(t, cfg)
	want := []byte("by-ref-value")
	if err := cl.Put(0, 9, want); err != nil {
		t.Fatal(err)
	}
	rs, err := cl.Batch(0, []Op{{Key: 9}})
	if err != nil {
		t.Fatal(err)
	}
	stale := rs[0].Value
	rs[0].Release()
	if !bytes.Equal(stale, want) {
		t.Fatalf("by-ref alias after Release = %q, want %q (no pool, no poison)", stale, want)
	}
}

// The adaptive delay mechanics, deterministically: an idle batcher arms the
// floor; a run of full flushes widens the delay toward the configured
// ceiling; a run of near-empty flushes collapses it back.
func TestAutoBatchAdaptiveDelayTracksFill(t *testing.T) {
	a := &autoBatch{maxOps: 64, delay: 160 * time.Microsecond, floor: 10 * time.Microsecond}
	if d := a.armDelay(); d != a.floor {
		t.Fatalf("idle armDelay = %v, want floor %v", d, a.floor)
	}
	for i := 0; i < 64; i++ {
		a.noteFill(64)
	}
	if d := a.armDelay(); d < a.delay*9/10 {
		t.Fatalf("after full flushes armDelay = %v, want >= %v (ceiling %v)", d, a.delay*9/10, a.delay)
	}
	for i := 0; i < 64; i++ {
		a.noteFill(1)
	}
	if d := a.armDelay(); d > a.floor+(a.delay-a.floor)/8 {
		t.Fatalf("after near-empty flushes armDelay = %v, want <= %v (floor %v)", d, a.floor+(a.delay-a.floor)/8, a.floor)
	}
}

// Under heavy concurrency the adaptive delay must not cost throughput
// against the old fixed-at-ceiling behavior (emulated by pinning the floor
// to the ceiling). Generous tolerance: this guards against gross regression,
// not noise.
func TestClientAutoBatchAdaptiveThroughput(t *testing.T) {
	cfg := Config{Nodes: 2, System: Base, NumKeys: 1024}
	_, cl := newChanClient(t, cfg)

	const callers = 64
	const opsPerCaller = 50
	newAuto := func(id uint8) *Client {
		c := NewClient(id, cfg.Nodes, cl.tr, WithAutoBatch(callers, 2*time.Millisecond))
		t.Cleanup(func() { c.Close() })
		return c
	}
	run := func(cl *Client) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < opsPerCaller; i++ {
					key := uint64((g*opsPerCaller + i) % int(cfg.NumKeys))
					if _, err := cl.Get(0, key); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		return time.Since(start)
	}

	// Scheduling noise swamps single samples; best-of-3 per configuration.
	best := func(cl *Client) time.Duration {
		d := run(cl)
		for i := 0; i < 2; i++ {
			if r := run(cl); r < d {
				d = r
			}
		}
		return d
	}

	// Pin the armed delay at the ceiling: the pre-adaptive fixed behavior.
	pinned := newAuto(201)
	for _, a := range pinned.ab {
		a.floor = a.delay
	}
	fixed := best(pinned)

	adaptive := best(newAuto(202))

	t.Logf("64-caller throughput: adaptive %v, fixed-delay %v (best of 3)", adaptive, fixed)
	if adaptive > fixed*2 {
		t.Fatalf("adaptive batching is slower than fixed-delay under load: %v vs %v", adaptive, fixed)
	}
}

// A lone caller must not pay for batching it cannot get: tail latency with
// the auto-batcher on stays within a small multiple of immediate flush. A
// broken lone-caller fast path parks every op on the armed delay
// (>= 1.25ms here), far past this bound.
func TestClientAutoBatchSoloLatency(t *testing.T) {
	cfg := Config{Nodes: 2, System: Base, NumKeys: 512}
	_, cl := newChanClient(t, cfg)

	const ops = 1000
	measure := func(cl *Client) time.Duration {
		lat := make([]time.Duration, ops)
		for i := 0; i < ops; i++ {
			start := time.Now()
			if _, err := cl.Get(0, uint64(i%int(cfg.NumKeys))); err != nil {
				t.Fatal(err)
			}
			lat[i] = time.Since(start)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[ops*99/100]
	}

	immediate := measure(cl) // no auto-batching: every op is its own frame
	auto := NewClient(201, cfg.Nodes, cl.tr, WithAutoBatch(64, 20*time.Millisecond))
	t.Cleanup(func() { auto.Close() })
	solo := measure(auto)
	t.Logf("solo p99: immediate %v, auto-batched %v", immediate, solo)
	if solo > immediate*3+100*time.Microsecond {
		t.Fatalf("solo caller p99 %v with auto-batching, %v without — lone-caller fast path broken?", solo, immediate)
	}
}
