package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/seqlock"
	"repro/internal/store"
	"repro/internal/timestamp"
)

// The ladder times each layer in this process, around its public functions.
// Each rung's work contains its child's, so a rung's self time is its value
// minus its child's; the rung above the ladder is the deployment's own
// single-op get_hit latency, and what the ladder does not explain (TCP, the
// process hop, queueing behind 7 other calls) is printed as the residual.

// rungDef fixes the ladder's shape: BENCHMARK.json lists these names.
type rungDef struct{ name, child string }

var rungDefs = []rungDef{
	{"seqlock.read_ns", ""},
	{"seqlock.write_ns", ""},
	{"store.get_ns", "seqlock.read_ns"},
	{"store.getlease_ns", "seqlock.read_ns"},
	{"store.put_ns", "seqlock.write_ns"},
	{"core.read_hit_ns", "seqlock.read_ns"},
	{"core.write_sc_ns", "seqlock.write_ns"},
	{"core.write_lin_ns", "seqlock.write_ns"},
	{"core.codec_ns", ""},
	{"fabric.credit_ns", ""},
	{"fabric.tcp_send_ns", ""},
	{"fabric.tcp_rtt_us", "fabric.tcp_send_ns"},
	{"cluster.node.get_hit_ns", "core.read_hit_ns"},
	{"cluster.node.get_local_ns", "store.get_ns"},
	{"cluster.node.get_remote_us", "cluster.node.get_local_ns"},
	{"cluster.node.put_sc_hot_us", "core.write_sc_ns"},
	{"cluster.node.put_lin_hot_us", "core.write_lin_ns"},
	{"cluster.node.put_cold_remote_us", "store.put_ns"},
	{"cluster.session.get_hit_us", "cluster.node.get_hit_ns"},
	{"cluster.session.batch32_per_op_ns", "cluster.node.get_hit_ns"},
	{"cluster.client.autobatch_per_op_ns", "cluster.node.get_hit_ns"},
}

// rungUnit is the unit a rung's name ends with.
func rungUnit(name string) string {
	if strings.HasSuffix(name, "_us") {
		return "us"
	}
	return "ns"
}

// rung is one measured ladder entry. Value is in the unit the name ends with;
// Ns is the same in nanoseconds, SelfNs is Ns minus the child's Ns.
type rung struct {
	Name        string  `json:"name"`
	Unit        string  `json:"unit"`
	Value       float64 `json:"value"`
	Ns          float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	N           int     `json:"n"`
	Child       string  `json:"child,omitempty"`
	SelfNs      float64 `json:"self_ns"`
}

// timeOp runs fn in batches of batch calls for about budget and returns the
// median batch's ns per call, heap allocations per call and calls made. The
// median over batches keeps one descheduled batch out of the result.
func timeOp(budget time.Duration, batch int, fn func()) (ns, allocs float64, n int) {
	fn() // first call pays lazy initialisation
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var per []float64
	for start := time.Now(); time.Since(start) < budget || len(per) < 5; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
		n += batch
	}
	runtime.ReadMemStats(&ms1)
	return median(per), float64(ms1.Mallocs-ms0.Mallocs) / float64(n), n
}

var ladderSink int

// ladder collects rung measurements; per is each rung's time budget.
type ladder struct {
	per time.Duration
	got map[string]rung
}

func (l *ladder) put(name string, ns, allocs float64, n int) {
	l.got[name] = rung{Name: name, Ns: ns, AllocsPerOp: allocs, N: n}
}

// fast times a call that takes well under a microsecond to a few of them;
// slow one that crosses goroutines (tens of microseconds).
func (l *ladder) fast(name string, fn func()) {
	ns, a, n := timeOp(l.per, 4096, fn)
	l.put(name, ns, a, n)
}
func (l *ladder) slow(name string, fn func()) {
	ns, a, n := timeOp(l.per, 64, fn)
	l.put(name, ns, a, n)
}

// framed times a call that carries ops operations and records the per-op share.
func (l *ladder) framed(name string, batch, ops int, fn func()) {
	ns, a, n := timeOp(l.per, batch, fn)
	l.put(name, ns/float64(ops), a/float64(ops), n*ops)
}

// runLadder measures every rung, spending about budget in total.
func runLadder(budget time.Duration) ([]rung, error) {
	l := &ladder{per: budget / time.Duration(len(rungDefs)), got: map[string]rung{}}
	fast, got := l.fast, l.got

	val := make([]byte, valueSize)
	dst := make([]byte, 0, valueSize)

	// seqlock
	var sl seqlock.SeqLock
	var guarded int
	fast("seqlock.read_ns", func() { sl.Read(func() { ladderSink = guarded }) })
	fast("seqlock.write_ns", func() { sl.Write(func() { guarded++ }) })

	// store: one shard holding the whole keyspace, keys walked with a stride so
	// successive calls miss the CPU cache the way scattered traffic does.
	st := store.New(numKeys)
	for k := uint64(0); k < numKeys; k++ {
		st.Put(k, val, timestamp.TS{})
	}
	var walk uint64
	next := func() uint64 { walk = (walk + 7919) % numKeys; return walk }
	fast("store.get_ns", func() { _, _, _ = st.Get(next(), dst) })
	fast("store.getlease_ns", func() {
		if l, _, err := st.GetLease(next()); err == nil {
			l.Release()
		}
	})
	var clock uint32
	fast("store.put_ns", func() { clock++; st.Put(next(), val, timestamp.TS{Clock: clock}) })

	// core: three replicas of the hot set, protocol steps called directly.
	hot := hotSet()
	newReplicas := func() [numNodes]*core.Cache {
		var cs [numNodes]*core.Cache
		for i := range cs {
			cs[i] = core.NewCache(uint8(i), numNodes)
			cs[i].Install(hot, func(uint64) ([]byte, timestamp.TS, bool) { return val, timestamp.TS{}, true })
		}
		return cs
	}
	nextHot := func() uint64 { walk = (walk + 263) % hotKeys; return walk }
	sc := newReplicas()
	fast("core.read_hit_ns", func() { _, _, _ = sc[0].Read(nextHot(), dst) })
	var stepErr error
	fast("core.write_sc_ns", func() {
		u, err := sc[0].WriteSC(nextHot(), val)
		if err != nil {
			stepErr = err
			return
		}
		sc[1].ApplyUpdateSC(u)
		sc[2].ApplyUpdateSC(u)
	})
	lin := newReplicas()
	fast("core.write_lin_ns", func() {
		inv, err := lin[0].WriteLinStart(nextHot(), val)
		if err != nil {
			stepErr = err
			return
		}
		a1, _ := lin[1].ApplyInvalidation(inv)
		a2, _ := lin[2].ApplyInvalidation(inv)
		lin[0].ApplyAck(a1)
		u, done := lin[0].ApplyAck(a2)
		if !done {
			stepErr = fmt.Errorf("core: Lin write incomplete after %d acks", numNodes-1)
			return
		}
		lin[1].ApplyUpdateLin(u)
		lin[2].ApplyUpdateLin(u)
	})
	if stepErr != nil {
		return nil, fmt.Errorf("ladder core step: %w", stepErr)
	}
	ts := timestamp.TS{Clock: 9, Writer: 1}
	buf := make([]byte, 0, 256)
	fast("core.codec_ns", func() {
		buf = core.Update{Key: 7, TS: ts, Value: val}.Encode(buf[:0])
		buf = core.Invalidation{Key: 7, TS: ts, From: 1}.Encode(buf)
		buf = core.Ack{Key: 7, TS: ts, From: 2}.Encode(buf)
		for b := buf; len(b) > 0; {
			_, n, err := core.Decode(b)
			if err != nil {
				stepErr = err
				return
			}
			b = b[n:]
		}
	})
	if stepErr != nil {
		return nil, fmt.Errorf("ladder codec: %w", stepErr)
	}

	// fabric
	cr := fabric.NewCredits()
	peer := fabric.Addr{Node: 1, Thread: 3}
	cr.SetBudget(peer, 64)
	fast("fabric.credit_ns", func() { cr.Acquire(peer); cr.Grant(peer, 1) })
	if err := l.tcp(); err != nil {
		return nil, err
	}

	// cluster: a 3-node in-process deployment per protocol (rpc + pipeline +
	// consistency lanes over the channel transport: no TCP, no process hop).
	for _, proto := range []core.Protocol{core.SC, core.Lin} {
		if err := l.cluster(proto); err != nil {
			return nil, err
		}
	}

	out := make([]rung, 0, len(rungDefs))
	for _, d := range rungDefs {
		r, ok := got[d.name]
		if !ok {
			return nil, fmt.Errorf("ladder: rung %s was not measured", d.name)
		}
		r.Child, r.Unit, r.Value, r.SelfNs = d.child, rungUnit(d.name), r.Ns, r.Ns
		if r.Unit == "us" {
			r.Value = r.Ns / 1e3
		}
		if d.child != "" {
			r.SelfNs = r.Ns - got[d.child].Ns
		}
		out = append(out, r)
	}
	return out, nil
}

// tcp ping-pongs a 64 B packet between two TCPTransports on loopback. The
// round trip is one rung; the time spent inside Send alone is another.
func (l *ladder) tcp() error {
	a, err := fabric.NewTCPTransport(0, "127.0.0.1:0", fabric.NewStats())
	if err != nil {
		return fmt.Errorf("ladder tcp: %w", err)
	}
	defer a.Close()
	b, err := fabric.NewTCPTransport(1, "127.0.0.1:0", fabric.NewStats())
	if err != nil {
		return fmt.Errorf("ladder tcp: %w", err)
	}
	defer b.Close()
	a.AddPeer(1, b.ListenAddr())
	b.AddPeer(0, a.ListenAddr())
	aAddr, bAddr := fabric.Addr{Node: 0, Thread: 3}, fabric.Addr{Node: 1, Thread: 3}
	pong := make(chan struct{}, 1)
	a.Register(aAddr, func(fabric.Packet) { pong <- struct{}{} })
	b.Register(bAddr, func(p fabric.Packet) { _ = b.Send(fabric.Packet{Src: bAddr, Dst: aAddr, Data: p.Data}) })
	payload := make([]byte, 64)
	var sendNs time.Duration
	var sendErr error
	sends := 0
	ns, allocs, n := timeOp(2*l.per, 64, func() {
		t0 := time.Now()
		if err := a.Send(fabric.Packet{Src: aAddr, Dst: bAddr, Data: payload}); err != nil {
			sendErr = err
			return
		}
		sendNs += time.Since(t0)
		sends++
		select {
		case <-pong:
		case <-time.After(5 * time.Second):
			sendErr = fmt.Errorf("no pong within 5s")
		}
	})
	if sendErr != nil {
		return fmt.Errorf("ladder tcp ping-pong: %w", sendErr)
	}
	l.put("fabric.tcp_rtt_us", ns, allocs, n)
	l.put("fabric.tcp_send_ns", float64(sendNs)/float64(sends), allocs, sends)
	return nil
}

// cluster measures the node, session and client rungs of one protocol. SC
// carries every rung but put_lin_hot; the Lin cluster exists for that one.
func (l *ladder) cluster(proto core.Protocol) error {
	fast, slow := l.fast, l.slow
	stats := fabric.NewStats()
	tr := fabric.NewChanTransport(1024, stats)
	c, err := cluster.NewWithTransport(cluster.Config{
		Nodes: numNodes, System: cluster.CCKVS, Protocol: proto,
		NumKeys: numKeys, CacheItems: hotKeys, ValueSize: valueSize, WorkersPerNode: nodeWorkers,
	}, tr, stats)
	if err != nil {
		return fmt.Errorf("ladder cluster: %w", err)
	}
	defer c.Close()
	c.Populate()
	if err := c.InstallHotSet(hotSet()); err != nil {
		return fmt.Errorf("ladder cluster hot set: %w", err)
	}
	n0 := c.Node(0)
	val := make([]byte, valueSize)
	var errMu sync.Mutex // the auto-batch rung reports from several goroutines
	var opErr error
	note := func(err error) {
		if err != nil {
			errMu.Lock()
			if opErr == nil {
				opErr = err
			}
			errMu.Unlock()
		}
	}
	var walk uint64
	nextHot := func() uint64 { walk = (walk + 263) % hotKeys; return walk }
	if proto == core.Lin {
		slow("cluster.node.put_lin_hot_us", func() { note(n0.Put(nextHot(), val)) })
		return opErr
	}
	// Cold keys by home, found by scanning up from the cache boundary.
	coldAt := func(home int) func() uint64 {
		k := uint64(hotKeys)
		return func() uint64 {
			for {
				if k++; k >= numKeys {
					k = hotKeys
				}
				if cluster.HomeOf(k, numNodes) == home {
					return k
				}
			}
		}
	}
	local, remote := coldAt(0), coldAt(1)
	fast("cluster.node.get_hit_ns", func() { _, err := n0.Get(nextHot()); note(err) })
	fast("cluster.node.get_local_ns", func() { _, err := n0.Get(local()); note(err) })
	slow("cluster.node.get_remote_us", func() { _, err := n0.Get(remote()); note(err) })
	slow("cluster.node.put_sc_hot_us", func() { note(n0.Put(nextHot(), val)) })
	slow("cluster.node.put_cold_remote_us", func() { note(n0.Put(remote(), val)) })

	cl := cluster.NewClient(clientID, numNodes, tr)
	defer cl.Close()
	slow("cluster.session.get_hit_us", func() { _, err := cl.Get(0, nextHot()); note(err) })
	ops := make([]cluster.Op, 32)
	l.framed("cluster.session.batch32_per_op_ns", 16, len(ops), func() {
		for i := range ops {
			ops[i] = cluster.Op{Kind: cluster.OpGet, Key: nextHot()}
		}
		rs, err := cl.Batch(0, ops)
		note(err)
		for i := range rs {
			note(rs[i].Err)
			rs[i].Release()
		}
	})

	// The auto-batcher: 8 concurrent single-op callers coalesced into frames —
	// the one client lane no end-to-end workload exercises.
	ab := cluster.NewClient(clientID+1, numNodes, tr, cluster.WithAutoBatch(32, 200*time.Microsecond))
	defer ab.Close()
	const each = 32
	l.framed("cluster.client.autobatch_per_op_ns", 4, inFlight*each, func() {
		var wg sync.WaitGroup
		for g := 0; g < inFlight; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					_, err := ab.Get(0, uint64((g*each+i)%hotKeys))
					note(err)
				}
			}(g)
		}
		wg.Wait()
	})
	return opErr
}
