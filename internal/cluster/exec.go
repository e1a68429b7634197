package cluster

import (
	"errors"
	"fmt"

	"repro/internal/store"
)

// The op executor: the single serving path of §6.1. Every client operation —
// whichever door it came through (Node.Get/Put/MultiGet/MultiPut/Batch, the
// RMW calls, a session lane serving cluster.Client frames) — is an Op run
// through one opExec, and the executor is the only code that decides where a
// get, put, CAS or FAA executes: probe the symmetric cache; on a miss go to
// the local shard or to the key's home (its acting primary under
// replication); a hot write runs the cache protocol; an RMW goes to the key's
// serialization point.
//
// An execution has two phases, so that one caller's remote accesses overlap
// (one round trip for a whole batch, few multi-request packets per home —
// the client side of §6.3's request coalescing) without spawning goroutines:
//
//   - scan serves an op as far as it can without waiting on another node's
//     answer to *this* op: cache probe, local shard read (leased, zero-copy)
//     or write, and the hot-key cache-protocol write. The cache protocol is
//     the one thing scan waits on — a read spinning on an invalidated entry,
//     a write on a frozen or write-pending one, a Lin put blocking for its
//     acks (ROADMAP item 1 moves that into collect), the Figure 4a/4b
//     primary/sequencer exchange. A cold access homed elsewhere is started
//     on the coalescing pipeline and left pending; blocking multi-phase
//     protocols (replicated puts, RMWs, reads at a primary still re-syncing
//     after its rejoin) are only recorded.
//   - collect awaits the started accesses and runs the recorded blocking
//     steps, in scan order. An answer that proves the op did not execute
//     where it was sent — a put bounced because the key went hot mid-flight,
//     a read whose primary died or is re-syncing, a refused RMW attempt —
//     re-runs the op from the routing decision (re-probing the cache for a
//     put), after a yield, bounded by frozenRetryLimit. That loop is the one
//     retry policy of the serving path.
//
// Results are per op (opRes): a value, a typed error, never a batch-level
// abort. A locally served get holds a store lease; the consumer of the
// results releases it — the session lane once the value reached the
// transport, detach on behalf of Node-level callers.
//
// The per-op engine is three Node methods — opStart (scan's step), opSettle
// and opFinish (collect's step and its re-run loop); opExec is the batch
// driver on top of them, holding the result and pending lists, and execOne
// the one-op form that needs neither.
type opExec struct {
	n    *Node
	res  []opRes
	pend []execPend
}

// opRes is one op's outcome. val is the value read (get), the value
// witnessed (cas, also beside ErrCASMismatch) or the 8-byte pre-add counter
// (faa). err is nil, store.ErrNotFound, ErrCASMismatch, a wrapped ErrHomeDown
// or ErrRMWUnknown, or a hard failure. While lease is held, val aliases
// store memory.
type opRes struct {
	val   []byte
	lease store.Lease
	err   error
}

// execPend is one op scan could not finish: a remote access in flight toward
// target (ch != nil), or a blocking step left for collect (ch == nil).
type execPend struct {
	ri      int // the op's slot in opExec.res
	op      Op
	target  int
	ch      chan rpcResult
	compute func([]byte) ([]byte, bool) // RMW only; built by the first attempt
}

var errRemotePutFailed = errors.New("cluster: remote put failed")

// scan appends a result slot for op and serves it as far as opStart can.
func (x *opExec) scan(op *Op) {
	ri := len(x.res)
	x.res = append(x.res, opRes{})
	if target, ch, pending := x.n.opStart(op, &x.res[ri], true); pending {
		x.pend = append(x.pend, execPend{ri: ri, op: *op, target: target, ch: ch})
	}
}

// collect settles every pending op in scan order.
func (x *opExec) collect() {
	for i := range x.pend {
		x.n.opFinish(&x.pend[i], &x.res[x.pend[i].ri])
	}
	x.pend = x.pend[:0]
}

// execOne runs a single op to completion — scan and collect of a one-op
// batch, on the caller's stack — and detaches its value from store memory.
func (n *Node) execOne(op *Op) (r opRes) {
	if target, ch, pending := n.opStart(op, &r, true); pending {
		n.opFinish(&execPend{op: *op, target: target, ch: ch}, &r)
	}
	if r.lease.Held() {
		r.val = append([]byte(nil), r.val...)
		r.lease.Release()
	}
	return r
}

// opStart routes op and runs whatever part of it cannot wait on a peer,
// filling r. pending reports that the op is not finished: a remote access is
// in flight toward target (ch != nil) or a blocking step is left for
// opFinish (ch == nil); otherwise r is final. first is false when opFinish
// re-runs an op: a put re-probes the cache (a bounce means the key went
// hot), a get goes straight back to routing (it already missed, and the miss
// is counted).
func (n *Node) opStart(op *Op, r *opRes, first bool) (target int, ch chan rpcResult, pending bool) {
	c := n.cluster
	key := op.Key
	switch op.Kind {
	case OpCAS, OpFAA:
		// Blocking multi-phase exchange wherever it routes: collect runs it,
		// after the batch's plain remote accesses are on the wire.
		return 0, nil, true
	case OpPut:
		done, err := n.putCached(key, op.Value)
		if err != nil || done {
			r.err = err
			return 0, nil, false
		}
		if c.replicated() {
			return 0, nil, true // stamped three-phase put (replicate.go), run by collect
		}
		home := c.HomeNode(key)
		if home == int(n.id) {
			// A bounce (stale probe: the key is hot again) re-runs in collect.
			return 0, nil, n.localHomePut(key, op.Value)
		}
		if !c.view.Load().Live(home) {
			// Hot keys never get here — they commit through the cache
			// protocol among the live replicas whoever their home is.
			r.err = homeDownErr(home, key)
			return 0, nil, false
		}
		n.RemoteOps.Add(1)
		return home, n.workerFor(key).rpc.start(uint8(home), wireReq{op: rpcOpPut, key: key, value: op.Value}), true
	}
	if first && n.cache != nil {
		v, hit, err := n.cacheRead(key)
		if hit || err != nil {
			if hit {
				n.CacheHits.Add(1)
			}
			r.val, r.err = v, err
			return 0, nil, false
		}
		n.CacheMisses.Add(1)
	}
	// The acting primary is the first live replica in home order — the home
	// itself when unreplicated; none left means the key is unservable.
	target = c.primaryFor(key, c.view.Load())
	switch {
	case target < 0:
		r.err = homeDownErr(c.HomeNode(key), key)
		return 0, nil, false
	case target != int(n.id):
		n.RemoteOps.Add(1)
		return target, n.workerFor(key).rpc.start(uint8(target), wireReq{op: rpcOpGet, key: key}), true
	case c.syncing.Load():
		return 0, nil, true // our shard may hold pre-crash state; collect waits out the seed stream
	}
	n.LocalOps.Add(1)
	lv, _, err := n.kvs.GetLease(key)
	if err == nil {
		r.val, r.lease = lv.Value(), lv
	}
	r.err = err
	return 0, nil, false
}

// opFinish settles a pending op, re-running it from opStart for as long as
// its answers prove it did not execute.
func (n *Node) opFinish(p *execPend, r *opRes) {
	for attempt := 0; n.opSettle(p, r); attempt++ {
		if attempt >= frozenRetryLimit {
			r.err = ErrFrozenRetriesExhausted
			return
		}
		yield()
		var pending bool
		if p.target, p.ch, pending = n.opStart(&p.op, r, false); !pending {
			return
		}
	}
}

// opSettle finishes one pending op — awaits its remote access or runs its
// blocking step — and fills r, unless the op provably did not execute, in
// which case it asks for a re-run.
func (n *Node) opSettle(p *execPend, r *opRes) (rerun bool) {
	c := n.cluster
	kind := p.op.Kind
	if p.ch == nil {
		switch kind {
		case OpPut:
			bounced := true // unreplicated: the local home found the key hot
			if c.replicated() {
				bounced, r.err = n.replicatedPut(p.op.Key, p.op.Value)
			}
			if bounced {
				n.FrozenRetries.Add(1)
			}
			return bounced
		case OpGet:
			for spin := 0; c.syncing.Load(); spin++ {
				if spin > frozenRetryLimit {
					r.err = ErrFrozenRetriesExhausted
					return false
				}
				yield()
			}
			return true
		}
		return n.rmwAttempt(p, r)
	}
	res, err := awaitRPC(p.ch)
	switch {
	case err != nil:
		if kind == OpGet && c.primaryFor(p.op.Key, c.view.Load()) != p.target {
			return true // the serving replica left the view mid-read: chase the promotion
		}
		r.err = err
	case res.status == rpcStatusRetry:
		// A put bounced off a home that now caches the key, or a get reached
		// a primary still re-syncing after its rejoin.
		if kind == OpPut {
			n.FrozenRetries.Add(1)
		}
		return true
	case kind == OpPut:
		if res.status != rpcStatusOK {
			r.err = errRemotePutFailed
		}
	case res.status == rpcStatusOK:
		r.val = res.value
	default:
		r.err = store.ErrNotFound
	}
	return false
}

// rmwAttempt routes one CAS/FAA attempt to the key's serialization point
// (rmw.go: the RMW coordinator while the key is hot, else the acting primary
// — the home when unreplicated) and executes it there. It asks for a re-run
// only on outcomes proving the op did not run; a transport failure
// mid-exchange surfaces as ErrRMWUnknown, never as a retry.
func (n *Node) rmwAttempt(p *execPend, r *opRes) (rerun bool) {
	c := n.cluster
	key, cas := p.op.Key, p.op.Kind == OpCAS
	if p.compute == nil {
		p.compute = rmwCompute(cas, p.op.Expect, p.op.Value, p.op.Delta)
	}
	view := c.view.Load()
	hot := n.cache != nil && n.cache.Contains(key)
	var target int
	if hot {
		target = c.rmwCoordinator(key, view)
	} else {
		if n.cache != nil {
			n.CacheMisses.Add(1)
		}
		target = c.primaryFor(key, view)
	}
	var w []byte
	var applied bool
	var err error
	switch {
	case target < 0:
		r.err = homeDownErr(c.HomeNode(key), key)
		return false
	case target != int(n.id):
		n.RemoteOps.Add(1)
		req := wireReq{op: rpcOpFAA, key: key, delta: p.op.Delta}
		if cas {
			req = wireReq{op: rpcOpCAS, key: key, expect: p.op.Expect, value: p.op.Value}
		}
		w, applied, rerun, err = n.rmwRemote(uint8(target), key, req, p.compute)
	case hot:
		w, applied, rerun, err = n.rmwLocalHot(key, p.compute)
	case c.replicated():
		w, applied, rerun, err = n.rmwLocalReplicated(key, p.compute, view)
	default:
		w, applied, rerun = n.rmwLocalCold(key, p.compute)
	}
	switch {
	case err != nil:
		r.err = err
	case rerun:
		return true
	case cas:
		r.val = w
		if !applied {
			r.err = ErrCASMismatch
		}
	default:
		// FAA answers the pre-add counter; a declined add means the stored
		// value is not a counter, which decoding the witness reproduces.
		old, derr := DecodeCounter(w)
		if derr == nil && !applied {
			derr = fmt.Errorf("cluster: fetch-and-add declined unexpectedly (key %d)", key)
		}
		if r.err = derr; derr == nil {
			r.val = EncodeCounter(old)
		}
	}
	return false
}

// detach copies every leased value into one buffer shared by the batch and
// drops the leases: Node-level callers own their results. The copies are
// disjoint and capacity-clipped, so reading and overwriting one in place is
// safe; appending to one is not.
func (x *opExec) detach() {
	total := 0
	for i := range x.res {
		total += len(x.res[i].lease.Value())
	}
	buf := make([]byte, 0, total)
	for i := range x.res {
		r := &x.res[i]
		if !r.lease.Held() {
			continue
		}
		off := len(buf)
		buf = append(buf, r.val...)
		r.val = buf[off:len(buf):len(buf)]
		r.lease.Release()
	}
}
