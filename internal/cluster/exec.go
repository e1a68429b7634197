package cluster

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/timestamp"
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
// An execution has two phases, so that one caller's waits overlap (one round
// trip for a whole batch, few multi-message packets per peer — the client
// side of §6.3's coalescing) without spawning goroutines:
//
//   - scan serves an op as far as it can without waiting for anything: cache
//     probe, local shard read (leased, zero-copy) or write, an SC cache write.
//     Whatever must wait is started and left pending — a cold access homed
//     elsewhere goes onto the coalescing pipeline, a hot Lin put is staged
//     and its invalidations broadcast (startLinWrite) — or only recorded: an
//     op this node refused (a get on an invalidated entry or at a primary
//     still re-syncing after its rejoin, a put on a write-pending or frozen
//     entry), an op behind an unfinished op on its key (I2), and the blocking
//     multi-phase protocols (replicated puts, RMWs). Scan never waits on the
//     cache protocol, and no round trip is synchronous in it.
//   - collect settles the run in waves. A wave settles the started ops in
//     scan order: awaits a remote answer or a staged write's last ack, parks
//     on whatever on this node refused an op — its cache entry, the re-sync
//     gate, an RMW pin (ops.go: park) — and re-runs it, runs the recorded
//     blocking steps. Ops deferred behind their key (I2) then start together,
//     as scan starts ops, for the next wave. An answer that proves the
//     op did not execute where it was sent — a put bounced because the key
//     went hot mid-flight, a read whose primary died or is re-syncing, a
//     refused RMW attempt — re-runs the op from the cache probe. That loop is
//     the one retry policy of the serving path; every iteration of it slept
//     on what refused it or crossed the wire, so it counts none.
//
// Three invariants keep the overlap safe:
//
//   - I1, no cycle through lanes. Everything collect waits for is produced
//     by a receive dispatcher — rpc answers, acks, and the update a write's
//     last ack publishes (completeLinWrite) — and dispatchers never wait for
//     a lane, a parked caller or consistency-lane capacity (conPlane.post).
//     Were updates published by the writer's lane, A=[put k1, get k2] and
//     B=[put k2, get k1] would deadlock: each lane parked on the other's
//     invalidation, each update behind its lane — in scan or in collect alike.
//   - I2, per-key order within a run. Once an op of the run is unfinished
//     and nothing else orders it (it is not a plain access on a pipeline
//     lane), every later op of the run on its key is deferred behind it and
//     started in scan order, one wave after the op it waits behind: a later
//     put can neither start first and lose to the earlier one's re-run, nor
//     a later get return the pre-write value. One exception keeps that
//     order: a put behind a staged Lin put, with no op deferred between
//     them, joins its round (core.Line.JoinLin) and publishes last. The
//     check is one length test while the run has no such op, which under SC
//     is nearly always.
//   - I3, writers of one key on one node. A staged write makes the entry
//     refuse further local writes (core.ErrWritePending); the refused writer
//     parks on the entry and is woken by the completion, under the lock that
//     completed it. WritePendingRetries, InvalidRetries and FrozenRetries
//     count those parks.
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
	// busy holds the keys of this run's unfinished ops that I2 orders later
	// ops behind, each with the stamp of its staged Lin put while a later put
	// may still join that round (timestamp.Zero once not). Nil until the
	// first one; emptied by every wave of collect.
	busy map[uint64]timestamp.TS
	// later holds a wave's deferred ops, in scan order; kept like pend.
	later []execPend
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

// opWait says what an unfinished op waits for; at most one field is set. The
// zero value is a blocking step left for collect (a replicated put, an RMW
// attempt, a local-home put that bounced).
type opWait struct {
	target int            // the node ch's answer comes from
	ch     chan rpcResult // a remote access in flight
	lin    timestamp.TS   // a hot Lin put staged in the cache, awaiting its last ack
	stall  error          // this node's refusal: park on it (ops.go), then re-run
	turn   bool           // deferred behind an earlier op of the run on its key (I2), to a later wave
}

// execPend is one op scan could not finish.
type execPend struct {
	ri int // the op's slot in opExec.res
	op Op
	opWait
}

var errRemotePutFailed = errors.New("cluster: remote put failed")

// scan appends a result slot for op and starts it.
func (x *opExec) scan(op *Op) {
	x.res = append(x.res, opRes{})
	x.start(len(x.res)-1, op)
}

// start serves op, whose result slot is ri, as far as opStart can — not at
// all when an earlier op of the run on the same key is unfinished (I2): then
// a put joins that op's round if it is a staged Lin put and nothing was
// deferred since (core.Line.JoinLin); anything else is deferred, which ends
// the joining, and collect starts it in a later wave. An op left pending
// off the pipeline makes its key busy.
func (x *opExec) start(ri int, op *Op) {
	if ts, behind := x.busy[op.Key]; behind { // an empty map answers from its length
		if ts != timestamp.Zero && op.Kind == OpPut && x.n.cache.WriteLinJoin(op.Key, ts, op.Value) {
			x.n.CacheHits.Add(1)
			x.pend = append(x.pend, execPend{ri: ri, op: *op, opWait: opWait{lin: ts}})
			return
		}
		x.busy[op.Key] = timestamp.Zero
		x.pend = append(x.pend, execPend{ri: ri, op: *op, opWait: opWait{turn: true}})
		return
	}
	w, pending := x.n.opStart(op, &x.res[ri])
	if !pending {
		return
	}
	x.pend = append(x.pend, execPend{ri: ri, op: *op, opWait: w})
	if w.ch == nil {
		// A remote access needs no entry: a later op on its key follows it
		// down the same pipeline lane to the same home.
		if x.busy == nil {
			x.busy = make(map[uint64]timestamp.TS)
		}
		x.busy[op.Key] = w.lin
	}
}

// collect settles the run in waves: each settles the started ops in scan
// order, then starts the ones it set aside (one whose key is busy again waits
// for the next), so a run costs a wave per link of its longest same-key chain.
func (x *opExec) collect() {
	for len(x.pend) != 0 {
		for i := range x.pend {
			if p := &x.pend[i]; p.turn {
				x.later = append(x.later, *p)
			} else {
				x.n.opFinish(p, &x.res[p.ri])
			}
		}
		x.pend = x.pend[:0]
		clear(x.busy)
		for i := range x.later {
			x.start(x.later[i].ri, &x.later[i].op)
		}
		x.later = x.later[:0]
	}
}

// execOne runs a single op to completion — scan and collect of a one-op
// batch, on the caller's stack — and detaches its value from store memory.
func (n *Node) execOne(op *Op) (r opRes) {
	if w, pending := n.opStart(op, &r); pending {
		n.opFinish(&execPend{op: *op, opWait: w}, &r)
	}
	if r.lease.Held() {
		r.val = append([]byte(nil), r.val...)
		r.lease.Release()
	}
	return r
}

// opStart routes op from the cache probe down and runs whatever part of it
// needs no waiting, filling r. pending reports that the op is not finished
// and w what it waits for; otherwise r is final. opFinish re-runs an op
// through here too, so a re-run always re-probes the cache — the key may have
// gone hot or cold, or the entry that stalled it may have changed — and a
// probe that misses again is counted again.
func (n *Node) opStart(op *Op, r *opRes) (w opWait, pending bool) {
	c := n.cluster
	key := op.Key
	switch op.Kind {
	case OpCAS, OpFAA:
		// Blocking multi-phase exchange wherever it routes: collect runs it,
		// after the batch's plain remote accesses are on the wire.
		return opWait{}, true
	case OpPut:
		w, hit, err := n.putCached(key, op.Value)
		if err != nil || hit {
			r.err = err
			return w, w != opWait{}
		}
		if c.replicated() {
			return opWait{}, true // stamped three-phase put (replicate.go), run by collect
		}
		home := c.HomeNode(key)
		if home == int(n.id) {
			// The home's step, called directly: no channel, no wireReq. A
			// refusal (stale probe: the key is hot again) re-runs in collect.
			sc := scratchPool.Get().(*srvBuf)
			status := n.homePut(key, op.Value, sc)
			scratchPool.Put(sc)
			if status != rpcStatusOK {
				return opWait{}, true
			}
			n.LocalOps.Add(1)
			return opWait{}, false
		}
		if !c.view.Load().Live(home) {
			// Hot keys never get here — they commit through the cache
			// protocol among the live replicas whoever their home is.
			r.err = homeDownErr(home, key)
			return opWait{}, false
		}
		n.RemoteOps.Add(1)
		return opWait{target: home, ch: n.workerFor(key).rpc.start(uint8(home), wireReq{op: rpcOpPut, key: key, value: op.Value})}, true
	}
	if n.cache != nil {
		v, _, err := n.cache.Read(key, nil)
		switch err {
		case nil:
			n.CacheHits.Add(1)
			r.val = v
			return opWait{}, false
		case core.ErrInvalid:
			// An update is in flight (§6.2: a read "may hit in the cache but
			// may not succeed"); a receive dispatcher applies it and wakes us.
			return opWait{stall: err}, true
		}
		n.CacheMisses.Add(1)
	}
	// The acting primary is the first live replica in home order — the home
	// itself when unreplicated; none left means the key is unservable.
	target := c.primaryFor(key, c.view.Load())
	switch {
	case target < 0:
		r.err = homeDownErr(c.HomeNode(key), key)
		return opWait{}, false
	case target != int(n.id):
		n.RemoteOps.Add(1)
		return opWait{target: target, ch: n.workerFor(key).rpc.start(uint8(target), wireReq{op: rpcOpGet, key: key})}, true
	case c.resyncing():
		return opWait{stall: errResyncing}, true // our shard may hold pre-crash state: wait out the seed stream
	}
	n.LocalOps.Add(1)
	lv, _, err := n.kvs.GetLease(key)
	if err == nil {
		r.val, r.lease = lv.Value(), lv
	}
	r.err = err
	return opWait{}, false
}

// opFinish settles a pending op, re-running it from opStart for as long as
// its answers prove it did not execute. It is where the serving path sleeps:
// an op refused on this node — by the cache, the re-sync gate or an RMW pin,
// in scan or in the step opSettle just ran — parks on what refused it until
// that changes. Rounds are not counted: each one parked or crossed the wire,
// and a peer that never answers leaves the view.
func (n *Node) opFinish(p *execPend, r *opRes) {
	for {
		if p.stall == nil {
			if !n.opSettle(p, r) {
				return
			}
			if p.stall == nil {
				// A peer's answer proved the op did not run there, and the
				// re-run asks again over the wire; nothing on this node changes
				// when the peer is ready. A request/response ping-pong hands the
				// processor from goroutine to goroutine, so without this yield it
				// keeps this node's other dispatchers — the ones delivering the
				// acks that peer is waiting for — off it a timeslice at a time.
				yield()
			}
		}
		if p.stall != nil {
			if r.err = n.park(p.op.Key, p.stall); r.err != nil {
				return
			}
		}
		var pending bool
		if p.opWait, pending = n.opStart(&p.op, r); !pending {
			return
		}
	}
}

// opSettle finishes one pending op — awaits what it started or runs its
// blocking step — and fills r, unless the op provably did not execute, in
// which case it asks for a re-run (after a park, when it also sets p.stall:
// this node refused the step).
func (n *Node) opSettle(p *execPend, r *opRes) (rerun bool) {
	c := n.cluster
	kind := p.op.Kind
	switch {
	case p.ch != nil:
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
	case p.lin != timestamp.Zero:
		r.err = n.awaitLinWrite(p.op.Key, p.lin)
		return false
	}
	if kind != OpPut {
		return n.rmwAttempt(p, r)
	}
	bounced := true // unreplicated: the local home found the key hot
	if c.replicated() {
		bounced, p.stall, r.err = n.replicatedPut(p.op.Key, p.op.Value)
	}
	if bounced && p.stall == nil {
		n.FrozenRetries.Add(1) // a parked bounce is counted by its park
	}
	return bounced
}

// rmwAttempt routes one CAS/FAA attempt to the key's serialization point
// (rmw.go: the RMW coordinator while the key is hot, else the acting primary
// — the home when unreplicated) and executes it there: homeRMW, in place when
// that is this node. It asks for a re-run only on outcomes proving the op did
// not run; a transport failure mid-exchange surfaces as ErrRMWUnknown, never
// as a retry.
func (n *Node) rmwAttempt(p *execPend, r *opRes) (rerun bool) {
	c := n.cluster
	key, cas := p.op.Key, p.op.Kind == OpCAS
	view := c.view.Load()
	hot := n.caches(key)
	var target int
	if hot {
		target = c.rmwCoordinator(key, view)
	} else {
		if n.cache != nil {
			n.CacheMisses.Add(1)
		}
		target = c.primaryFor(key, view)
	}
	if target < 0 {
		r.err = homeDownErr(c.HomeNode(key), key)
		return false
	}
	req := wireReq{op: rpcOpFAA, key: key, delta: p.op.Delta}
	if cas {
		req = wireReq{op: rpcOpCAS, key: key, expect: p.op.Expect, value: p.op.Value}
	}
	res, err := awaitRPC(n.startAt(target, req))
	// The exchange is counted where it ran; a step that refused in place, or
	// only stamped (its commit's last phase counts), executed nothing here.
	switch {
	case !res.local:
		n.RemoteOps.Add(1)
	case res.status == rpcStatusRetry || res.status == rpcStatusRMWStamped:
	case hot:
		n.CacheHits.Add(1)
	default:
		n.LocalOps.Add(1)
	}
	if err != nil {
		// Transport failure mid-exchange: the op may or may not have executed
		// at target. Re-running it could double-apply; surface the uncertainty.
		err = fmt.Errorf("%w: key %d at node %d: %v", ErrRMWUnknown, key, target, err)
	} else {
		res, err = n.rmwSettle(target, req, res)
	}
	switch {
	case err != nil:
		r.err = err
	case res.status == rpcStatusRetry:
		// Only a step that ran in place says why it refused (res.stall): its
		// entry, the pin or the gate, parked on before the re-run; a peer's
		// refusal is re-asked over the wire.
		p.stall = res.stall
		return true
	case cas:
		r.val = res.value
		if res.status == rpcStatusCASFail {
			r.err = ErrCASMismatch
		}
	default:
		// FAA answers the pre-add counter; a declined add means the stored
		// value is not a counter, which decoding the witness reproduces.
		old, derr := DecodeCounter(res.value)
		if derr == nil && res.status == rpcStatusCASFail {
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
