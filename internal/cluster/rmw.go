package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/timestamp"
)

// Atomic read-modify-writes (CAS, FAA) over the existing consistency
// machinery. The protocol rests on one rule: every RMW for a key executes at
// that key's single serialization point, under a lock that makes the
// read-compute-publish window atomic against every other mutation there.
// What the serialization point is depends on where the key lives:
//
//   - HOT key: the RMW coordinator — the first live node scanning the ring
//     upward from the key's home (rmwCoordinator; with every replica live
//     this is the home itself). Every node caches a hot key, so any one
//     could run the protocol; what matters is that all origins agree on ONE,
//     making RMW-vs-RMW races impossible by construction. Under Lin the
//     coordinator runs the ordinary blocking write protocol with the
//     read-compute step fused in under the entry lock (core.RMWLinStart):
//     stamp, stage, broadcast invalidations, collect acks, publish the
//     update. Under SC it applies locally at once (core.RMWSC) and
//     broadcasts the update — replica convergence by timestamp order carries
//     the RMW's atomicity cluster-wide.
//   - COLD replicated key: the acting primary. It reads the stored value,
//     runs compute, stamps the result (same clock lift as rpcOpPutStamp) and
//     *pins* the key (worker.rmwPins) — but applies nothing: the origin
//     drives the ordinary three-phase replicated commit with the computed
//     value (stamp → backups → primary last), so an acked RMW survives
//     primary death exactly like an acked put. The pin makes the primary
//     answer Retry to competing RMW stamps until the commit lands (the
//     commit carrying the pin's stamp clears it), serializing RMWs without
//     ever holding homeMu across the blocking fan-out.
//   - COLD unreplicated key: the home shard, whole op under homeMu.
//
// Which of these an attempt goes to is decided in one place, the op
// executor's rmwAttempt (exec.go); this file holds what runs once it got
// there, on either side of the wire.
//
// Semantics: CAS returns the witnessed value on failure (no extra round
// trip); FAA is computed at the serialization point, so contention never
// crosses the wire twice. A CAS expectation of nil/empty matches a missing
// or empty value.
//
// Exactly-once: an RMW rpc is NEVER retried after a transport error — the op
// may or may not have executed, and re-running it could apply it twice.
// Such failures surface as ErrRMWUnknown; only an explicit Retry answer
// (which proves the op did not execute) re-issues it. Two residuals are
// inherited from the layers below, documented rather than solved: during a
// false-suspicion window two origins can disagree on the coordinator or
// acting primary and run concurrent RMWs (the same honesty clause as the
// membership layer), and a replicated RMW abandoned between its stamp and a
// minority of its commits can, with R>=3, leave a backup's value ahead (the
// abandoned-put residual of replicate.go). One semantic asymmetry is load
// bearing: an RMW superseded by a concurrent higher-timestamp blind put is
// still linearizable (the RMW's value reigned for a zero-length interval at
// the serialization point), so no supersession retry exists — whereas the
// blind put losing to the RMW is exactly the non-linearizable interleaving
// blind SC puts already accept.

// rmwPin records a stamped-but-uncommitted cold replicated RMW at the acting
// primary: origin is the node driving the commit, ts the stamp it must
// carry. Guarded by the key's worker homeMu (see worker.rmwPins).
type rmwPin struct {
	origin uint8
	ts     timestamp.TS
}

// EncodeCounter encodes a fetch-and-add counter value (8-byte big-endian).
func EncodeCounter(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

// DecodeCounter decodes a counter value: a missing/empty value reads as 0,
// anything other than 8 bytes is not a counter.
func DecodeCounter(b []byte) (uint64, error) {
	switch len(b) {
	case 0:
		return 0, nil
	case 8:
		return binary.BigEndian.Uint64(b), nil
	default:
		return 0, fmt.Errorf("cluster: value is not a counter (len %d)", len(b))
	}
}

// rmwCoordinator returns the node every RMW for key serializes at while the
// key is hot: the first live node scanning the ring upward from the key's
// home (the home itself when it is live, so the hot and cold targets
// coincide in the common case). -1 when no node is live.
func (c *Cluster) rmwCoordinator(key uint64, v *View) int {
	home := c.HomeNode(key)
	for i := 0; i < c.cfg.Nodes; i++ {
		node := home + i
		if node >= c.cfg.Nodes {
			node -= c.cfg.Nodes
		}
		if v.Live(node) {
			return node
		}
	}
	return -1
}

// CompareAndSwap atomically replaces key's value with newVal iff the current
// value equals expect (nil/empty expect matches a missing or empty value).
// witness is the value the comparison observed — on failure it is the answer
// a retry loop needs, saving the read round trip.
func (n *Node) CompareAndSwap(key uint64, expect, newVal []byte) (witness []byte, swapped bool, err error) {
	r := n.execOne(&Op{Kind: OpCAS, Key: key, Expect: expect, Value: newVal})
	if errors.Is(r.err, ErrCASMismatch) {
		return r.val, false, nil
	}
	return r.val, r.err == nil, r.err
}

// FetchAndAdd atomically adds delta to the counter stored under key (8-byte
// big-endian; a missing value counts from 0) and returns the previous value.
// The addition happens at the key's serialization point, so hot contended
// counters cost one exchange per op, not a CAS retry loop over the wire.
func (n *Node) FetchAndAdd(key uint64, delta uint64) (old uint64, err error) {
	r := n.execOne(&Op{Kind: OpFAA, Key: key, Delta: delta})
	if r.err != nil {
		return 0, r.err
	}
	return DecodeCounter(r.val)
}

// rmwCompute builds an RMW's compute step — its local form at the
// serialization point, also used origin-side to build the committed value of
// a stamped replicated RMW. A declined compute (failed comparison, stored
// value not a counter) applies nothing and the witness is the answer. The
// inputs may alias a packet buffer that is only valid while its handler
// runs: every path either copies (the cache stages and the shard stores by
// copy) or finishes before returning.
func rmwCompute(cas bool, expect, newVal []byte, delta uint64) func([]byte) ([]byte, bool) {
	if cas {
		return func(cur []byte) ([]byte, bool) {
			if !bytes.Equal(cur, expect) {
				return nil, false
			}
			return newVal, true
		}
	}
	return func(cur []byte) ([]byte, bool) {
		v, err := DecodeCounter(cur)
		if err != nil {
			return nil, false
		}
		return EncodeCounter(v + delta), true
	}
}

// rmwLocalHot executes an RMW at this node's own cache — this node is the
// key's RMW coordinator. retry=true means the attempt proves nothing and the
// caller re-dispatches: with err the cache's refusal (frozen, invalid or
// write-pending entry) to park on first, with a nil err because the key left
// the hot set.
func (n *Node) rmwLocalHot(key uint64, compute func([]byte) ([]byte, bool)) (witness []byte, applied, retry bool, err error) {
	if n.cluster.cfg.Protocol == core.Lin {
		// The ordinary Lin write with the read-compute step fused in under the
		// entry lock; a declined compute (failed CAS) stages nothing and
		// answers immediately.
		var inv core.Invalidation
		if inv, witness, applied, err = n.cache.RMWLinStart(key, compute); err == nil && applied {
			n.startLinWrite(inv, true)
			if err = n.awaitLinWrite(key, inv.TS); err != nil {
				// Staged, invalidations out, and nobody left to say how it ended.
				return nil, false, false, fmt.Errorf("%w: key %d: %v", ErrRMWUnknown, key, err)
			}
		}
	} else {
		var upd core.Update
		if upd, witness, applied, err = n.cache.RMWSC(key, compute); err == nil && applied {
			n.broadcastUpdate(upd)
		}
	}
	switch err {
	case nil:
		n.CacheHits.Add(1)
		return witness, applied, false, nil
	case core.ErrInvalid, core.ErrWritePending, core.ErrFrozen:
		return nil, false, true, err
	case core.ErrMiss:
		return nil, false, true, nil
	default:
		return nil, false, false, err
	}
}

// rmwLocalCold executes an RMW against this node's own unreplicated shard,
// whole op under homeMu. retry=true reports the key (re)entered the hot set.
func (n *Node) rmwLocalCold(key uint64, compute func([]byte) ([]byte, bool)) (witness []byte, applied, retry bool) {
	wk := n.workerFor(key)
	wk.homeMu.Lock()
	if n.cache != nil && n.cache.Contains(key) {
		wk.homeMu.Unlock()
		n.FrozenRetries.Add(1)
		return nil, false, true
	}
	witness, ts, err := n.kvs.Get(key, nil)
	if err != nil {
		witness, ts = nil, timestamp.TS{}
	}
	newVal, ok := compute(witness)
	if !ok {
		wk.homeMu.Unlock()
		n.LocalOps.Add(1)
		return witness, false, false
	}
	n.kvs.Put(key, newVal, ts.Next(n.id))
	wk.homeMu.Unlock()
	n.LocalOps.Add(1)
	return witness, true, false
}

// rmwLocalReplicated executes an RMW with this node as the key's acting
// primary: read + compute + stamp + pin under homeMu, then drive the
// replicated commit of the computed value origin-side (never holding homeMu
// across the fan-out). retry=true reports a bounce (key went hot, pin held,
// still re-syncing) — the op provably did not run.
func (n *Node) rmwLocalReplicated(key uint64, compute func([]byte) ([]byte, bool), view *View) (witness []byte, applied, retry bool, err error) {
	if n.cluster.syncing.Load() {
		return nil, false, true, nil
	}
	wk := n.workerFor(key)
	wk.homeMu.Lock()
	if n.cache != nil && n.cache.Contains(key) {
		wk.homeMu.Unlock()
		n.FrozenRetries.Add(1)
		return nil, false, true, nil
	}
	if _, pinned := wk.rmwPins[key]; pinned {
		wk.homeMu.Unlock()
		n.WritePendingRetries.Add(1)
		return nil, false, true, nil
	}
	witness, ts, gerr := n.kvs.Get(key, nil)
	if gerr != nil {
		witness, ts = nil, timestamp.TS{}
	}
	newVal, ok := compute(witness)
	if !ok {
		wk.homeMu.Unlock()
		n.LocalOps.Add(1)
		return witness, false, false, nil
	}
	wk.seqMu.Lock()
	clock := wk.seqClocks[key]
	if ts.Clock > clock {
		clock = ts.Clock
	}
	clock++
	wk.seqClocks[key] = clock
	wk.seqMu.Unlock()
	stamp := timestamp.TS{Clock: clock, Writer: n.id}
	wk.rmwPins[key] = rmwPin{origin: n.id, ts: stamp}
	wk.homeMu.Unlock()

	bounced, cerr := n.commitReplicated(key, newVal, stamp, int(n.id), view)
	if bounced {
		// Key went hot mid-commit; the successful local apply never ran, so
		// the pin is still armed — release it and re-execute via the cache.
		n.clearRMWPin(key, stamp)
		n.FrozenRetries.Add(1)
		return nil, false, true, nil
	}
	if cerr != nil {
		// A live backup failed its commit: the value may sit on a minority
		// of replicas. The outcome is unknowable to the caller — surface it,
		// never silently re-run.
		n.clearRMWPin(key, stamp)
		return nil, false, false, fmt.Errorf("%w: replicated commit failed for key %d: %v", ErrRMWUnknown, key, cerr)
	}
	return witness, true, false, nil
}

// clearRMWPin releases key's pin if it still carries ts.
func (n *Node) clearRMWPin(key uint64, ts timestamp.TS) {
	wk := n.workerFor(key)
	wk.homeMu.Lock()
	if pin, ok := wk.rmwPins[key]; ok && pin.ts == ts {
		delete(wk.rmwPins, key)
	}
	wk.homeMu.Unlock()
}

// sendRMWClear releases a pin held at target for an RMW this origin can no
// longer commit. Best-effort: a dead target's pins die with it, a dead
// origin's are cleared by the view change (view.go applyDown).
func (n *Node) sendRMWClear(target uint8, key uint64, ts timestamp.TS) {
	if int(target) == int(n.id) {
		n.clearRMWPin(key, ts)
		return
	}
	_, _ = awaitRPC(n.workerFor(key).rpc.start(target, wireReq{op: rpcOpRMWClear, key: key, ts: ts}))
}

// rmwRemote executes one RMW exchange against target and settles whatever
// protocol continuation the answer names: a stamped replicated RMW commits
// origin-side, a started hot Lin RMW is polled to completion. retry=true
// only for answers proving the op did not run.
func (n *Node) rmwRemote(target uint8, key uint64, req wireReq, compute func([]byte) ([]byte, bool)) (witness []byte, applied, retry bool, err error) {
	c := n.cluster
	res, err := n.workerFor(key).rpc.call(target, req)
	if err != nil {
		// Transport failure mid-exchange: the op may or may not have
		// executed at target. Re-running it could double-apply; surface the
		// uncertainty instead.
		return nil, false, false, fmt.Errorf("%w: key %d at node %d: %v", ErrRMWUnknown, key, target, err)
	}
	switch res.status {
	case rpcStatusOK:
		return res.value, true, false, nil
	case rpcStatusCASFail:
		return res.value, false, false, nil
	case rpcStatusRetry:
		return nil, false, true, nil
	case rpcStatusRMWStamped:
		newVal, ok := compute(res.value)
		if !ok {
			// The server's compute accepted this witness; ours must too —
			// unless the two disagree (a protocol bug). Release the pin and
			// report the witness as a decline.
			n.sendRMWClear(target, key, res.ts)
			return res.value, false, false, nil
		}
		bounced, cerr := n.commitReplicated(key, newVal, res.ts, int(target), c.view.Load())
		if bounced {
			n.sendRMWClear(target, key, res.ts)
			n.FrozenRetries.Add(1)
			return nil, false, true, nil
		}
		if cerr != nil {
			// errReplicaMoved (the stamping primary died) or a live
			// replica's failure: the computed value may already sit on some
			// replicas and win promotion later. Unknown outcome — do NOT
			// restamp and re-run.
			n.sendRMWClear(target, key, res.ts)
			return nil, false, false, fmt.Errorf("%w: replicated commit failed for key %d: %v", ErrRMWUnknown, key, cerr)
		}
		return res.value, true, false, nil
	case rpcStatusRMWStarted:
		// Hot Lin RMW staged at the coordinator: poll until its stamped
		// write is no longer pending — the Lin contract (a write returns
		// only once visible everywhere) stretched over the wire without the
		// server ever holding a response back (credit symmetry).
		for spin := 0; ; spin++ {
			if spin > invalidRetryLimit {
				return nil, false, false, ErrRetriesExhausted
			}
			wres, werr := n.workerFor(key).rpc.call(target, wireReq{op: rpcOpRMWWait, key: key, ts: res.ts})
			if werr != nil {
				// The coordinator died after staging: its invalidations may
				// have landed, the surviving replicas' view change will
				// settle the entry, but whether the RMW's value won is
				// unknowable here.
				return nil, false, false, fmt.Errorf("%w: coordinator %d died mid-rmw for key %d: %v", ErrRMWUnknown, target, key, werr)
			}
			if wres.status == rpcStatusRetry {
				// The write completes at the coordinator, which cannot hold a
				// response back for it; the poll itself crosses the wire, the
				// yield only lets this node's dispatchers in between two polls.
				yield()
				continue
			}
			return res.value, true, false, nil
		}
	default:
		return nil, false, false, fmt.Errorf("cluster: rmw failed at node %d (status %d)", target, res.status)
	}
}

// serveRMW serves one remote CAS/FAA at this node (rpc.go dispatch). Every
// refusal that must re-route (not the serialization point, mid-transition
// entry, pinned key) answers Retry — the one status that proves the op did
// not run, which is what licenses the origin's re-issue.
func (n *Node) serveRMW(src uint8, req rpcRequest, resp []byte) []byte {
	if n.cluster.syncing.Load() {
		return appendStatusOnly(resp, req.reqID, rpcStatusRetry)
	}
	compute := rmwCompute(req.op == rpcOpCAS, req.expect, req.value, req.delta)
	view := n.cluster.view.Load()
	if n.cache != nil && n.cache.Contains(req.key) {
		if n.cluster.rmwCoordinator(req.key, view) != int(n.id) {
			return appendStatusOnly(resp, req.reqID, rpcStatusRetry)
		}
		if n.cluster.cfg.Protocol == core.Lin {
			return n.serveRMWLin(req, resp, compute)
		}
		upd, w, applied, err := n.cache.RMWSC(req.key, compute)
		if err != nil {
			// Frozen mid-demotion or the key just left the hot set: bounce.
			return appendStatusOnly(resp, req.reqID, rpcStatusRetry)
		}
		if !applied {
			return appendPayloadResponse(resp, req.reqID, rpcStatusCASFail, timestamp.TS{}, w)
		}
		n.broadcastUpdate(upd)
		return appendPayloadResponse(resp, req.reqID, rpcStatusOK, upd.TS, w)
	}
	if n.cluster.replicated() {
		if n.cluster.primaryFor(req.key, view) != int(n.id) {
			return appendStatusOnly(resp, req.reqID, rpcStatusRetry)
		}
		wk := n.workerFor(req.key)
		wk.homeMu.Lock()
		if n.cache != nil && n.cache.Contains(req.key) {
			wk.homeMu.Unlock()
			return appendStatusOnly(resp, req.reqID, rpcStatusRetry)
		}
		if _, pinned := wk.rmwPins[req.key]; pinned {
			wk.homeMu.Unlock()
			return appendStatusOnly(resp, req.reqID, rpcStatusRetry)
		}
		witness, ts, err := n.kvs.Get(req.key, nil)
		if err != nil {
			witness, ts = nil, timestamp.TS{}
		}
		if _, ok := compute(witness); !ok {
			wk.homeMu.Unlock()
			return appendPayloadResponse(resp, req.reqID, rpcStatusCASFail, timestamp.TS{}, witness)
		}
		wk.seqMu.Lock()
		clock := wk.seqClocks[req.key]
		if ts.Clock > clock {
			clock = ts.Clock
		}
		clock++
		wk.seqClocks[req.key] = clock
		wk.seqMu.Unlock()
		stamp := timestamp.TS{Clock: clock, Writer: n.id}
		wk.rmwPins[req.key] = rmwPin{origin: src, ts: stamp}
		wk.homeMu.Unlock()
		// Nothing applied here: the origin recomputes the value from the
		// witness and drives the three-phase commit; this node applies in
		// phase 3 (primary last), which also clears the pin.
		return appendPayloadResponse(resp, req.reqID, rpcStatusRMWStamped, stamp, witness)
	}
	if n.cluster.HomeNode(req.key) != int(n.id) {
		return appendStatusOnly(resp, req.reqID, rpcStatusRetry)
	}
	wk := n.workerFor(req.key)
	wk.homeMu.Lock()
	if n.cache != nil && n.cache.Contains(req.key) {
		wk.homeMu.Unlock()
		return appendStatusOnly(resp, req.reqID, rpcStatusRetry)
	}
	witness, ts, err := n.kvs.Get(req.key, nil)
	if err != nil {
		witness, ts = nil, timestamp.TS{}
	}
	newVal, ok := compute(witness)
	if !ok {
		wk.homeMu.Unlock()
		return appendPayloadResponse(resp, req.reqID, rpcStatusCASFail, timestamp.TS{}, witness)
	}
	n.kvs.Put(req.key, newVal, ts.Next(n.id))
	wk.homeMu.Unlock()
	return appendPayloadResponse(resp, req.reqID, rpcStatusOK, timestamp.TS{}, witness)
}

// serveRMWLin serves a remote hot Lin RMW at the coordinator: stage the
// write, broadcast its invalidation (startLinWrite) and answer
// rpcStatusRMWStarted immediately — the response cannot wait for acks
// (request/response credit symmetry forbids holding it back). Nothing is left
// behind to finish the write: its last ack publishes the update
// (completeLinWrite), and the origin polls rpcOpRMWWait for that moment.
func (n *Node) serveRMWLin(req rpcRequest, resp []byte, compute func([]byte) ([]byte, bool)) []byte {
	inv, w, applied, err := n.cache.RMWLinStart(req.key, compute)
	switch {
	case err != nil:
		// Write-pending, invalid, frozen, or the key left the hot set — every
		// case bounces; the origin re-dispatches.
		return appendStatusOnly(resp, req.reqID, rpcStatusRetry)
	case !applied:
		return appendPayloadResponse(resp, req.reqID, rpcStatusCASFail, timestamp.TS{}, w)
	}
	n.startLinWrite(inv, false) // on the KVS dispatcher: must not block on a lane
	return appendPayloadResponse(resp, req.reqID, rpcStatusRMWStarted, inv.TS, w)
}

// serveRMWWait answers a hot Lin RMW completion poll: Retry while the write
// stamped req.ts is still pending at this coordinator, OK once it finished
// (committed, superseded with its update out, or excised with the entry).
func (n *Node) serveRMWWait(req rpcRequest, resp []byte) []byte {
	if n.cache != nil {
		if ts, pending := n.cache.PendingWriteTS(req.key); pending && ts == req.ts {
			return appendStatusOnly(resp, req.reqID, rpcStatusRetry)
		}
	}
	return appendOKResponse(resp, req.reqID, timestamp.TS{}, nil)
}
