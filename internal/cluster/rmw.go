package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Atomic read-modify-writes (CAS, FAA) over the existing consistency
// machinery. The protocol rests on one rule: every RMW for a key executes at
// that key's single serialization point, under a lock that makes the
// read-compute-publish window atomic against every other mutation there:
//
//   - HOT key: the RMW coordinator — the first live node scanning the ring
//     upward from the key's home (rmwCoordinator; with every replica live
//     this is the home itself). Every node caches a hot key, so any one
//     could run the protocol; what matters is that all origins agree on ONE,
//     making RMW-vs-RMW races impossible by construction. Under Lin the
//     coordinator runs the ordinary write protocol with the read-compute
//     step fused in under the entry lock; under SC it applies at once and
//     broadcasts the update — replica convergence by timestamp order carries
//     the RMW's atomicity cluster-wide.
//   - COLD replicated key: the acting primary computes, stamps and *pins* the
//     key but applies nothing: the origin drives the ordinary three-phase
//     replicated commit of the computed value (replicate.go), so an acked RMW
//     survives primary death exactly like an acked put. The pin makes the
//     primary answer Retry to competing RMWs until the commit lands.
//   - COLD unreplicated key: the home shard, whole op under homeMu.
//
// The executor's rmwAttempt (exec.go) picks the target; what runs there, for
// a peer or in place, is homeRMW (home.go); rmwSettle below is the origin's
// half — what follows the answer.
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

// rmwCompute builds an RMW's compute step, run at the serialization point and
// again origin-side to build the committed value of a stamped replicated RMW.
// A declined compute (failed comparison, stored value not a counter) applies
// nothing and the witness is the answer. The inputs may alias a packet buffer
// that is only valid while its handler runs: every path either copies (the
// cache stages and the shard stores by copy) or finishes before returning.
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

// rmwSettle is the origin's half of one RMW exchange: res is what target
// answered to q, and whatever protocol continuation it names is run to its
// end — a stamped replicated RMW commits origin-side, a started hot Lin RMW
// is awaited. The result's status is OK (applied), CASFail (declined; value
// is the witness) or Retry (provably did not run).
func (n *Node) rmwSettle(target int, q wireReq, res rpcResult) (rpcResult, error) {
	key := q.key
	switch res.status {
	case rpcStatusOK, rpcStatusCASFail, rpcStatusRetry:
		return res, nil
	case rpcStatusRMWStamped:
		newVal, ok := rmwCompute(q.op == rpcOpCAS, q.expect, q.value, q.delta)(res.value)
		var bounced bool
		var err error
		if ok {
			if bounced, err = n.commitReplicated(key, newVal, res.ts, target, n.cluster.view.Load()); !bounced && err == nil {
				res.status = rpcStatusOK
				return res, nil
			}
		}
		// Not committed, so the commit that would have cleared target's pin
		// never landed there: release it. Best-effort — a dead target's pins
		// die with it, a dead origin's are cleared by the view change.
		_, _ = awaitRPC(n.startAt(target, wireReq{op: rpcOpRMWClear, key: key, ts: res.ts}))
		switch {
		case !ok:
			// The target's compute accepted this witness; ours must too, unless
			// the two disagree (a protocol bug): report the witness as a decline.
			res.status = rpcStatusCASFail
		case bounced:
			// The key went hot mid-commit: re-execute via the cache.
			n.FrozenRetries.Add(1)
			res.status, res.stall = rpcStatusRetry, nil
		default:
			// errReplicaMoved (the stamping primary died) or a live replica's
			// failure: the computed value may already sit on some replicas and
			// win promotion later. Unknown outcome — never restamp and re-run.
			err = fmt.Errorf("%w: replicated commit failed for key %d: %v", ErrRMWUnknown, key, err)
		}
		return res, err
	case rpcStatusRMWStarted:
		res.status = rpcStatusOK
		if res.local {
			if err := n.awaitLinWrite(key, res.ts); err != nil {
				// Staged, invalidations out, and nobody left to say how it ended.
				return res, fmt.Errorf("%w: key %d: %v", ErrRMWUnknown, key, err)
			}
			return res, nil
		}
		// Staged at a remote coordinator: poll until its stamped write is no
		// longer pending — the Lin contract (a write returns only once visible
		// everywhere) stretched over the wire without the coordinator ever
		// holding a response back (credit symmetry). The write completes at the
		// coordinator, which has nothing of ours to wake: each round of the
		// fan-out is one poll over the wire, uncounted like every fan-out round —
		// the write completes, or the coordinator leaves the view.
		err := n.fanOut([]homeCall{{target, wireReq{op: rpcOpRMWWait, key: key, ts: res.ts}}}, peersRequired, func(_ homeCall, w rpcResult) (bool, error) {
			return w.status == rpcStatusRetry, nil
		})
		if err != nil {
			// The coordinator died after staging: its invalidations may have
			// landed, the surviving replicas' view change will settle the entry,
			// but whether the RMW's value won is unknowable here.
			err = fmt.Errorf("%w: coordinator %d died mid-rmw for key %d: %v", ErrRMWUnknown, target, key, err)
		}
		return res, err
	default:
		return res, fmt.Errorf("cluster: rmw failed at node %d (status %d)", target, res.status)
	}
}
