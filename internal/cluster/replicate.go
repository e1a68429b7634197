package cluster

import (
	"errors"
	"fmt"

	"repro/internal/timestamp"
)

// Per-shard primary-backup replication. With Config.ReplicasPerShard > 1
// every key's shard data lives on ReplicasOf(key): the home plus its ring
// successors. The first LIVE replica in that order is the key's acting
// primary — a view flip promotes the next backup implicitly, with no
// per-key promotion state. Cache-missing reads route to the acting primary
// only (never to a backup: backups legitimately run *ahead* of the primary
// mid-write, see below, and reading them would break per-reader
// monotonicity across healing views). Cache-missing puts run a three-phase
// protocol driven by the origin node, in the caller's context — the KVS
// dispatcher threads never block on peer RPCs, which is what keeps two
// nodes' dispatchers from deadlocking on each other:
//
//  1. stamp   — the acting primary reserves a write timestamp strictly
//               above both its stored version and every prior stamp
//               (rpcOpPutStamp), so commits can use PutIfNewer everywhere
//               without an acked write ever losing to the stored value.
//  2. commit  — the origin fans the stamped value out to every other live
//               replica (rpcOpPutCommit, PutIfNewer semantics).
//  3. apply   — the acting primary itself applies LAST. Ordering matters:
//               were the primary to apply first, a reader could observe
//               the new version at the primary, the primary die, and the
//               promoted backup serve the old one — an observable stale
//               read. A backup running ahead is safe: the value it serves
//               after promotion was merely not yet acked, i.e. fresh.
//
// The put is acked only after all three phases succeed. A replica that died
// mid-protocol is excused once the view excises it; a primary that died
// re-runs the whole protocol against the promoted backup (idempotent: the
// backup already holds the stamped value, the fresh stamp is strictly
// newer, PutIfNewer orders the commits). A Retry answer from any replica
// means the key (re)entered the hot set mid-flight; the origin re-probes
// its cache and re-executes through the cache protocol — the promotion
// fetch lifts the cache entry's version above every issued stamp
// (rpcOpPromoteFetch), so orphaned commits from the bounced attempt lose to
// the cache's eventual demotion write-back.
//
// Known residual, documented rather than solved: the protocol is exactly as
// strong as the failure detector beneath it. During a false-suspicion
// window two nodes can both believe they are the acting primary and hand
// out stamps; PutIfNewer plus the deterministic (Clock, Writer) order make
// all replicas converge to one winner, but the interleaving is not
// linearizable during the window — the same honesty clause as the
// membership layer itself. And with ReplicasPerShard >= 3, a put abandoned
// between its stamp and a minority of its commits can leave that minority's
// timestamp ahead of the promoted primary's until the clock catches up.

// errReplicaMoved reports that the acting primary died mid-protocol and the
// view has moved past it; the caller re-runs against the promoted backup.
var errReplicaMoved = errors.New("cluster: acting primary changed mid-put")

// replicaRetryBudget bounds how many view changes a single operation will
// chase before failing loudly; each retry requires the view to actually
// move, so the bound is generous.
const replicaRetryBudget = 64

// replicatedPut runs the three-phase stamped put for a cache-missing key.
// bounced=true (nil error) reports the key went hot mid-flight at some
// replica; the caller re-probes its cache and re-executes.
func (n *Node) replicatedPut(key uint64, value []byte) (bounced bool, err error) {
	c := n.cluster
	for attempt := 0; ; attempt++ {
		if attempt > replicaRetryBudget {
			return false, fmt.Errorf("cluster: put could not settle on a primary for key %d", key)
		}
		view := c.view.Load()
		primary := c.primaryFor(key, view)
		if primary < 0 {
			return false, homeDownErr(c.HomeNode(key), key)
		}
		ts, bounced, err := n.stampAt(primary, key)
		if bounced {
			return true, nil
		}
		if err != nil {
			if nv := c.view.Load(); c.primaryFor(key, nv) != primary {
				continue // primary died mid-stamp; re-run against its successor
			}
			return false, err
		}
		bounced, err = n.commitReplicated(key, value, ts, primary, view)
		if bounced {
			return true, nil
		}
		if err == errReplicaMoved {
			continue
		}
		return false, err
	}
}

// stampAt runs phase 1 at the acting primary (locally when this node is it).
func (n *Node) stampAt(primary int, key uint64) (timestamp.TS, bool, error) {
	if primary == int(n.id) {
		ts, bounced := n.stampLocal(key)
		return ts, bounced, nil
	}
	ts, err := n.remoteStamp(uint8(primary), key)
	if err == errPutBounced {
		return timestamp.TS{}, true, nil
	}
	return ts, false, err
}

// stampLocal is the local form of rpcOpPutStamp: reserve the next write
// timestamp for key, strictly above the stored version and every prior
// stamp. bounced=true when the key is cached (stale probe) or this node is
// still re-syncing after a rejoin.
func (n *Node) stampLocal(key uint64) (timestamp.TS, bool) {
	if n.cluster.syncing.Load() {
		return timestamp.TS{}, true
	}
	wk := n.workerFor(key)
	wk.homeMu.Lock()
	if n.cache != nil && n.cache.Contains(key) {
		wk.homeMu.Unlock()
		return timestamp.TS{}, true
	}
	sc := scratchPool.Get().(*srvBuf)
	v, ts, err := n.kvs.Get(key, sc.b[:0])
	if err != nil {
		ts = timestamp.TS{}
	} else {
		sc.b = v
	}
	scratchPool.Put(sc)
	wk.seqMu.Lock()
	clock := wk.seqClocks[key]
	if ts.Clock > clock {
		clock = ts.Clock
	}
	clock++
	wk.seqClocks[key] = clock
	wk.seqMu.Unlock()
	wk.homeMu.Unlock()
	return timestamp.TS{Clock: clock, Writer: n.id}, false
}

// commitLocal is the local form of rpcOpPutCommit: apply a stamped value to
// this node's own replica, unless the key is (again) cached.
func (n *Node) commitLocal(key uint64, value []byte, ts timestamp.TS) (bounced bool) {
	wk := n.workerFor(key)
	wk.homeMu.Lock()
	defer wk.homeMu.Unlock()
	if n.cache != nil && n.cache.Contains(key) {
		return true
	}
	_ = n.kvs.PutIfNewer(key, value, ts)
	// A commit carrying an RMW pin's stamp is that RMW landing (rmw.go);
	// release the pin so the next RMW on the key can be stamped.
	if pin, ok := wk.rmwPins[key]; ok && pin.ts == ts {
		delete(wk.rmwPins, key)
	}
	return false
}

// commitReplicated runs phases 2 and 3: commit the stamped value to every
// live backup in parallel, then apply at the acting primary last.
func (n *Node) commitReplicated(key uint64, value []byte, ts timestamp.TS, primary int, view *View) (bounced bool, err error) {
	c := n.cluster
	home := c.HomeNode(key)
	wk := n.workerFor(key)
	req := wireReq{op: rpcOpPutCommit, key: key, ts: ts, value: value}

	// Phase 2: every live replica except the acting primary, fanned out on
	// the coalescing pipeline; the origin's own replica (if any) applies
	// inline.
	var chs []chan rpcResult
	var peers []int
	for i := 0; i < c.cfg.ReplicasPerShard; i++ {
		node := (home + i) % c.cfg.Nodes
		if node == primary {
			continue
		}
		if node == int(n.id) {
			if n.commitLocal(key, value, ts) {
				bounced = true
			}
			continue
		}
		if !view.Live(node) {
			continue
		}
		chs = append(chs, wk.rpc.start(uint8(node), req))
		peers = append(peers, node)
	}
	for i, ch := range chs {
		res, aerr := awaitRPC(ch)
		if aerr != nil {
			// The backup died mid-commit: once the view excises it, its
			// replica is no longer required; otherwise surface the failure.
			if !c.view.Load().Live(peers[i]) {
				continue
			}
			if err == nil {
				err = aerr
			}
			continue
		}
		if res.status == rpcStatusRetry {
			bounced = true
		} else if res.status != rpcStatusOK && err == nil {
			err = fmt.Errorf("cluster: replica commit failed (status %d)", res.status)
		}
	}
	if bounced {
		// The key went hot mid-flight (the symmetric caches are, well,
		// symmetric — if one replica caches it they all do). Orphaned
		// commits from this attempt lose to the cache's demotion write-back
		// (the promotion fetch out-stamped them); re-execute via the cache.
		return true, nil
	}
	if err != nil {
		return false, err
	}

	// Phase 3: apply at the acting primary, strictly after every backup
	// holds the value.
	if primary == int(n.id) {
		if n.commitLocal(key, value, ts) {
			return true, nil
		}
		n.LocalOps.Add(1)
		return false, nil
	}
	n.RemoteOps.Add(1)
	res, aerr := awaitRPC(wk.rpc.start(uint8(primary), req))
	if aerr != nil {
		if !c.view.Load().Live(primary) {
			return false, errReplicaMoved
		}
		return false, aerr
	}
	switch res.status {
	case rpcStatusOK:
		return false, nil
	case rpcStatusRetry:
		return true, nil
	default:
		return false, fmt.Errorf("cluster: primary commit failed (status %d)", res.status)
	}
}
