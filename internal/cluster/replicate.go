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
//               replica, its own included (rpcOpPutCommit, PutIfNewer
//               semantics).
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
// What a replica does with a stamp or a commit is homeStamp / homeCommit
// (home.go), one body whether the replica is a peer or this node (startAt);
// this file is the origin's side.
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
// bounced=true (nil error) reports the op did not run: the key went hot
// mid-flight at some replica, or the acting primary is re-syncing; the caller
// re-probes its cache and re-executes — after parking on stall, when the
// refusal was this node's own (its re-sync gate).
func (n *Node) replicatedPut(key uint64, value []byte) (bounced bool, stall, err error) {
	c := n.cluster
	for attempt := 0; ; attempt++ {
		if attempt > replicaRetryBudget {
			return false, nil, fmt.Errorf("cluster: put could not settle on a primary for key %d", key)
		}
		view := c.view.Load()
		primary := c.primaryFor(key, view)
		if primary < 0 {
			return false, nil, homeDownErr(c.HomeNode(key), key)
		}
		res, err := awaitRPC(n.startAt(primary, wireReq{op: rpcOpPutStamp, key: key}))
		switch {
		case err != nil:
			if c.primaryFor(key, c.view.Load()) != primary {
				continue // primary died mid-stamp; re-run against its successor
			}
			return false, nil, err
		case res.status == rpcStatusRetry:
			return true, res.stall, nil // the primary caches the key (stale probe) or is re-syncing
		case res.status != rpcStatusOK:
			return false, nil, fmt.Errorf("cluster: put stamp failed (status %d)", res.status)
		}
		bounced, err = n.commitReplicated(key, value, res.ts, primary, view)
		if err == errReplicaMoved {
			continue
		}
		return bounced, nil, err
	}
}

// commitReplicated runs phases 2 and 3: commit the stamped value to every
// live backup in parallel, then apply at the acting primary last.
func (n *Node) commitReplicated(key uint64, value []byte, ts timestamp.TS, primary int, view *View) (bounced bool, err error) {
	c := n.cluster
	req := wireReq{op: rpcOpPutCommit, key: key, ts: ts, value: value}
	settle := func(at homeCall, res rpcResult) (bool, error) {
		switch res.status {
		case rpcStatusOK:
		case rpcStatusRetry:
			bounced = true
		default:
			return false, fmt.Errorf("cluster: replica commit failed at node %d (status %d)", at.node, res.status)
		}
		return false, nil
	}

	// Phase 2: every live replica except the acting primary. A backup that
	// dies mid-commit is excused once the view excises it (fanOut).
	var backups []homeCall
	for i, home := 0, c.HomeNode(key); i < c.cfg.ReplicasPerShard; i++ {
		if node := (home + i) % c.cfg.Nodes; node != primary && view.Live(node) {
			backups = append(backups, homeCall{node, req})
		}
	}
	err = n.fanOut(backups, deadExcused, settle)
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
	// answered. It is the put's (or RMW's) serving access, counted where it
	// ran — a refused local apply executed nothing.
	res, err := awaitRPC(n.startAt(primary, req))
	switch {
	case !res.local:
		n.RemoteOps.Add(1)
	case res.status == rpcStatusOK:
		n.LocalOps.Add(1)
	}
	if err != nil {
		if !c.view.Load().Live(primary) {
			return false, errReplicaMoved
		}
		return false, err
	}
	_, err = settle(homeCall{primary, req}, res)
	return bounced, err
}
