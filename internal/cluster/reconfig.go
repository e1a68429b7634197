package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/timestamp"
)

// Incremental online hot-set reconfiguration (§4 under live traffic).
//
// The bootstrap path (Cluster.InstallHotSet) replaces every cache's table
// wholesale with the harness acting as an omniscient coordinator that reads
// peer state directly — fine before traffic starts, useless for adapting to
// shifting popularity while serving requests. ApplyHotSetDelta is the online
// path: it applies only the epoch delta, entirely over the RPC fabric, while
// client traffic keeps flowing.
//
// Demotions run a write-safe, read-safe dance per key:
//
//  1. freeze on every node — reads keep hitting (the cached value remains
//     the latest committed one), in-flight consistency traffic keeps
//     draining, but new writes are refused and their sessions retry;
//  2. collect — once a node's entry is quiescent (no outstanding Lin write,
//     not Invalid) its dirty value is snapshotted; the coordinator keeps the
//     highest-versioned one and flushes it to the key's home shard with
//     PutIfNewer semantics (rpcOpWriteback);
//  3. retire — every replica goes dark: reads miss to the home shard, which
//     now holds exactly the cached value. Only then may replicas drop their
//     copies — removing them one by one while others still served reads
//     would let a post-removal write at the home shard go unseen by the
//     remaining copies;
//  4. commit — the key is dropped from every cache; retrying writers now
//     miss and forward to the home shard, which already holds the
//     write-back, so a transition can neither lose a write nor let a stale
//     write-back clobber a post-demotion one.
//
// Promotions run the mirror-image dance: a frozen, valueless *placeholder*
// is installed on every node first (reads miss to the home shard, writes
// park), which pins the home value — no client put can reach the home shard
// past the placeholders, and a put whose cache probe predates them bounces
// off the home and re-executes — so the subsequent fetch of value+version
// cannot be overtaken by a racing write. The commit is two rounds: the
// fetched value is *filled* into every placeholder (readable, writes still
// held) and only then does every replica *unfreeze* — a write completing
// before global visibility would be lost on replicas still reading the home
// shard. The fetches are the only remote *data* transfers of an epoch
// change, O(Δ) of them instead of the O(k) a full reinstall would need.

// DeltaStats summarizes one incremental epoch change.
type DeltaStats struct {
	// Promoted counts keys newly installed in the caches; Demoted counts
	// keys dropped.
	Promoted, Demoted int
	// WriteBacks counts demoted keys whose dirty value was flushed home.
	WriteBacks int
	// HomeFetches counts per-key value fetches from home shards for
	// promotions — the O(Δ) remote cost of the incremental scheme (a full
	// reinstall pays O(k)). RemoteFetches is the subset that crossed the
	// fabric (keys not homed on the coordinating node).
	HomeFetches, RemoteFetches int
	// CollectRetries counts demotion collect probes that found an entry
	// still draining protocol traffic: parks on the driving node, Retry
	// answers from its peers.
	CollectRetries int
}

// ApplyHotSetDelta applies an epoch delta to the symmetric caches while the
// cluster keeps serving requests: demote keys leave every cache (dirty
// values written back to their home shards first), then promote keys are
// fetched from their home shards and installed everywhere. The node with id
// via drives the change over the RPC fabric (any node can; the caller's
// load balancer picks). Baselines without caches return zero stats.
func (c *Cluster) ApplyHotSetDelta(via int, promote, demote []uint64) (DeltaStats, error) {
	// One reconfiguration at a time: overlapping freezes of intersecting
	// key sets would deadlock each other's collect phases.
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	return c.applyDelta(via, promote, demote)
}

// ApplyHotSet reconfigures the caches to hold exactly target: the delta
// against the currently installed key set is computed under the
// reconfiguration lock (so concurrent callers cannot apply stale deltas)
// and applied incrementally. This is the one-call epoch change both
// KV.RefreshHotSet and the churn ablation drive. In member form, via must be
// the local node (any member can drive an epoch change, but only from
// itself); outside transitions the caches are symmetric, so the local view
// of the installed set is the deployment's view.
func (c *Cluster) ApplyHotSet(via int, target []uint64) (DeltaStats, error) {
	if c.cfg.System != CCKVS {
		return DeltaStats{}, nil
	}
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	n, err := c.viaNode(via)
	if err != nil {
		return DeltaStats{}, err
	}
	next := make(map[uint64]struct{}, len(target))
	var promote []uint64
	for _, k := range target {
		if _, dup := next[k]; dup {
			continue
		}
		next[k] = struct{}{}
		if !n.cache.Contains(k) {
			promote = append(promote, k)
		}
	}
	var demote []uint64
	for _, k := range n.cache.Keys() {
		if _, keep := next[k]; !keep {
			demote = append(demote, k)
		}
	}
	return c.applyDelta(via, promote, demote)
}

// viaNode resolves the node driving a reconfiguration; in member form only
// the local node can drive.
func (c *Cluster) viaNode(via int) (*Node, error) {
	n := c.nodes[via%c.cfg.Nodes]
	if n == nil {
		return nil, fmt.Errorf("cluster: node %d is not local to this member (only node %d can drive from here)", via, c.self)
	}
	return n, nil
}

// applyDelta runs the demotion then promotion phases; the caller holds
// reconfigMu. Keys homed on a node outside the membership view are dropped
// from the delta: a dead home can neither serve a promotion's fetch nor
// accept a demotion's write-back, so such keys keep their current placement
// — notably, hot keys homed on a dead node stay cached and keep serving —
// until the node rejoins.
func (c *Cluster) applyDelta(via int, promote, demote []uint64) (DeltaStats, error) {
	var st DeltaStats
	if c.cfg.System != CCKVS || (len(promote) == 0 && len(demote) == 0) {
		return st, nil
	}
	n, err := c.viaNode(via)
	if err != nil {
		return st, err
	}
	view := c.view.Load()
	if view.LiveCount() < c.cfg.Nodes {
		promote = c.liveHomedKeys(view, promote)
		demote = c.liveHomedKeys(view, demote)
	}
	if err := n.demoteKeys(demote, &st); err != nil {
		return st, err
	}
	if err := n.promoteKeys(promote, &st); err != nil {
		return st, err
	}
	return st, nil
}

// liveHomedKeys filters keys down to those with a live shard replica — the
// home node itself when unreplicated, any replica otherwise (a demotion can
// flush to, and a promotion can fetch from, the key's acting primary).
func (c *Cluster) liveHomedKeys(view *View, keys []uint64) []uint64 {
	kept := make([]uint64, 0, len(keys))
	for _, k := range keys {
		if c.primaryFor(k, view) >= 0 {
			kept = append(kept, k)
		}
	}
	return kept
}

// HotKeys returns the currently installed hot-set keys (the local node's
// view; caches are symmetric outside of transitions). Baselines return nil.
func (c *Cluster) HotKeys() []uint64 {
	if c.cfg.System != CCKVS {
		return nil
	}
	return c.LocalNode().cache.Keys()
}

// peerIDs lists every other *live* node of the deployment (present or
// remote): reconfiguration phases run against the membership view, so an
// epoch change completes even while a member is down — its cache rejoins
// empty and is reinstalled by the next hot-set install (README "Failure
// model").
func (n *Node) peerIDs() []uint8 {
	view := n.cluster.view.Load()
	peers := make([]uint8, 0, n.cluster.cfg.Nodes-1)
	for i := 0; i < n.cluster.cfg.Nodes; i++ {
		if uint8(i) != n.id && view.Live(i) {
			peers = append(peers, uint8(i))
		}
	}
	return peers
}

// controlCalls builds one key-only control entry per (peer, key).
func controlCalls(peers []uint8, op byte, keys []uint64) []homeCall {
	calls := make([]homeCall, 0, len(peers)*len(keys))
	for _, peer := range peers {
		for _, k := range keys {
			calls = append(calls, homeCall{int(peer), wireReq{op: op, key: k}})
		}
	}
	return calls
}

// controlAll runs one control phase: op for every key at every peer, every
// answer OK.
func (n *Node) controlAll(peers []uint8, op byte, keys []uint64) error {
	return n.fanOut(controlCalls(peers, op, keys), peersRequired, mustOK("control op"))
}

// demoteKeys runs the freeze → collect → write-back → retire → commit
// demotion for keys, driven from this node. A failure before the write-back
// aborts the demotion by unfreezing the keys everywhere; after it, the data
// is durable at the homes and the demotion rolls forward by dropping the
// keys (both best-effort on peers — the transport may be the reason for the
// failure; writers additionally bound their ErrFrozen parks, so even a
// stranded freeze cannot hang them).
func (n *Node) demoteKeys(keys []uint64, st *DeltaStats) (err error) {
	if len(keys) == 0 {
		return nil
	}
	peers := n.peerIDs()
	wroteBack := false
	defer func() {
		if err == nil {
			return
		}
		if wroteBack {
			// The dirty values are durable at the home shards: roll the
			// demotion forward by dropping the keys (best-effort on peers).
			n.cache.Remove(keys)
			_ = n.controlAll(peers, rpcOpDemoteCommit, keys)
			return
		}
		// Nothing flushed yet: abort by unfreezing everywhere; the hot set
		// stays as it was.
		n.cache.Unfreeze(keys)
		_ = n.controlAll(peers, rpcOpUnfreeze, keys)
	}()

	// Phase 1: freeze everywhere. Only once every node refuses new writes
	// for these keys is the set of in-flight writes finite, which is what
	// makes the collect phase terminate.
	n.cache.Freeze(keys)
	if err := n.controlAll(peers, rpcOpDemoteFreeze, keys); err != nil {
		return fmt.Errorf("demote freeze: %w", err)
	}

	// Phase 2: collect each node's dirty value once its entry drained. The
	// highest version per key wins; every value a client ever saw as
	// committed is dirty at the node that applied it, so the winner is
	// always collected somewhere.
	best := make(map[uint64]core.WriteBack, len(keys))
	merge := func(wb core.WriteBack) {
		if cur, ok := best[wb.Key]; !ok || wb.TS.After(cur.TS) {
			best[wb.Key] = wb
		}
	}
	for _, k := range keys {
		for {
			wb, dirty, stall := n.cache.CollectFrozen(k)
			if stall == nil {
				if dirty {
					merge(wb)
				}
				break
			}
			// This node's own write or an awaited update is still in flight:
			// park until the entry changes, like any op the entry refuses.
			st.CollectRetries++
			if err := n.park(k, stall); err != nil {
				return fmt.Errorf("demote collect: %w", err)
			}
		}
	}
	// Remote collects run in overlapped rounds: every still-draining
	// (peer, key) pair is re-probed together.
	err = n.fanOut(controlCalls(peers, rpcOpDemoteCollect, keys), peersRequired, func(c homeCall, res rpcResult) (bool, error) {
		switch res.status {
		case rpcStatusOK:
			merge(core.WriteBack{Key: c.req.key, Value: res.value, TS: res.ts})
		case rpcStatusNotFound: // clean entry: nothing to flush
		case rpcStatusRetry:
			st.CollectRetries++
			return true, nil
		default:
			return false, fmt.Errorf("cluster: refused by node %d (status %d)", c.node, res.status)
		}
		return false, nil
	})
	if err != nil {
		return fmt.Errorf("demote collect: %w", err)
	}

	// Phase 3: flush the winning dirty values to every live shard replica
	// before any cache drops the keys — a post-demotion miss routes to the
	// key's acting primary, which must hold a copy at least as new as
	// anything the caches ever committed (with replication, so must the
	// backups, or the next promotion would resurrect the pre-cache value).
	var flush []homeCall
	view := n.cluster.view.Load()
	for _, wb := range best {
		for _, node := range ReplicasOf(wb.Key, n.cluster.cfg.Nodes, n.cluster.cfg.ReplicasPerShard) {
			if view.Live(node) { // a dead replica is re-seeded on rejoin
				flush = append(flush, homeCall{node, wireReq{op: rpcOpWriteback, key: wb.Key, ts: wb.TS, value: wb.Value}})
			}
		}
	}
	if err := n.fanOut(flush, deadExcused, mustOK("writeback")); err != nil {
		return fmt.Errorf("demote writeback: %w", err)
	}
	st.WriteBacks += len(best)
	wroteBack = true

	// Phase 4: retire — every replica goes dark (reads miss to the home
	// shard, which now holds exactly the cached value; writes stay frozen)
	// before any replica drops its copy. Without this barrier a write
	// landing at the home shard right after the home's own removal would be
	// invisible to readers of the remaining cached copies — a stale read
	// past the write-back.
	n.cache.Retire(keys)
	if err := n.controlAll(peers, rpcOpDemoteRetire, keys); err != nil {
		return fmt.Errorf("demote retire: %w", err)
	}

	// Phase 5: commit — drop the keys everywhere. Writers parked on
	// ErrFrozen now miss and forward to the home shards.
	if err := n.controlAll(peers, rpcOpDemoteCommit, keys); err != nil {
		return fmt.Errorf("demote commit: %w", err)
	}
	st.Demoted += n.cache.Remove(keys)
	return nil
}

// promoteKeys runs the prepare → fetch → commit promotion for keys, driven
// from this node: placeholders freeze the keys' write paths everywhere,
// then each key's value+version is fetched from its now-stable home shard
// (the O(Δ) remote fetches of the epoch change), then the placeholders
// commit to live entries. Placeholders that cannot be filled — the key does
// not exist, or the transport failed mid-flight — are rolled back so no
// key is left permanently frozen.
func (n *Node) promoteKeys(keys []uint64, st *DeltaStats) (err error) {
	if len(keys) == 0 {
		return nil
	}
	peers := n.peerIDs()

	// Phase 1: placeholders everywhere. After this barrier every write to a
	// promoted key parks (reads miss to the home shard as before), so the
	// home values are stable until the commit.
	n.cache.AddPending(keys)
	if perr := n.controlAll(peers, rpcOpPromotePrepare, keys); perr != nil {
		err = fmt.Errorf("promote prepare: %w", perr)
	}
	committed := make(map[uint64]struct{}, len(keys))
	defer func() {
		// Roll back whatever did not fully commit — a leftover placeholder
		// would freeze the key's writers forever, and a key committed on
		// only a subset of nodes would break cache symmetry. The rollback
		// is the demotion dance itself: a no-op for placeholders, a
		// write-back-preserving removal for entries some nodes (and their
		// clients) already started using. Best-effort — the transport may
		// be the reason we are rolling back.
		var abort []uint64
		for _, k := range keys {
			if _, ok := committed[k]; !ok {
				abort = append(abort, k)
			}
		}
		if len(abort) == 0 {
			return
		}
		var rollback DeltaStats
		_ = n.demoteKeys(abort, &rollback)
	}()
	if err != nil {
		return err
	}

	// Phase 2: fetch value+version from each key's acting primary (the home
	// shard itself when unreplicated).
	type fetched struct {
		val []byte
		ts  timestamp.TS
	}
	vals := make(map[uint64]fetched, len(keys))
	view := n.cluster.view.Load()
	var fetch []homeCall
	for _, k := range keys {
		// A key that lost its last replica mid-delta has no primary; its
		// placeholder rolls back.
		if primary := n.cluster.primaryFor(k, view); primary >= 0 {
			fetch = append(fetch, homeCall{primary, wireReq{op: rpcOpPromoteFetch, key: k}})
		}
	}
	// Overlapped rounds: a Retry answer means the primary — this node
	// included — is still re-syncing after a rejoin (its seed streams settle,
	// then its gate clears — or it dies and the view moves on).
	err = n.fanOut(fetch, peersRequired, func(c homeCall, res rpcResult) (bool, error) {
		switch res.status {
		case rpcStatusRetry:
			return true, nil
		case rpcStatusOK:
			vals[c.req.key] = fetched{val: res.value, ts: res.ts}
		}
		// NotFound: the key does not exist at its home; its placeholder is
		// rolled back — an uncached nonexistent key behaves identically
		// either way.
		st.HomeFetches++
		if !res.local {
			st.RemoteFetches++
		}
		return false, nil
	})
	if err != nil {
		return fmt.Errorf("promotion fetch: %w", err)
	}

	// Phase 3: fill the placeholders everywhere — reads start hitting the
	// fetched value, but writes stay frozen: a write completing at an
	// early-filled replica would be invisible to readers on replicas still
	// missing to the home shard.
	install := make([]uint64, 0, len(keys))
	for _, k := range keys {
		if _, ok := vals[k]; ok {
			install = append(install, k)
		}
	}
	if len(install) == 0 {
		return nil
	}
	fill := controlCalls(peers, rpcOpPromote, install)
	for i := range fill {
		f := vals[fill[i].req.key]
		fill[i].req.ts, fill[i].req.value = f.ts, f.val
	}
	if err := n.fanOut(fill, peersRequired, mustOK("promotion")); err != nil {
		return fmt.Errorf("promotion install: %w", err)
	}
	for _, k := range install {
		f := vals[k]
		if n.cache.FillAdd(k, f.val, f.ts) {
			st.Promoted++
		} else {
			// The key was already live locally (promotion of a cached key
			// is a no-op elsewhere too).
			st.Promoted += n.cache.Add([]uint64{k}, func(uint64) ([]byte, timestamp.TS, bool) {
				return f.val, f.ts, true
			})
		}
	}

	// Phase 4: unfreeze everywhere — every replica serves the value now, so
	// writes may resume.
	if uerr := n.controlAll(peers, rpcOpUnfreeze, install); uerr != nil {
		return fmt.Errorf("promotion unfreeze: %w", uerr)
	}
	n.cache.Unfreeze(install)
	for _, k := range install {
		committed[k] = struct{}{}
	}
	return nil
}
