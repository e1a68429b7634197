package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/timestamp"
	"repro/internal/wire"
)

// Membership views: the cluster-wide answer to "who is alive", threaded
// through every layer that used to assume fixed membership.
//
// A View is an epoch-stamped live-member set. Node failure enters the system
// as a transport-level signal — a broken TCP connection
// (fabric.TCPTransport.SetPeerDownHandler) or ping-based suspicion (the
// prober below, which also covers in-process transports, where nothing
// "breaks" when a member dies) — and PeerDown promotes it into a view
// change:
//
//   - the view's epoch advances and the peer leaves the live set;
//   - every RPC pending toward the peer fails (rpcClient.failPeer), and the
//     requests still queued in the coalescing pipeline fail when their
//     sender finds the credit budget gone;
//   - the per-worker credit budgets toward the peer are dropped
//     (fabric.Credits.Drop) — outstanding credits are destroyed with the
//     budget, blocked senders wake and skip the peer;
//   - the symmetric cache recomputes every outstanding Lin write's required
//     ack set against the new view (core.Cache.SetLive) and the writes whose
//     remaining required acks are already in complete immediately, waking
//     their blocked sessions;
//   - SC/Lin broadcast fan-out shrinks to the live view
//     (broadcastConsistency checks it per peer);
//   - operations on keys homed on the dead node fail fast with ErrHomeDown
//     at the session layer instead of timing out;
//   - the new view is gossiped to the surviving peers (one change packet per
//     live peer, re-forwarded only by receivers whose view it changed), so a
//     failure detected by one survivor reaches all of them.
//
// Rejoin is the mirror image: the prober keeps pinging down peers, and a
// pong from one (a restarted process, or a false suspicion healing) brings
// it back — budgets re-armed, view re-grown, home-down errors clear. The
// rejoined node's shard holds whatever it re-populated and its cache is
// empty until the next hot-set install; see README "Failure model".

// View is one epoch of the membership. Views are immutable; the cluster
// swaps a fresh pointer on every change.
type View struct {
	// Epoch counts local view changes (monotonic per process; epochs are not
	// globally agreed — the live set converges via gossip, the epoch is an
	// observability handle).
	Epoch uint64
	live  core.NodeSet
	n     int
}

// Live reports whether node is in the view's live set.
func (v *View) Live(node int) bool {
	return node >= 0 && node < v.n && v.live.Has(uint8(node))
}

// LiveCount returns the number of live members.
func (v *View) LiveCount() int { return v.live.Count() }

// Down lists the excised node ids in ascending order.
func (v *View) Down() []int {
	var down []int
	for i := 0; i < v.n; i++ {
		if !v.live.Has(uint8(i)) {
			down = append(down, i)
		}
	}
	return down
}

// View returns the current membership view.
func (c *Cluster) View() *View { return c.view.Load() }

// SetViewHandler installs a callback invoked after every applied view change
// (observability: cckvs-node logs flips). Set before traffic starts.
func (c *Cluster) SetViewHandler(f func(*View)) {
	c.viewMu.Lock()
	c.onView = f
	c.viewMu.Unlock()
}

// errGossipDown is the cause recorded for failures learned from a peer's
// view-change message rather than local detection.
var errGossipDown = errors.New("reported down by peer view change")

// PeerDown promotes a transport-level failure signal into a cluster-wide
// membership view change: peer leaves the live view, every layer holding
// per-peer state is reconfigured — pending AND queued RPCs toward the peer
// fail, its credit budgets are dropped (blocked senders wake), Lin ack
// waiters recompute their required ack set and complete when satisfied,
// session operations on keys homed there start failing fast with ErrHomeDown
// — and the new view is gossiped to the surviving peers. Transports that can
// detect a dead peer (TCPTransport.SetPeerDownHandler) call it directly; the
// ping prober calls it on suspicion timeout. Idempotent: a peer already out
// of the view is a no-op.
func (c *Cluster) PeerDown(peer uint8, cause error) {
	c.applyDown(peer, cause, true)
}

// applyDown performs the view flip and its side effects; gossip controls
// whether the change is forwarded to the live peers (true for local
// detection and for changes that moved our view — dampening comes from the
// idempotence check, so gossip storms die after one round). The side
// effects run under viewMu: two concurrent transitions (prober vs TCP
// handler, down vs up) must apply their SetLive/budget changes in the same
// order they swapped the view pointer, or the consistency layer's live set
// and the budgets drift permanently out of sync with the cluster view.
// Everything done under the lock is non-blocking (posted updates, short
// entry spinlocks); blocking work (the resurrection writes,
// gossip sends) happens after release.
func (c *Cluster) applyDown(peer uint8, cause error, gossip bool) {
	if int(peer) >= c.cfg.Nodes {
		return // ephemeral session clients are not members
	}
	if c.member && int(peer) == c.self {
		return // we are evidently alive
	}
	c.viewMu.Lock()
	v := c.view.Load()
	if !v.Live(int(peer)) {
		c.viewMu.Unlock()
		return
	}
	nv := &View{Epoch: v.Epoch + 1, live: v.live.Without(peer), n: v.n}
	c.view.Store(nv)

	if cause == nil {
		cause = errors.New("unspecified cause")
	}
	err := fmt.Errorf("cluster: peer node %d down (%w): %v", peer, ErrNodeDown, cause)
	var resurrect []resurrectWrite
	for _, n := range c.locals {
		for _, wk := range n.workers {
			// Dropping the budgets first wakes senders blocked on credits the
			// dead peer can never return; failPeer then completes the calls
			// already on the wire.
			wk.credits.Drop(fabric.Addr{Node: peer, Thread: c.cfg.cacheThread(wk.idx)})
			wk.credits.Drop(fabric.Addr{Node: peer, Thread: c.cfg.kvsThread(wk.idx)})
			wk.rpc.failPeer(peer, err)
			// RMW pins whose origin died can never be committed or cleared
			// by it; release them so RMWs on those keys stop bouncing.
			// homeMu is never held across a blocking call, so taking it
			// under viewMu cannot deadlock.
			wk.homeMu.Lock()
			for key, pin := range wk.rmwPins {
				if pin.origin == peer {
					wk.unpinLocked(key)
				}
			}
			wk.homeMu.Unlock()
		}
		if n.cache != nil {
			// Lin ack waiters counting the dead peer: complete every write
			// whose remaining required acks are in and wake its session.
			for _, upd := range n.cache.SetLive(nv.live) {
				n.completeLinWrite(upd)
			}
			// Entries the dead peer's own in-flight write left Invalid can
			// never receive their update; re-validate them so readers do not
			// stay parked on a state only the dead writer could clear. Healed keys
			// holding a local acknowledged-but-superseded write must be
			// re-published — discarding them would lose a write whose client
			// was told it succeeded.
			_, orphans := n.cache.DiscardOrphanedInvalidations(peer)
			for _, u := range orphans {
				resurrect = append(resurrect, resurrectWrite{n: n, key: u.Key, value: u.Value})
			}
		}
	}
	onView := c.onView
	c.viewMu.Unlock()

	for _, r := range resurrect {
		// Full write protocol on its own goroutine (a Lin re-publish blocks
		// on the live replicas' acks): the fresh timestamp dominates the
		// dead winner's, so every replica re-converges on the acknowledged
		// value.
		r := r
		go func() { _ = r.n.Put(r.key, r.value) }()
	}
	// A dead peer can no longer finish a seed stream it started toward this
	// member; release its share of the re-sync gate.
	c.removeSyncSource(peer)
	if gossip {
		c.broadcastView(peer)
	}
	if onView != nil {
		onView(nv)
	}
}

// resurrectWrite is an acknowledged-but-superseded local write whose winner
// died unpublished; it is re-driven through the normal write path.
type resurrectWrite struct {
	n     *Node
	key   uint64
	value []byte
}

// PeerUp returns a previously excised peer to the live view — the rejoin
// path, driven by the prober when a down peer answers a ping again (a
// restarted process, or a false suspicion healing). Credit budgets are
// re-armed and the consistency layer's live set grows; in-flight Lin writes
// are unaffected (a joining peer received no invalidation, so it is never
// added to their requirements). Idempotent.
func (c *Cluster) PeerUp(peer uint8) {
	if int(peer) >= c.cfg.Nodes {
		return
	}
	c.viewMu.Lock()
	v := c.view.Load()
	if v.Live(int(peer)) {
		c.viewMu.Unlock()
		return
	}
	nv := &View{Epoch: v.Epoch + 1, live: v.live.With(peer), n: v.n}
	c.view.Store(nv)
	// Side effects under viewMu, like applyDown: a rejoin racing an excision
	// must not re-arm budgets before (or after) the wrong SetLive.
	for _, n := range c.locals {
		for _, wk := range n.workers {
			wk.credits.SetBudget(fabric.Addr{Node: peer, Thread: c.cfg.cacheThread(wk.idx)}, c.cfg.CreditsPerPeer)
			wk.credits.SetBudget(fabric.Addr{Node: peer, Thread: c.cfg.kvsThread(wk.idx)}, c.cfg.CreditsPerPeer)
		}
		if n.cache != nil {
			n.cache.SetLive(nv.live)
		}
	}
	onView := c.onView
	c.viewMu.Unlock()
	if onView != nil {
		onView(nv)
	}
}

// Kill models this member's process dying abruptly (chaos tests on
// in-process transports, where no connection breaks when a member goes): the
// member stops answering every fabric message — consistency traffic, KVS
// requests, session requests, pings — so its peers' suspicion timers fire.
// Local callers with operations in flight are treated like threads of a dead
// process: pending RPCs fail, and so does every caller parked on a cache entry
// or on its own Lin write's acks. Member form only; Close still tears the transport down afterwards.
func (c *Cluster) Kill() {
	if c.killed.Swap(true) {
		return
	}
	c.stopOnce.Do(func() { close(c.stop) })
	c.stopProber()
	for _, n := range c.locals {
		for _, wk := range n.workers {
			// Drop every credit budget FIRST: once killed, the handlers
			// discard the responses and credit updates that would otherwise
			// wake a sender blocked in Acquire — and pipe.close() below
			// waits for exactly those senders, so skipping this deadlocks
			// the kill.
			for peer := 0; peer < c.cfg.Nodes; peer++ {
				if peer == int(n.id) {
					continue
				}
				wk.credits.Drop(fabric.Addr{Node: uint8(peer), Thread: c.cfg.cacheThread(wk.idx)})
				wk.credits.Drop(fabric.Addr{Node: uint8(peer), Thread: c.cfg.kvsThread(wk.idx)})
			}
			wk.pipe.close()
			wk.con.close()
			wk.rpc.failAll(fmt.Errorf("cluster: member killed (%w)", ErrNodeDown))
		}
	}
}

// The view wire protocol, on the dedicated threadView endpoint:
//
//	ping:   op(1)=0          — answered with a pong (liveness probe)
//	pong:   op(1)=1          — records the sender as alive
//	change: op(1)=2 peer(1)  — one NEWLY-excised member (a delta, not the
//	                           sender's absolute down-set: an absolute set
//	                           would replay stale membership — a survivor
//	                           that had not yet re-admitted a rejoined peer
//	                           would re-excise it cluster-wide with every
//	                           later gossip). Receivers whose view the delta
//	                           moves forward it once; already-known deltas
//	                           are dropped, so storms die after one round.
//
// Two further messages drive the replicated rejoin re-seed (reseed below):
//
//	seed-begin: op(1)=3 — the sender is about to stream shard seeds at the
//	                      receiver; the receiver gates its acting-primary
//	                      serving (stamps, reads, fetches answer Retry)
//	                      until the matching seed-done, so no client
//	                      observes its pre-rejoin state.
//	seed-done:  op(1)=4 — the sender's seed stream has fully settled.
const (
	viewMsgPing      byte = 0
	viewMsgPong      byte = 1
	viewMsgChange    byte = 2
	viewMsgSeedBegin byte = 3
	viewMsgSeedDone  byte = 4
)

// handleView serves the membership endpoint. A killed member drops
// everything — that silence is exactly what its peers' suspicion detects.
func (c *Cluster) handleView(p fabric.Packet) {
	r := wire.NewReader(p.Data)
	kind := r.U8()
	if c.killed.Load() || !r.Ok() {
		return
	}
	switch kind {
	case viewMsgPing:
		c.sendView(p.Src.Node, viewMsgPong)
	case viewMsgPong:
		peer := int(p.Src.Node)
		if peer < len(c.lastPong) {
			c.lastPong[peer].Store(time.Now().UnixNano())
			if !c.view.Load().Live(peer) {
				if c.replicated() {
					// Re-seed the rejoiner from this member's shard before
					// re-admitting it (blocking work; own goroutine).
					c.reseedThenAdmit(p.Src.Node)
				} else {
					c.PeerUp(p.Src.Node)
				}
			}
		}
	case viewMsgChange:
		downed := r.U8()
		if !r.Ok() {
			return
		}
		// Forwarding (gossip=true) propagates asymmetric detection;
		// receivers that already knew apply nothing and forward nothing, so
		// the storm dies after one round.
		c.applyDown(downed, errGossipDown, true)
	case viewMsgSeedBegin:
		c.addSyncSource(p.Src.Node)
	case viewMsgSeedDone:
		c.removeSyncSource(p.Src.Node)
	}
}

// resyncing reports whether the re-sync gate is armed: one atomic load.
func (c *Cluster) resyncing() bool { return c.syncGate.Load() != nil }

// resyncWait returns a channel closed when the re-sync gate opens, nil when it
// is open. It is taken under syncMu, the lock every arm and clear holds, so a
// waiter either sees the gate open or holds the channel the clear will close.
func (c *Cluster) resyncWait() <-chan struct{} {
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	if g := c.syncGate.Load(); g != nil {
		return *g
	}
	return nil
}

// addSyncSource arms the rejoin re-sync gate: a survivor announced a seed
// stream toward this member. While any source is active, the member answers
// acting-primary traffic (reads, put stamps, promotion fetches, RMWs) with
// Retry and its own such operations park on the gate — its shard may still
// hold pre-crash state.
func (c *Cluster) addSyncSource(peer uint8) {
	if !c.replicated() || int(peer) >= c.cfg.Nodes {
		return
	}
	c.syncMu.Lock()
	c.syncSources[peer] = struct{}{}
	if c.syncGate.Load() == nil {
		g := make(chan struct{})
		c.syncGate.Store(&g)
	}
	c.syncMu.Unlock()
	// A seed stream means this member was excised and is being re-admitted:
	// every RMW pin predates the excision, and each pin's origin has either
	// committed already or failed against the excised us — none will ever
	// send the clear. Drop them so the re-admitted primary can stamp again.
	if n := c.LocalNode(); n != nil {
		for _, wk := range n.workers {
			wk.homeMu.Lock()
			for key := range wk.rmwPins {
				wk.unpinLocked(key)
			}
			wk.homeMu.Unlock()
		}
	}
}

// removeSyncSource clears one seeder — its seed-done arrived, or it died
// (applyDown calls this so a dead seeder cannot wedge the gate forever). The
// last one opens the gate, then releases everyone parked on it: a woken
// waiter never finds the gate still armed.
func (c *Cluster) removeSyncSource(peer uint8) {
	c.syncMu.Lock()
	if _, ok := c.syncSources[peer]; ok {
		delete(c.syncSources, peer)
		if len(c.syncSources) == 0 {
			close(*c.syncGate.Swap(nil))
		}
	}
	c.syncMu.Unlock()
}

// reseedThenAdmit re-seeds a rejoining replica from this member's shard and
// then re-admits it to the view, at most once concurrently per peer. The
// push happens on its own goroutine — it blocks on per-key RPCs, and this
// is called from the view dispatcher.
func (c *Cluster) reseedThenAdmit(peer uint8) {
	c.reseedMu.Lock()
	if c.reseeding[peer] {
		c.reseedMu.Unlock()
		return
	}
	c.reseeding[peer] = true
	c.reseedMu.Unlock()
	c.reseedWG.Add(1)
	go func() {
		defer c.reseedWG.Done()
		defer func() {
			c.reseedMu.Lock()
			delete(c.reseeding, peer)
			c.reseedMu.Unlock()
		}()
		c.reseed(peer)
	}()
}

// reseed pushes every key this member served as acting primary while peer
// was down (and for which peer holds a replica) back at peer, then declares
// the stream settled. The order is what makes it safe:
//
//  1. seed-begin — arms the rejoiner's re-sync gate, so it answers Retry to
//     every acting-primary op (critically including put stamps: a stamp
//     taken against its pre-crash clock could fall below timestamps this
//     member handed out while acting as its stand-in, silently losing the
//     acked write carrying it).
//  2. PeerUp — re-admits the peer locally FIRST, so the credit budgets and
//     pipeline toward it exist for the push itself; the gate, not the view,
//     is what keeps its stale state unobservable. The push set is selected
//     against the pre-rejoin view (this member pushes exactly the shards it
//     was acting primary FOR while the peer was away), but the values are
//     read after the flip, so writes racing the rejoin are included.
//  3. the push — ordinary write-backs (PutIfNewer): a seed never regresses
//     a value the rejoiner obtained more recently through a replicated
//     commit of new traffic.
//  4. seed-done — the gate disarms (this seeder's share of it).
//
// Residual window, documented rather than solved: a peer that flips its own
// view before every OTHER survivor's seed stream lands can route a stamp to
// the rejoiner while a second seeder is still pushing; the gate is per-
// rejoiner (any active source holds it), so this requires the stamp to
// overtake that seeder's seed-begin in flight — possible only on transports
// without cross-thread ordering, and bounded by one queue drain.
func (c *Cluster) reseed(peer uint8) {
	oldView := c.view.Load()
	if oldView.Live(int(peer)) {
		return // raced another admission; nothing was missed
	}
	n := c.LocalNode()
	self := int(c.localID())
	c.sendView(peer, viewMsgSeedBegin)
	c.PeerUp(peer)
	defer c.sendView(peer, viewMsgSeedDone)

	var seeds []homeCall
	for pi := 0; pi < n.kvs.NumPartitions(); pi++ {
		n.kvs.Partition(pi).Range(func(key uint64, value []byte, ts timestamp.TS) bool {
			if c.primaryFor(key, oldView) == self && c.isReplica(key, int(peer)) {
				seeds = append(seeds, homeCall{int(peer), wireReq{op: rpcOpWriteback, key: key, ts: ts, value: append([]byte(nil), value...)}})
			}
			return true
		})
	}
	// Push through the ordinary coalescing pipeline, a bounded window of
	// calls in flight. Push errors are not retried here: the peer either
	// died again (its own PeerDown clears the rejoiner gate) or the
	// deployment is closing.
	const seedWindow = 128
	for len(seeds) > 0 {
		window := seeds[:min(seedWindow, len(seeds))]
		_ = n.fanOut(window, peersRequired, mustOK("seed"))
		seeds = seeds[len(window):]
	}
}

// sendView sends one membership message to peer's view thread.
func (c *Cluster) sendView(peer uint8, msg ...byte) {
	_ = c.transport.Send(fabric.Packet{
		Src:   fabric.Addr{Node: c.localID(), Thread: threadView},
		Dst:   fabric.Addr{Node: peer, Thread: threadView},
		Class: metrics.ClassFlowControl,
		Data:  msg,
	})
}

// broadcastView tells every live peer that `downed` just left the view.
func (c *Cluster) broadcastView(downed uint8) {
	v := c.view.Load()
	for peer := 0; peer < c.cfg.Nodes; peer++ {
		if peer != int(c.localID()) && v.Live(peer) {
			c.sendView(uint8(peer), viewMsgChange, downed)
		}
	}
}

// localID returns the fabric node id view traffic originates from.
func (c *Cluster) localID() uint8 {
	if c.member {
		return uint8(c.self)
	}
	return 0
}

// startProber launches the ping-based failure detector (member form, when
// Config.PingInterval > 0): every interval it pings each peer — including
// down ones, which is what detects rejoin — and excises any live peer whose
// last pong is older than Config.PingTimeout.
func (c *Cluster) startProber() {
	if !c.member || c.cfg.PingInterval <= 0 {
		return
	}
	now := time.Now().UnixNano()
	for i := range c.lastPong {
		c.lastPong[i].Store(now) // grace period: nobody is suspect at start
	}
	c.probeStop = make(chan struct{})
	c.probeWG.Add(1)
	go func() {
		defer c.probeWG.Done()
		tick := time.NewTicker(c.cfg.PingInterval)
		defer tick.Stop()
		for {
			select {
			case <-c.probeStop:
				return
			case <-tick.C:
			}
			if c.killed.Load() {
				continue
			}
			self := c.localID()
			deadline := time.Now().Add(-c.cfg.PingTimeout).UnixNano()
			for peer := 0; peer < c.cfg.Nodes; peer++ {
				if peer == int(self) {
					continue
				}
				c.sendView(uint8(peer), viewMsgPing)
				if c.view.Load().Live(peer) && c.lastPong[peer].Load() < deadline {
					c.PeerDown(uint8(peer), fmt.Errorf("no pong for %v (ping suspicion)", c.cfg.PingTimeout))
				}
			}
		}
	}()
}

// stopProber halts the failure detector; safe to call twice.
func (c *Cluster) stopProber() {
	c.probeMu.Lock()
	if c.probeStop != nil && !c.probeStopped {
		c.probeStopped = true
		close(c.probeStop)
	}
	c.probeMu.Unlock()
	c.probeWG.Wait()
}
