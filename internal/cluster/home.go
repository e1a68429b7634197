package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/timestamp"
)

// What a node does as a key's home shard, acting primary or RMW serialization
// point. The NUMA abstraction (§6.1–6.2) makes a miss the same operation on
// the key's home whether the home is this node or a peer, so each such
// operation has ONE body here — a step over decoded arguments answering an
// rpc status (with a stamp and a value where the op has them) — and two ways
// in. serveRequest (rpc.go) runs it on a KVS dispatcher for a peer and appends
// the answer to the response packet; startAt, below, is the one place a
// multi-target protocol (replicated put, RMW exchange, pin clear,
// reconfiguration fetch and write-back) decides between this node and the
// wire, and runs the step in place when the target is this node. The
// executor's hot path — a cold put homed here — calls homePut directly.
//
// What every step keeps:
//   - No step ever waits for its refusal to end: it answers Retry, and only
//     the origin of the client operation parks on what refused it (ops.go:
//     park) — a KVS dispatcher, running a step for a peer, never parks.
//   - homeMu is never held across anything that waits (a lane, a peer, an
//     ack, a park): a view change takes it under viewMu, and a KVS dispatcher
//     that waited on a peer under it would deadlock two nodes on each other.
//   - A step run on a KVS dispatcher (mayBlock=false) never blocks on a
//     consistency lane: it posts (startLinWrite(inv, false)).
//   - A step counts nothing. LocalOps, RemoteOps, CacheHits and the retry
//     counters belong to the origin of the client operation (exec.go,
//     replicate.go), which reads rpcResult.local and rpcResult.stall to count
//     a step that ran in place exactly as it counts an answer off the wire.
//
// The stale-probe rule shared by the write steps: a put, stamp, commit or
// cold RMW for a key this node currently caches proves the sender's cache
// probe predates the key (re)entering the hot set; it is refused with Retry
// and re-executes through the cache protocol. The check and the shard access
// run under the key's worker homeMu, which homeFetch holds while it reads
// the shard for a promotion — so no miss-path write can slip into the shard
// between the promotion's placeholder barrier and its fetch, whichever node
// drives the promotion and however the transport lays out its dispatchers.

// rmwPin records a stamped-but-uncommitted cold replicated RMW at the acting
// primary: origin is the node driving the commit, ts the stamp it must
// carry. Guarded by the key's worker homeMu (see worker.rmwPins).
type rmwPin struct {
	origin uint8
	ts     timestamp.TS
}

// unpinLocked deletes key's RMW pin and releases every RMW of this node parked
// on one of wk's pins, to re-run and re-check its own key. Every pin deletion —
// homeCommit, homeClearPin, applyDown's dead-origin clear, addSyncSource's
// re-seed clear — comes here with homeMu held, which pinWait takes too.
func (wk *worker) unpinLocked(key uint64) {
	delete(wk.rmwPins, key)
	if wk.pinWake != nil {
		close(wk.pinWake)
		wk.pinWake = nil
	}
}

// pinWait returns a channel closed at the next release of one of wk's pins,
// or nil when key is not pinned (any more).
func (wk *worker) pinWait(key uint64) <-chan struct{} {
	wk.homeMu.Lock()
	defer wk.homeMu.Unlock()
	if _, pinned := wk.rmwPins[key]; !pinned {
		return nil
	}
	if wk.pinWake == nil {
		wk.pinWake = make(chan struct{})
	}
	return wk.pinWake
}

// homeCall is one call of a multi-target protocol: a request and the node it
// goes to, which may be this one.
type homeCall struct {
	node int
	req  wireReq
}

// startAt starts q at target and returns the channel its answer arrives on
// (awaitRPC). A peer gets it over the coalescing pipeline; when target is this
// node the step runs here and now, on the caller's stack — the answer is
// already on the channel, marked local, and cannot have failed in transport
// (err is never set), so only what follows a local step, never the step
// itself, can leave an RMW's outcome unknown.
func (n *Node) startAt(target int, q wireReq) chan rpcResult {
	if target != int(n.id) {
		return n.workerFor(q.key).rpc.start(uint8(target), q)
	}
	sc := scratchPool.Get().(*srvBuf)
	res := n.homeStep(n.id, &q, sc, true)
	res.local = true
	res.value = append([]byte(nil), res.value...) // may alias sc
	scratchPool.Put(sc)
	ch := resChPool.Get().(chan rpcResult)
	ch <- res
	return ch
}

// What a transport failure means to a phase once the view has excised the
// peer it came from (fanOut's dead argument): an error with peersRequired —
// the phase's caller rolls back; nothing with deadExcused — a dead replica is
// no longer required, it is re-seeded on rejoin. From a live peer, an error.
const (
	peersRequired = false
	deadExcused   = true
)

// fanOut runs one phase of a multi-target protocol: it starts every call (all
// in flight at once, coalesced per destination by the pipeline, so a phase
// costs one overlapped round instead of one round trip per peer — the freeze
// window client writes are parked for must not grow with the node count),
// awaits every answer, and hands each to settle, which says what the answer
// means in this phase: an error, or again=true for "not yet" (the call is
// re-issued in the next round, with every other such call). Every answer of a
// round is awaited even after a failure; the first error then ends the
// fan-out. Rounds are not counted: each one either parked on what refused a
// step run in place (its res.stall — the re-sync gate, the only local "not
// yet" a fan-out meets) or crossed the wire, and what a peer's "not yet" waits
// for — an entry draining, a re-seed settling, a write completing — ends, or
// the peer leaves the view and the call fails in transport.
func (n *Node) fanOut(calls []homeCall, dead bool, settle func(c homeCall, res rpcResult) (again bool, err error)) error {
	chs := make([]chan rpcResult, len(calls))
	for len(calls) > 0 {
		for i, c := range calls {
			chs[i] = n.startAt(c.node, c.req)
		}
		var firstErr, stall error // stall: what refused a call run in place
		var stallKey uint64
		next := calls[:0]
		for i, c := range calls {
			res, err := awaitRPC(chs[i])
			again := false
			if err == nil {
				again, err = settle(c, res)
			} else if dead == deadExcused && !n.cluster.view.Load().Live(c.node) {
				continue
			}
			if err != nil && firstErr == nil {
				firstErr = err
			} else if again {
				next = append(next, c)
				if res.stall != nil {
					stall, stallKey = res.stall, c.req.key
				}
			}
		}
		switch {
		case firstErr != nil:
			return firstErr
		case stall != nil:
			if err := n.park(stallKey, stall); err != nil {
				return err
			}
		case len(next) > 0:
			// What a peer's "not yet" waits for cannot wake us; each round re-issues
			// RPCs, the yield only lets this node's dispatchers in between two.
			yield()
		}
		calls = next
	}
	return nil
}

// mustOK is the settle of a phase in which every answer must be OK.
func mustOK(phase string) func(homeCall, rpcResult) (bool, error) {
	return func(c homeCall, res rpcResult) (bool, error) {
		if res.status != rpcStatusOK {
			return false, fmt.Errorf("cluster: %s refused by node %d (status %d)", phase, c.node, res.status)
		}
		return false, nil
	}
}

// homeStep runs the home-shard request q, sent by node src, at this node.
// mayBlock says the caller is a session running the step in place, which may
// wait for room on a consistency lane; a KVS dispatcher may not. sc stages
// shard reads: the returned value may alias it.
func (n *Node) homeStep(src uint8, q *wireReq, sc *srvBuf, mayBlock bool) rpcResult {
	switch q.op {
	case rpcOpPut:
		return rpcResult{status: n.homePut(q.key, q.value, sc)}
	case rpcOpWriteback:
		// A stale write-back (the shard already holds something newer, e.g. a
		// post-demotion client put or a peer's flush) loses quietly — exactly
		// the PutIfNewer contract the epoch change and the re-seed rely on.
		_ = n.kvs.PutIfNewer(q.key, q.value, q.ts)
		return rpcResult{}
	case rpcOpPromoteFetch:
		return n.homeFetch(q.key, sc)
	case rpcOpPutStamp:
		return n.homeStamp(q.key, sc)
	case rpcOpPutCommit:
		return rpcResult{status: n.homeCommit(q.key, q.value, q.ts)}
	case rpcOpCAS, rpcOpFAA:
		return n.homeRMW(src, q, sc, mayBlock)
	case rpcOpRMWClear:
		n.homeClearPin(src, q.key, q.ts)
		return rpcResult{}
	case rpcOpRMWWait:
		// Retry while the hot Lin RMW stamped q.ts is still pending at this
		// coordinator, OK once it finished (committed, superseded with its
		// update out, or excised with the entry).
		if n.cache != nil {
			if ts, pending := n.cache.PendingWriteTS(q.key); pending && ts == q.ts {
				return rpcResult{status: rpcStatusRetry}
			}
		}
		return rpcResult{}
	}
	return rpcResult{status: rpcStatusBadRequest}
}

// caches reports whether key is in this node's symmetric cache.
func (n *Node) caches(key uint64) bool {
	return n.cache != nil && n.cache.Contains(key)
}

// stored reads key's shard entry into sc: its value and version, the zero
// version and ok=false for an absent key. sc is pooled because most steps
// want only the version, or a witness they hand on at once.
func (n *Node) stored(key uint64, sc *srvBuf) (value []byte, ts timestamp.TS, ok bool) {
	v, ts, err := n.kvs.Get(key, sc.b[:0])
	if err != nil {
		return nil, timestamp.TS{}, false
	}
	sc.b = v
	return v, ts, true
}

// nextStamp reserves the next write timestamp for key at this acting primary:
// strictly above the stored version and above every stamp handed out before,
// so the commits that follow can use PutIfNewer at every replica without an
// acked write ever losing to the stored value.
func (wk *worker) nextStamp(key uint64, stored timestamp.TS) timestamp.TS {
	wk.seqMu.Lock()
	clock := max(wk.seqClocks[key], stored.Clock) + 1
	wk.seqClocks[key] = clock
	wk.seqMu.Unlock()
	return timestamp.TS{Clock: clock, Writer: wk.node.id}
}

// liftToStamps raises a version fetched for a promotion to the highest stamp
// handed out for key: a stamped put that bounces off the fresh cache entry
// re-executes through the cache protocol, and its orphaned backup commits
// must lose to the cache's subsequent demotion write-backs, not outlive them.
func (wk *worker) liftToStamps(key uint64, ts timestamp.TS) timestamp.TS {
	wk.seqMu.Lock()
	defer wk.seqMu.Unlock()
	if c := wk.seqClocks[key]; c > ts.Clock {
		return timestamp.TS{Clock: c, Writer: wk.node.id}
	}
	return ts
}

// homePut applies an unreplicated miss-path put to this node's shard (op 1).
// It carries no protocol timestamp, so it advances the stored clock to
// serialize — home-node writes are trivially serialized per key. No re-sync
// gate to check: it is armed only when replicated (addSyncSource).
func (n *Node) homePut(key uint64, value []byte, sc *srvBuf) byte {
	wk := n.workerFor(key)
	wk.homeMu.Lock()
	defer wk.homeMu.Unlock()
	if n.caches(key) {
		return rpcStatusRetry
	}
	_, ts, _ := n.stored(key, sc)
	n.kvs.Put(key, value, ts.Next(n.id))
	return rpcStatusOK
}

// homeStamp reserves a replicated put's write timestamp at this acting
// primary (op 13; phase 1 of replicate.go). Retry for a stale probe, and
// while this node is re-syncing after a rejoin: a stamp taken against its
// pre-crash clock could fall below the stamps its stand-in handed out.
func (n *Node) homeStamp(key uint64, sc *srvBuf) rpcResult {
	if n.cluster.resyncing() {
		return rpcResult{status: rpcStatusRetry, stall: errResyncing}
	}
	wk := n.workerFor(key)
	wk.homeMu.Lock()
	defer wk.homeMu.Unlock()
	if n.caches(key) {
		return rpcResult{status: rpcStatusRetry}
	}
	_, ts, _ := n.stored(key, sc)
	return rpcResult{ts: wk.nextStamp(key, ts)}
}

// homeCommit applies a stamped value at this replica (op 14; phases 2-3 of
// replicate.go). The write is PutIfNewer — a commit racing a newer stamp's
// commit loses quietly, exactly the order the stamps define. Retry when the
// key went hot between the stamp and this commit.
func (n *Node) homeCommit(key uint64, value []byte, ts timestamp.TS) byte {
	wk := n.workerFor(key)
	wk.homeMu.Lock()
	defer wk.homeMu.Unlock()
	if n.caches(key) {
		return rpcStatusRetry
	}
	_ = n.kvs.PutIfNewer(key, value, ts)
	// A commit carrying an RMW pin's stamp IS that RMW landing at its
	// serialization point; the pin has done its job.
	if pin, ok := wk.rmwPins[key]; ok && pin.ts == ts {
		wk.unpinLocked(key)
	}
	return rpcStatusOK
}

// homeFetch reads key's value and version for a promotion (op 10). Unlike a
// plain get it takes homeMu (the stale-probe rule above), lifts the version
// above every stamp handed out for the key, and — driven from this node or
// from a peer alike — answers Retry while this node is re-syncing after a
// rejoin: its shard may still hold pre-crash state, and a value fetched from
// it would be installed in every cache.
func (n *Node) homeFetch(key uint64, sc *srvBuf) rpcResult {
	if n.cluster.resyncing() {
		return rpcResult{status: rpcStatusRetry, stall: errResyncing}
	}
	wk := n.workerFor(key)
	wk.homeMu.Lock()
	defer wk.homeMu.Unlock()
	v, ts, ok := n.stored(key, sc)
	if !ok {
		return rpcResult{status: rpcStatusNotFound}
	}
	if n.cluster.replicated() {
		ts = wk.liftToStamps(key, ts)
	}
	return rpcResult{ts: ts, value: v}
}

// homeClearPin releases key's RMW pin if origin still holds it with stamp ts
// (op 17): the origin could not commit what it had stamped.
func (n *Node) homeClearPin(origin uint8, key uint64, ts timestamp.TS) {
	wk := n.workerFor(key)
	wk.homeMu.Lock()
	if pin, ok := wk.rmwPins[key]; ok && pin.origin == origin && pin.ts == ts {
		wk.unpinLocked(key)
	}
	wk.homeMu.Unlock()
}

// homeRMW runs one CAS/FAA (ops 15, 16) sent by origin at this node, if this
// node is the key's serialization point (rmw.go): the RMW coordinator's cache
// while the key is hot, else the acting primary's shard. Every refusal that
// must re-route — not the serialization point, a mid-transition entry, a
// pinned key, a re-syncing shard — answers Retry, the one status that proves
// the op did not run, which is what licenses the origin's re-issue. A step
// run in place also says why (stall), so the origin can park on what refused
// it — its cache entry, the pin, the gate — instead of asking again at once.
// A declined compute (failed comparison, stored value not a counter) applies
// nothing and answers CASFail with the witness.
func (n *Node) homeRMW(origin uint8, q *wireReq, sc *srvBuf, mayBlock bool) rpcResult {
	c := n.cluster
	retry := rpcResult{status: rpcStatusRetry}
	if c.resyncing() {
		retry.stall = errResyncing
		return retry
	}
	key, view := q.key, c.view.Load()
	compute := rmwCompute(q.op == rpcOpCAS, q.expect, q.value, q.delta)
	if n.caches(key) {
		if c.rmwCoordinator(key, view) != int(n.id) {
			return retry
		}
		return n.homeRMWHot(key, compute, mayBlock)
	}
	if c.primaryFor(key, view) != int(n.id) {
		return retry
	}
	wk := n.workerFor(key)
	wk.homeMu.Lock()
	defer wk.homeMu.Unlock()
	if n.caches(key) {
		retry.stall = core.ErrFrozen
		return retry
	}
	if _, pinned := wk.rmwPins[key]; pinned {
		retry.stall = errPinned
		return retry
	}
	witness, ts, _ := n.stored(key, sc)
	newVal, ok := compute(witness)
	if !ok {
		return rpcResult{status: rpcStatusCASFail, value: witness}
	}
	if !c.replicated() {
		// The home shard, whole op under homeMu.
		n.kvs.Put(key, newVal, ts.Next(n.id))
		return rpcResult{value: witness}
	}
	// Replicated: stamp and pin, apply nothing. The origin recomputes the
	// value from the witness and drives the three-phase commit; this node
	// applies in phase 3 (primary last), which also clears the pin. The pin is
	// what serializes RMWs here without homeMu being held across that fan-out.
	stamp := wk.nextStamp(key, ts)
	wk.rmwPins[key] = rmwPin{origin: origin, ts: stamp}
	return rpcResult{status: rpcStatusRMWStamped, ts: stamp, value: witness}
}

// homeRMWHot runs an RMW at this node's cache as the key's RMW coordinator.
// Under SC it applies at once and broadcasts the update. Under Lin it is the
// ordinary write with the read-compute step fused in under the entry lock:
// staged, invalidations out, and the answer is RMWStarted — it cannot wait
// for the acks, a KVS dispatcher because request/response credit symmetry
// forbids holding a response back, a step in place because steps do not wait.
// Nothing is left behind to finish the write: its last ack publishes the
// update (completeLinWrite); the origin waits for that moment, on its own
// entry in place (awaitLinWrite) or polling rpcOpRMWWait over the wire.
func (n *Node) homeRMWHot(key uint64, compute func([]byte) ([]byte, bool), mayBlock bool) rpcResult {
	var res rpcResult
	var applied bool
	var err error
	if n.cluster.cfg.Protocol == core.Lin {
		var inv core.Invalidation
		if inv, res.value, applied, err = n.cache.RMWLinStart(key, compute); applied {
			n.startLinWrite(inv, mayBlock)
			res.status, res.ts = rpcStatusRMWStarted, inv.TS
		}
	} else {
		var upd core.Update
		if upd, res.value, applied, err = n.cache.RMWSC(key, compute); applied {
			n.broadcastUpdate(upd, mayBlock)
			res.ts = upd.TS
		}
	}
	switch {
	case err == core.ErrMiss:
		return rpcResult{status: rpcStatusRetry} // the key just left the hot set
	case err != nil:
		// Frozen mid-reconfiguration, invalid, or this node's own write pending.
		return rpcResult{status: rpcStatusRetry, stall: err}
	case !applied:
		res.status = rpcStatusCASFail
	}
	return res
}
