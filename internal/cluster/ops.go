package cluster

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/timestamp"
)

// ErrRetriesExhausted is returned when a read stalled on an invalidated
// entry for an implausibly long time — it indicates a protocol bug (the
// matching update never arrived) and exists so tests fail loudly instead of
// hanging.
var ErrRetriesExhausted = errors.New("cluster: read retries exhausted on invalid entry")

// ErrFrozenRetriesExhausted is returned when a write spun on a frozen entry
// for an implausibly long time — a hot-set reconfiguration always commits,
// aborts or removes the entry in bounded time, so this indicates a
// reconfiguration that died without cleaning up (e.g. the deployment closed
// mid-refresh).
var ErrFrozenRetriesExhausted = errors.New("cluster: write retries exhausted on frozen entry")

// invalidRetryLimit bounds the Read retry loop on Lin-invalidated entries.
const invalidRetryLimit = 10_000_000

// frozenRetryLimit bounds write retries on entries frozen by a hot-set
// reconfiguration. A transition always commits, aborts, or removes the
// entry in bounded time; hitting the limit means a reconfiguration died
// without cleaning up (e.g. the deployment closed mid-refresh) and the
// write fails loudly instead of spinning forever.
const frozenRetryLimit = 10_000_000

// cacheRead probes the symmetric cache, spinning while an entry is
// invalidated by an in-flight Lin write. hit=false reports a clean miss.
func (n *Node) cacheRead(key uint64) (value []byte, hit bool, err error) {
	for attempt := 0; ; attempt++ {
		v, _, err := n.cache.Read(key, nil)
		switch err {
		case nil:
			return v, true, nil
		case core.ErrInvalid:
			// An update is in flight; spin until it lands. The paper's
			// cache threads keep polling their receive queues here; our
			// dispatcher goroutine applies the update concurrently.
			n.InvalidRetries.Add(1)
			if attempt > invalidRetryLimit {
				return nil, false, ErrRetriesExhausted
			}
			yield()
		case core.ErrMiss:
			return nil, false, nil
		default:
			return nil, false, err
		}
	}
}

// homeDownErr names the dead home a failed-fast operation needed.
func homeDownErr(home int, key uint64) error {
	return fmt.Errorf("%w (key %d, home node %d)", ErrHomeDown, key, home)
}

// The Node-level operations below are thin wrappers over the op executor
// (exec.go), which owns every routing decision: each builds Ops, runs scan
// and collect, detaches the results from store memory and maps them onto its
// own signature.

// Get serves a client read arriving at this node (§6.1, "Reads"). An absent
// key is store.ErrNotFound; a miss for a key with no live replica fails fast
// with ErrHomeDown instead of timing out — hot keys keep serving from the
// symmetric cache whoever their home is. The value is private to the caller.
func (n *Node) Get(key uint64) ([]byte, error) {
	r := n.execOne(&Op{Key: key})
	return r.val, r.err
}

// Put serves a client write arriving at this node (§6.1, "Writes"): a cache
// hit runs the configured consistency protocol; a miss forwards the write to
// the home shard. A miss-path write whose probe went stale — the key
// (re)entered the hot set before the write reached the home — bounces back
// and re-probes, so it can never overtake a promotion's fetch of the home
// value.
func (n *Node) Put(key uint64, value []byte) error {
	return n.execOne(&Op{Kind: OpPut, Key: key, Value: value}).err
}

// run executes count ops, opAt(i) being the i-th, in one executor pass — the
// whole batch's remote accesses in flight at once, no goroutines — and
// returns their detached results.
func (n *Node) run(count int, opAt func(i int) Op) []opRes {
	x := opExec{n: n, res: make([]opRes, 0, count), pend: make([]execPend, 0, count)}
	for i := 0; i < count; i++ {
		op := opAt(i)
		x.scan(&op)
	}
	x.collect()
	x.detach()
	return x.res
}

// Batch executes a mixed batch of operations and reports every op's outcome
// in rs[i] (len(rs) must be len(ops)): its value and ITS error
// (store.ErrNotFound, ErrCASMismatch beside the witness, ErrHomeDown, ...);
// one op failing never hides or aborts its batch-mates.
//
// Ownership: the values are private to the caller, but locally served
// entries of one batch may share a single backing array (each is pinned
// under a store lease and copied once into a batch-shared buffer instead of
// allocating per key). The slices are disjoint and capacity-clipped, so
// reads and in-place writes are safe; appending to one is not.
func (n *Node) Batch(ops []Op, rs []Result) {
	for i, r := range n.run(len(ops), func(i int) Op { return ops[i] }) {
		rs[i] = Result{Value: r.val, Err: r.err}
	}
}

// MultiGet reads a batch of keys. values[i] is nil when keys[i] is absent;
// the first hard failure is returned after the whole batch settled, and keys
// that served keep their values regardless. Value ownership as for Batch.
func (n *Node) MultiGet(keys []uint64) ([][]byte, error) {
	out := make([][]byte, len(keys))
	var firstErr error
	for i, r := range n.run(len(keys), func(i int) Op { return Op{Key: keys[i]} }) {
		if r.err == nil {
			out[i] = r.val
		} else if firstErr == nil && !errors.Is(r.err, store.ErrNotFound) {
			firstErr = r.err
		}
	}
	return out, firstErr
}

// MultiPut writes keys[i]=values[i], returning the first failure after the
// whole batch settled.
func (n *Node) MultiPut(keys []uint64, values [][]byte) error {
	put := func(i int) Op { return Op{Kind: OpPut, Key: keys[i], Value: values[i]} }
	for _, r := range n.run(len(keys), put) {
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

// localHomePut applies a miss-path put to this node's own shard, unless the
// key is (again) cached — the stale-probe re-check runs under homeMu, the
// mutex a local promotion fetch holds while reading the shard, so the put
// either lands before the fetch or bounces back through the cache.
func (n *Node) localHomePut(key uint64, value []byte) (bounced bool) {
	wk := n.workerFor(key)
	wk.homeMu.Lock()
	defer wk.homeMu.Unlock()
	if n.cache != nil && n.cache.Contains(key) {
		return true
	}
	n.LocalOps.Add(1)
	n.localKVSPut(key, value)
	return false
}

// putCached attempts the write through the symmetric cache under the
// configured protocol. done=false with nil error means the key missed the
// cache (the caller forwards to the home shard); the miss is already
// counted.
func (n *Node) putCached(key uint64, value []byte) (done bool, err error) {
	if n.cache == nil {
		return false, nil
	}
	if n.cluster.cfg.Protocol == core.Lin {
		done, err = n.putLin(key, value)
	} else {
		done, err = n.putSC(key, value)
	}
	if err != nil || done {
		return done, err
	}
	n.CacheMisses.Add(1)
	return false, nil
}

// putSC runs an SC cache write under the configured Figure 4 serialization
// design. done=false with nil error means the key missed the cache. A write
// that finds its entry frozen mid-demotion retries until the key either
// unfreezes (never happens today: demotions always commit) or leaves the hot
// set, at which point it misses to the home shard — which by then holds the
// demotion's write-back, so the write can never be clobbered by it.
func (n *Node) putSC(key uint64, value []byte) (bool, error) {
	const coordinator = 0 // primary/sequencer node when selected
	switch n.cluster.cfg.Serialization {
	case SerializationPrimary:
		for attempt := 0; ; attempt++ {
			if attempt > frozenRetryLimit {
				return false, ErrFrozenRetriesExhausted
			}
			if !n.cache.Contains(key) {
				return false, nil // putCached counts the miss
			}
			if n.id == coordinator {
				done, retry, err := n.commitSC(n.cache.WriteSC(key, value))
				if retry {
					continue
				}
				return done, err
			}
			// All writes serialize at the primary (Figure 4a): forward and
			// wait for its ack; the update reaches us via broadcast.
			err := n.PrimaryWrite(coordinator, key, value)
			if err == errPrimaryMiss {
				// The hot set shifted under us; wait for our own commit
				// and re-probe (the write then goes to the home shard).
				yield()
				continue
			}
			if err == nil {
				n.CacheHits.Add(1)
				return true, nil
			}
			return false, err
		}
	case SerializationSequencer:
		for attempt := 0; ; attempt++ {
			if attempt > frozenRetryLimit {
				return false, ErrFrozenRetriesExhausted
			}
			if !n.cache.Contains(key) {
				return false, nil // putCached counts the miss
			}
			var ts timestamp.TS
			var err error
			if n.id == coordinator {
				// The sequencer's own writes take the timestamp locally.
				wk := n.workerFor(key)
				wk.seqMu.Lock()
				wk.seqClocks[key]++
				ts = timestamp.TS{Clock: wk.seqClocks[key], Writer: n.id}
				wk.seqMu.Unlock()
			} else if ts, err = n.SeqTS(coordinator, key); err != nil {
				return false, err
			}
			// On a frozen retry the consumed sequencer timestamp is
			// abandoned; gaps in the per-key clock are harmless (it only
			// ever advances).
			done, retry, err := n.commitSC(n.cache.WriteSCWithTS(key, value, ts))
			if retry {
				continue
			}
			return done, err
		}
	default:
		for attempt := 0; ; attempt++ {
			if attempt > frozenRetryLimit {
				return false, ErrFrozenRetriesExhausted
			}
			// Non-blocking: the local write is already visible; propagate
			// asynchronously to all replicas (§5.2).
			done, retry, err := n.commitSC(n.cache.WriteSC(key, value))
			if retry {
				continue
			}
			return done, err
		}
	}
}

// commitSC finishes one SC cache-write attempt, whatever serialization
// design produced it: a successful write is broadcast; a frozen entry
// (mid-demotion) yields and asks the caller to retry; a miss falls through
// to the home-shard path.
func (n *Node) commitSC(upd core.Update, err error) (done, retry bool, _ error) {
	switch err {
	case nil:
		n.CacheHits.Add(1)
		n.broadcastUpdate(upd)
		return true, false, nil
	case core.ErrFrozen:
		n.FrozenRetries.Add(1)
		yield()
		return false, true, nil
	case core.ErrMiss:
		return false, false, nil // putCached counts the miss
	default:
		return false, false, err
	}
}

// putLin runs the blocking two-phase Lin write. done=false with nil error
// means the key missed the cache.
func (n *Node) putLin(key uint64, value []byte) (bool, error) {
	for attempt := 0; ; attempt++ {
		if attempt > frozenRetryLimit {
			return false, ErrFrozenRetriesExhausted
		}
		ch, err := n.startLinWrite(key, func() (core.Invalidation, bool, error) {
			inv, err := n.cache.WriteLinStart(key, value)
			return inv, err == nil, err
		})
		switch err {
		case nil:
			n.CacheHits.Add(1)
			// Block until the last ack completes the write (§5.2: "writes
			// are synchronous").
			n.broadcastUpdate(<-ch)
			return true, nil
		case core.ErrWritePending, core.ErrFrozen:
			// Another session on this node is writing the key (writes must
			// serialize), or the key is being demoted — retry until it
			// leaves the hot set and the write misses to the home shard
			// (which by then holds the demotion's write-back).
			n.countRefusal(err)
			yield()
		case core.ErrMiss:
			return false, nil
		default:
			return false, err
		}
	}
}

// startLinWrite is the one staged-Lin-write sequence (§5.2), shared by plain
// puts and hot RMWs: register the key's completion waiter, run stage under
// the entry lock (WriteLinStart, or RMWLinStart with its fused
// read-compute), and broadcast the staged write's invalidation. The waiter
// goes in first because acks can arrive the moment the invalidations hit the
// wire; registration doubles as the node-local write mutex for the key, so a
// second writer is refused with core.ErrWritePending exactly as if the entry
// itself had said so. Every refusal — stage's error, or staged=false (a
// declined CAS) with a nil one — unregisters the waiter and returns a nil
// channel. Otherwise the caller receives the completing update from ch,
// however it chooses to wait, and broadcasts it.
func (n *Node) startLinWrite(key uint64, stage func() (inv core.Invalidation, staged bool, err error)) (<-chan core.Update, error) {
	ch, ok := n.tryRegisterLinWaiter(key)
	if !ok {
		return nil, core.ErrWritePending
	}
	inv, staged, err := stage()
	if !staged {
		n.unregisterLinWaiter(key, ch)
		return nil, err
	}
	n.broadcastInvalidation(inv)
	// A view flip may have excised a counted peer between the write's
	// live-set snapshot and the broadcast — or this node may be the only live
	// member — in which case no further ack will arrive; re-run the completion
	// check so the write can never wait on a peer that is gone. Guarded by one
	// atomic view load: at full membership (the common case) no recheck — and
	// no second entry-lock acquisition — is needed, and flips after this point
	// are covered by Cache.SetLive's scan.
	if v := n.cluster.view.Load(); v.LiveCount() < n.cluster.cfg.Nodes {
		if upd, done := n.cache.RecheckPending(key); done {
			n.completeLinWrite(key, upd)
		}
	}
	return ch, nil
}

// countRefusal bumps the retry counter matching a refused cache write.
func (n *Node) countRefusal(err error) {
	switch err {
	case core.ErrWritePending:
		n.WritePendingRetries.Add(1)
	case core.ErrFrozen:
		n.FrozenRetries.Add(1)
	case core.ErrInvalid:
		n.InvalidRetries.Add(1)
	}
}

// unregisterLinWaiter removes a waiter that never armed (write refused).
func (n *Node) unregisterLinWaiter(key uint64, ch chan core.Update) {
	wk := n.workerFor(key)
	wk.waitMu.Lock()
	if wk.waiters[key] == ch {
		delete(wk.waiters, key)
	}
	wk.waitMu.Unlock()
}

// localKVSPut writes a cache-missing key to the local shard with a fresh
// serialization timestamp (a missing key advances from the zero timestamp).
func (n *Node) localKVSPut(key uint64, value []byte) {
	_, ts, _ := n.kvs.Get(key, nil)
	n.kvs.Put(key, value, ts.Next(n.id))
}
