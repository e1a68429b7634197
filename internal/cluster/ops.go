package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/timestamp"
)

// ErrRetriesExhausted is returned when a read stayed parked on an invalidated
// entry past parkDeadline — it indicates a protocol bug (the matching update
// never arrived) and exists so tests fail loudly instead of hanging.
var ErrRetriesExhausted = errors.New("cluster: read retries exhausted on invalid entry")

// ErrFrozenRetriesExhausted is returned when a write stayed parked on a
// frozen or write-pending entry, or an RMW on a pinned key, past parkDeadline
// — a reconfiguration always commits, aborts or removes the entry in bounded
// time and a pin is always committed, cleared or excised, so this indicates a
// reconfiguration or a commit that died without cleaning up.
var ErrFrozenRetriesExhausted = errors.New("cluster: write retries exhausted on frozen entry")

// The two local refusals that are not the cache's, parked on like its three
// (park): the node's re-sync gate is armed (homeStamp, homeFetch, homeRMW and
// the executor's local read), and the key is pinned by a cold replicated RMW
// whose commit is still in flight (homeRMW).
var errResyncing = errors.New("cluster: re-sync gate armed")
var errPinned = errors.New("cluster: key pinned by an uncommitted RMW")

// parkDeadline bounds one park on a cache entry or an RMW pin. It is armed
// only once a caller actually parks, and only ever fires on a bug or a peer
// that went silent without leaving the view — every legitimate stall ends
// within a few round trips (an update, an ack, a commit) or one
// reconfiguration.
const parkDeadline = 30 * time.Second

// park is the one place on this node where a local refusal waits: sleep until
// what refused the op changes, then let the caller retry (at once, when the
// refusal no longer holds). stall names the refusal and so the channel: a
// cache entry's (core.ErrInvalid, ErrWritePending, ErrFrozen — core/park.go),
// the re-sync gate's (errResyncing) or the key's worker's pin release
// (errPinned). The three retry counters count parks. The gate wait has no
// deadline: a slow re-seed is not an error, and a dead seeder's share of the
// gate clears when the view excises it.
func (n *Node) park(key uint64, stall error) error {
	var ch <-chan struct{}
	switch stall {
	case errResyncing:
		ch = n.cluster.resyncWait()
	case errPinned:
		ch = n.workerFor(key).pinWait(key)
	default:
		ch = n.cache.Park(key, stall)
	}
	if ch == nil {
		return nil
	}
	switch stall {
	case core.ErrWritePending, errPinned:
		n.WritePendingRetries.Add(1)
	case core.ErrInvalid:
		n.InvalidRetries.Add(1)
	default:
		n.FrozenRetries.Add(1)
	}
	var deadline <-chan time.Time // nil, never ready, for the gate
	if stall != errResyncing {
		t := time.NewTimer(parkDeadline)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case <-ch:
		return nil
	case <-n.cluster.stop:
		return fmt.Errorf("cluster: closed with key %d parked (%v): %w", key, stall, ErrPipelineClosed)
	case <-deadline:
		if stall == core.ErrInvalid {
			return ErrRetriesExhausted
		}
		return ErrFrozenRetriesExhausted
	}
}

// awaitLinWrite blocks until this node's Lin write of key stamped ts has its
// last ack (§5.2: "writes are synchronous"). The write completes on a
// receive dispatcher or under a view flip — never on the caller — so the
// caller may have done anything in between, including starting more writes.
func (n *Node) awaitLinWrite(key uint64, ts timestamp.TS) error {
	for {
		ch := n.cache.AwaitWrite(key, ts)
		if ch == nil {
			return nil
		}
		select {
		case <-ch:
		case <-n.cluster.stop:
			return fmt.Errorf("cluster: closed awaiting acks for key %d: %w", key, ErrPipelineClosed)
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

// putCached attempts the write through the symmetric cache under the
// configured protocol. hit=false with a nil error means the key missed the
// cache (the caller forwards to the home shard); the miss is already counted.
// On a hit, a zero w means the write committed; otherwise the write is
// unfinished and w says what it waits for — a staged Lin write for its acks,
// a refused write for its entry to change.
func (n *Node) putCached(key uint64, value []byte) (w opWait, hit bool, err error) {
	if n.cache == nil {
		return opWait{}, false, nil
	}
	var cerr error // the cache's answer: nil, a stall, ErrMiss, or a hard failure
	if n.cluster.cfg.Protocol == core.Lin {
		var inv core.Invalidation
		if inv, cerr = n.cache.WriteLinStart(key, value); cerr == nil {
			n.CacheHits.Add(1)
			n.startLinWrite(inv, true)
			return opWait{lin: inv.TS}, true, nil
		}
	} else if cerr = n.putSC(key, value); cerr == nil {
		n.CacheHits.Add(1)
		return opWait{}, true, nil
	}
	switch cerr {
	case core.ErrWritePending, core.ErrFrozen:
		// Another session on this node is writing the key (writes must
		// serialize), or the key is mid-reconfiguration — a demotion ends with
		// the key leaving the hot set, and the retry then misses to the home
		// shard (which by then holds the demotion's write-back).
		return opWait{stall: cerr}, true, nil
	case core.ErrMiss:
		n.CacheMisses.Add(1)
		return opWait{}, false, nil
	default:
		return opWait{}, false, cerr
	}
}

// putSC runs one SC cache write: applied locally and broadcast at once, from
// whichever replica the client reached (§5.2 — fully distributed writes,
// Figure 4c; non-blocking). It answers nil, core.ErrMiss (the key is not
// cached) or core.ErrFrozen (the entry is mid-reconfiguration; the executor
// parks on it and re-runs the put, which misses to the home shard once a
// demotion dropped the key).
func (n *Node) putSC(key uint64, value []byte) error {
	upd, err := n.cache.WriteSC(key, value)
	if err == nil {
		n.broadcastUpdate(upd, true)
	}
	return err
}
