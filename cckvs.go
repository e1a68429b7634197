// Package cckvs is the public API of the Scale-Out ccNUMA / ccKVS
// reproduction (Gavrielatos et al., EuroSys'18): a distributed in-memory
// key-value store that exploits popularity skew by replicating the hottest
// items in a strongly consistent symmetric cache on every node.
//
// The package embeds a full multi-node deployment in the current process —
// every node runs a KVS shard, a symmetric cache, and the consistency
// protocol engines, exchanging real messages over the fabric transport.
// Clients load-balance requests across nodes exactly as the paper's
// black-box abstraction prescribes:
//
//	kv, err := cckvs.Open(cckvs.Options{Nodes: 5, Consistency: cckvs.Lin})
//	...
//	err = kv.Put(42, []byte("value"))
//	v, err := kv.Get(42)
//
// Hot-set management uses the paper's §4 machinery: accesses are sampled
// into a Space-Saving top-k summary and RefreshHotSet closes the epoch,
// installing the current top keys into every node's cache and flushing
// dirty evicted items to their home shards.
//
// Throughput and latency of the real system are measured only by benchmark/
// (real cckvs-node processes over TCP). The paper's figures are regenerated
// by cmd/cckvs-bench from internal/experiments, which runs the analytical
// model and the calibrated rack simulator (internal/model, internal/simnet).
package cckvs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/topk"
)

// Consistency selects the cache consistency protocol.
type Consistency = core.Protocol

// Consistency levels, per §5 of the paper.
const (
	// SC is per-key Sequential Consistency: non-blocking writes,
	// asynchronous propagation, total per-key write order.
	SC = core.SC
	// Lin is per-key Linearizability: blocking two-phase writes; a put
	// returns only once its value is visible (or stalls readers) on every
	// replica.
	Lin = core.Lin
)

// Options configures an embedded deployment.
type Options struct {
	// Nodes is the number of server nodes (paper: 9; default 3).
	Nodes int
	// Consistency picks SC or Lin (default SC).
	Consistency Consistency
	// NumKeys is the keyspace size; keys are uint64 in [0, NumKeys).
	// Default 1<<16.
	NumKeys uint64
	// CacheItems is the per-node symmetric cache capacity (default 1% of
	// NumKeys, mirroring the paper's 0.1% at 250M scaled to small
	// keyspaces).
	CacheItems int
	// ValueSize is the default object size used by Populate (default 40,
	// as in the paper's evaluation).
	ValueSize int
	// SampleRate is the request-sampling rate feeding the top-k hot-key
	// tracker (§4; default 16: one in 16 requests is recorded).
	SampleRate uint64
	// WorkersPerNode is the width of every node's worker banks (the
	// paper's cache/KVS threads, §6.2): requests are steered to workers by
	// key hash and each worker runs its own dispatchers, RPC pipeline and
	// flow-control budget. Default: GOMAXPROCS, capped at
	// cluster.MaxWorkersPerNode.
	WorkersPerNode int
}

// KV is an embedded ccKVS deployment with a client-side load balancer.
type KV struct {
	c     *cluster.Cluster
	coord *topk.Coordinator
	rr    atomic.Uint64
	items int
}

// ErrClosed is returned by operations on a closed KV.
var ErrClosed = errors.New("cckvs: closed")

// Open builds and starts an embedded deployment, populates the dataset
// (every key holds a zero value of ValueSize bytes) and installs the
// initial hot set (the lowest-numbered keys, pending popularity feedback).
func Open(opts Options) (*KV, error) {
	if opts.Nodes == 0 {
		opts.Nodes = 3
	}
	if opts.NumKeys == 0 {
		opts.NumKeys = 1 << 16
	}
	if opts.CacheItems == 0 {
		opts.CacheItems = int(opts.NumKeys / 100)
		if opts.CacheItems == 0 {
			opts.CacheItems = 1
		}
	}
	if opts.SampleRate == 0 {
		opts.SampleRate = 16
	}
	c, err := cluster.New(cluster.Config{
		Nodes:          opts.Nodes,
		System:         cluster.CCKVS,
		Protocol:       opts.Consistency,
		NumKeys:        opts.NumKeys,
		CacheItems:     opts.CacheItems,
		ValueSize:      opts.ValueSize,
		WorkersPerNode: opts.WorkersPerNode,
	})
	if err != nil {
		return nil, fmt.Errorf("cckvs: %w", err)
	}
	c.Populate()
	initial := cluster.DefaultHotSet(opts.CacheItems)
	if err := c.InstallHotSet(initial); err != nil {
		c.Close()
		return nil, fmt.Errorf("cckvs: install hot set: %w", err)
	}
	kv := &KV{
		c:     c,
		coord: topk.NewCoordinator(opts.CacheItems, opts.CacheItems*4, opts.SampleRate),
		items: opts.CacheItems,
	}
	kv.coord.Seed(initial)
	return kv, nil
}

// pick load-balances requests round-robin across nodes, as ccKVS clients do.
func (kv *KV) pick() int {
	return int(kv.rr.Add(1) % uint64(kv.c.NumNodes()))
}

// Get reads key through a randomly rotating server node. The returned slice
// is private to the caller.
func (kv *KV) Get(key uint64) ([]byte, error) {
	kv.coord.Observe(key)
	return kv.c.Node(kv.pick()).Get(key)
}

// Put writes key through a rotating server node under the configured
// consistency model.
func (kv *KV) Put(key uint64, value []byte) error {
	kv.coord.Observe(key)
	return kv.c.Node(kv.pick()).Put(key, value)
}

// CompareAndSwap atomically replaces key's value with newVal iff the stored
// value equals expect (nil/empty expect matches a missing key). The op
// executes exactly once at the key's serialization point under the
// configured consistency model; witness is the value the comparison
// observed, so a failed CAS needs no extra read before retrying.
func (kv *KV) CompareAndSwap(key uint64, expect, newVal []byte) (witness []byte, swapped bool, err error) {
	kv.coord.Observe(key)
	return kv.c.Node(kv.pick()).CompareAndSwap(key, expect, newVal)
}

// FetchAndAdd atomically adds delta to the 8-byte big-endian counter stored
// under key (a missing key counts from 0 — see cluster.EncodeCounter) and
// returns the pre-add value. The addition runs server-side at the key's
// serialization point, so a hot contended counter never turns into a
// client-visible CAS retry loop.
func (kv *KV) FetchAndAdd(key uint64, delta uint64) (old uint64, err error) {
	kv.coord.Observe(key)
	return kv.c.Node(kv.pick()).FetchAndAdd(key, delta)
}

// Pair is one key/value of a MultiPut batch.
type Pair struct {
	Key   uint64
	Value []byte
}

// The facade re-exports the op model: internal/cluster is compiler-private
// outside this module, so these aliases are the only way an external
// importer can construct a Batch. They are aliases, not copies — a cckvs.Op
// IS a cluster.Op, and the error variables errors.Is-match values returned
// from every layer.
type (
	// Op is one operation of a Batch: its Kind, Key, and the kind's
	// payload (Value for puts and CAS, Expect for CAS, Delta for FAA).
	Op = cluster.Op
	// Result is one op's outcome — its value and ITS error; a missing key
	// or a lost CAS fails its own slot, never its batch-mates.
	Result = cluster.Result
	// OpKind selects what an Op does.
	OpKind = cluster.OpKind
)

// Op kinds accepted by Batch.
const (
	OpGet = cluster.OpGet
	OpPut = cluster.OpPut
	OpCAS = cluster.OpCAS
	OpFAA = cluster.OpFAA
)

// Typed errors surfaced through the facade, for errors.Is.
var (
	// ErrNotFound reports a get of an absent key.
	ErrNotFound = store.ErrNotFound
	// ErrCASMismatch reports a CAS whose expectation lost; the witnessed
	// value rides alongside it (Result.Value, or CompareAndSwap's witness).
	ErrCASMismatch = cluster.ErrCASMismatch
	// ErrRMWUnknown reports an RMW whose fate a failure hid. It is never
	// retried internally — re-running it could apply it twice; read the
	// key to resolve, or abandon the attempt.
	ErrRMWUnknown = cluster.ErrRMWUnknown
)

// EncodeCounter renders v in the 8-byte big-endian format FetchAndAdd
// operates on — use it to seed or CAS counter values.
func EncodeCounter(v uint64) []byte { return cluster.EncodeCounter(v) }

// DecodeCounter is EncodeCounter's inverse; nil/empty decodes as 0.
func DecodeCounter(b []byte) (uint64, error) { return cluster.DecodeCounter(b) }

// Batch executes a mixed batch of operations (get, put, CAS, FAA) against
// the deployment, fanned out round-robin across the server nodes, and
// reports every op's outcome individually — results[i] is ops[i]'s value
// and error (ErrNotFound for an absent get, ErrCASMismatch plus the
// witness for a failed CAS). Each node serves its stripe in one executor
// run (cluster.Node.Batch): remote accesses of the stripe travel coalesced
// (§6.3) and overlap, and one bad key never hides its stripe-mates'
// outcomes. Every access feeds the top-k popularity observer.
func (kv *KV) Batch(ops []Op) ([]Result, error) {
	rs := make([]Result, len(ops))
	err := kv.fanOut(len(ops), func(i int) { kv.coord.Observe(ops[i].Key) },
		func(node int, idxs []int) error {
			kv.batchStripe(node, ops, rs, idxs)
			return nil
		})
	return rs, err
}

// batchStripe serves one node's share of a Batch with a single Node.Batch
// call, gathering the stripe's ops and scattering their results back.
func (kv *KV) batchStripe(node int, ops []cluster.Op, rs []cluster.Result, idxs []int) {
	sub := make([]cluster.Op, len(idxs))
	out := make([]cluster.Result, len(idxs))
	for j, i := range idxs {
		sub[j] = ops[i]
	}
	kv.c.Node(node).Batch(sub, out)
	for j, i := range idxs {
		rs[i] = out[j]
	}
}

// MultiGet reads a batch of keys in one operation. The batch is fanned out
// round-robin across the server nodes; each node probes its cache and issues
// one coalesced remote access per home shard for the misses (§6.3), so a
// large uniform batch costs a small number of network packets instead of one
// round-trip per key. values[i] is nil when keys[i] does not exist. The
// returned error is the first per-op failure after the whole batch settled —
// keys that served successfully keep their values regardless (use Batch for
// full per-op outcomes). Every access feeds the top-k popularity observer
// like Get does.
//
// Ownership: the values are private to the caller, but several entries of
// one call may share a single backing array — locally served keys are
// pinned under store leases and copied once into a batch-shared buffer on
// the way out (the zero-copy value path's facade end). The slices are
// disjoint and capacity-clipped: reading and overwriting in place are safe,
// appending to one is not. Copy an entry to detach it.
func (kv *KV) MultiGet(keys []uint64) ([][]byte, error) {
	ops := make([]cluster.Op, len(keys))
	for i, k := range keys {
		ops[i].Key = k
	}
	rs, firstErr := kv.Batch(ops)
	out := make([][]byte, len(keys))
	for i := range rs {
		switch {
		case rs[i].Err == nil:
			out[i] = rs[i].Value
		case errors.Is(rs[i].Err, store.ErrNotFound):
			// absent: out[i] stays nil
		default:
			if firstErr == nil {
				firstErr = rs[i].Err
			}
		}
	}
	return out, firstErr
}

// MultiPut writes a batch of pairs in one operation, fanned out round-robin
// across the server nodes; cache-hot keys run the configured consistency
// protocol, misses travel to their home shards in coalesced packets. The
// returned error is the first per-op failure after the whole batch settled
// (use Batch for full per-op outcomes).
func (kv *KV) MultiPut(pairs []Pair) error {
	ops := make([]cluster.Op, len(pairs))
	for i, p := range pairs {
		ops[i] = cluster.Op{Kind: cluster.OpPut, Key: p.Key, Value: p.Value}
	}
	rs, firstErr := kv.Batch(ops)
	for i := range rs {
		if rs[i].Err != nil && firstErr == nil {
			firstErr = rs[i].Err
		}
	}
	return firstErr
}

// fanOut observes every batch index, stripes the indices round-robin across
// the nodes and runs one do() per node concurrently, returning the first
// error once all stripes finished.
func (kv *KV) fanOut(n int, observe func(i int), do func(node int, idxs []int) error) error {
	if n == 0 {
		return nil
	}
	nodes := kv.c.NumNodes()
	start := kv.pick()
	groups := make([][]int, nodes)
	for i := 0; i < n; i++ {
		observe(i)
		g := start
		if n >= 2*nodes {
			// Large batches stripe across all servers; small ones go to one
			// rotating node whole — its pipeline coalesces them anyway, and
			// splitting hair-thin stripes only adds fan-out overhead.
			g = (start + i) % nodes
		}
		groups[g] = append(groups[g], i)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	record := func(err error) {
		if err == nil {
			return
		}
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	// Run the first non-empty stripe inline: small batches land on one node
	// and pay no spawn cost.
	inline := -1
	for node, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		if inline < 0 {
			inline = node
			continue
		}
		wg.Add(1)
		go func(node int, idxs []int) {
			defer wg.Done()
			record(do(node, idxs))
		}(node, idxs)
	}
	if inline >= 0 {
		record(do(inline, groups[inline]))
	}
	wg.Wait()
	return firstErr
}

// RefreshHotSet ends the popularity epoch: the top-k keys observed since the
// previous refresh become the new symmetric cache content on every node. The
// change is applied *incrementally and online* (cluster.ApplyHotSet): only
// the epoch delta moves — demoted keys have their dirty values written
// back to their home shards over RPC before leaving every cache, promoted
// keys are fetched from their (placeholder-pinned) home shards over the
// coalescing pipeline and installed everywhere — while client traffic
// keeps flowing; a key mid-transition misses to its home shard, and writes
// briefly spin at phase boundaries. The epoch always rolls,
// even when the interval observed nothing (the coordinator then republishes
// the incumbent set), and the returned counts are exactly the promotions and
// demotions applied to the caches.
func (kv *KV) RefreshHotSet() (added, removed int) {
	hs, _, _ := kv.coord.EndEpoch()
	// Best-effort: the delta can only fail when the deployment is closing
	// mid-refresh; the stats still report what did apply. The delta against
	// the installed set is computed inside ApplyHotSet, under the cluster's
	// reconfiguration lock.
	st, _ := kv.c.ApplyHotSet(kv.pick(), hs.Keys)
	return st.Promoted, st.Demoted
}

// Stats summarizes cache behaviour since Open.
type Stats struct {
	CacheHits, CacheMisses uint64
	LocalOps, RemoteOps    uint64
	HotSetEpoch            uint64
	HotSetSize             int
}

// Stats returns aggregate counters across all nodes.
func (kv *KV) Stats() Stats {
	var s Stats
	for i := 0; i < kv.c.NumNodes(); i++ {
		n := kv.c.Node(i)
		s.CacheHits += n.CacheHits.Load()
		s.CacheMisses += n.CacheMisses.Load()
		s.LocalOps += n.LocalOps.Load()
		s.RemoteOps += n.RemoteOps.Load()
	}
	cur := kv.coord.Current()
	s.HotSetEpoch = cur.Epoch
	s.HotSetSize = cur.Size()
	return s
}

// HitRate returns the cache hit ratio observed so far.
func (s Stats) HitRate() float64 {
	t := s.CacheHits + s.CacheMisses
	if t == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(t)
}

// NumNodes returns the deployment size.
func (kv *KV) NumNodes() int { return kv.c.NumNodes() }

// Cluster exposes the underlying deployment for advanced use (experiment
// harnesses, tests).
func (kv *KV) Cluster() *cluster.Cluster { return kv.c }

// Close shuts the deployment down.
func (kv *KV) Close() error { return kv.c.Close() }
