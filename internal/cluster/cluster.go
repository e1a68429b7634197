// Package cluster assembles the full systems evaluated in the paper
// (EuroSys'18, §7.1) as in-process deployments: every node couples a KVS
// shard with (for ccKVS) an instance of the symmetric cache, threads are
// partitioned into cache threads and KVS threads (§6.2), and nodes exchange
// remote accesses and consistency messages over a fabric transport.
//
// Five system flavours are provided:
//
//   - BaseEREW  — NUMA abstraction, KVS partitioned at core granularity
//   - Base      — NUMA abstraction, CRCW KVS (partitioned per server)
//   - Uniform   — Base driven by a uniform workload (the baselines' upper
//     bound; selected by the workload, not the cluster config)
//   - ccKVS-SC  — Base plus symmetric caches kept consistent with the SC
//     protocol
//   - ccKVS-Lin — same with the Lin protocol
//
// The cluster is functionally complete (real protocol traffic over a real
// transport); paper-scale *performance* numbers come from internal/simnet,
// which models the rack's network bottlenecks explicitly.
package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/timestamp"
	"repro/internal/wire"
	"repro/internal/zipf"
)

// System selects the evaluated design.
type System int

// Evaluated systems.
const (
	// BaseEREW partitions each node's KVS at thread granularity
	// (exclusive reads, exclusive writes), like stock MICA.
	BaseEREW System = iota
	// Base partitions the KVS at server granularity (CRCW).
	Base
	// CCKVS is Base plus consistent symmetric caching.
	CCKVS
)

// String names the system as in the paper's figures.
func (s System) String() string {
	switch s {
	case BaseEREW:
		return "Base-EREW"
	case Base:
		return "Base"
	case CCKVS:
		return "ccKVS"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Thread ids within a node's fabric address space. A node no longer exposes
// one thread per traffic class: the cache, KVS and response roles are
// *banks* of WorkersPerNode threads each (the paper's cache/KVS worker
// threads, §6.2), laid out back to back above the two fixed singleton
// threads. Requests are steered to a bank member by key hash on the sender
// side (Config.workerOf), so the same key always lands on the same worker
// everywhere — which is what lets each worker run lock-free against its
// brethren (EREW across workers, exactly MICA's discipline).
const (
	threadFlow     uint8 = 0 // explicit credit updates (one per node)
	threadSession  uint8 = 1 // client-facing session requests (session.go)
	threadView     uint8 = 2 // membership: pings, pongs, view changes (view.go)
	threadBankBase uint8 = 3 // first worker-bank thread
)

// MaxWorkersPerNode bounds the per-node worker count: the three per-worker
// banks (cache, KVS, resp) must fit the uint8 thread address space above
// the fixed threads.
const MaxWorkersPerNode = 64

// cacheThread returns worker w's consistency-message endpoint.
func (c Config) cacheThread(w int) uint8 {
	return threadBankBase + uint8(w)
}

// kvsThread returns worker w's remote KVS request server endpoint.
func (c Config) kvsThread(w int) uint8 {
	return threadBankBase + uint8(c.WorkersPerNode) + uint8(w)
}

// respThread returns worker w's RPC completion endpoint.
func (c Config) respThread(w int) uint8 {
	return threadBankBase + uint8(2*c.WorkersPerNode) + uint8(w)
}

// workerOf steers a key to its worker index — the same on every node, so
// a request encoded by any sender lands on the worker that owns the key's
// stripe at the receiver. The salt decorrelates worker steering from home
// placement (HomeNode), so one node's keys still spread across all workers.
func (c Config) workerOf(key uint64) int {
	return int(zipf.Mix64(key^0x2545f4914f6cdd1d) % uint64(c.WorkersPerNode))
}

// erewPartitions is BaseEREW's per-node partition count; it stands in for the
// per-core partitioning of stock MICA.
const erewPartitions = 8

// Config parameterizes a cluster.
type Config struct {
	// Nodes is the deployment size (paper: 9).
	Nodes int
	// System picks the design; Protocol applies only to CCKVS.
	System   System
	Protocol core.Protocol
	// NumKeys is the dataset size; keys are 0..NumKeys-1 ranked by
	// popularity (rank 0 hottest).
	NumKeys uint64
	// ReplicasPerShard is how many nodes hold each key's shard data: the
	// home (HomeOf) plus ReplicasPerShard-1 successor backups. 1 (the
	// default) is the unreplicated layout — a dead home fails cold keys
	// with ErrHomeDown. With more replicas, miss-path puts and
	// reconfiguration write-backs commit to every live replica before
	// acking, reads route to the first live replica (the acting primary),
	// and a view flip promotes the next backup instead of erroring;
	// ErrHomeDown then only occurs when ALL replicas of a shard are down.
	// Every member of a deployment must use the same value.
	ReplicasPerShard int
	// PingInterval, when positive, arms the ping-based failure detector in
	// member form: the member pings every peer at this interval and excises
	// any live peer silent for PingTimeout from the membership view
	// (view.go). 0 (the default) disables suspicion — transports that detect
	// failure themselves (TCP) still drive view changes through PeerDown.
	PingInterval time.Duration
	// PingTimeout is the silence after which a peer is declared down
	// (default 6x PingInterval).
	PingTimeout time.Duration
	// CacheItems is the symmetric cache capacity in objects (paper: 0.1%
	// of the dataset = 250K).
	CacheItems int
	// WorkersPerNode is the width of each node's worker banks: every node
	// runs this many cache/KVS/resp worker threads (§6.2), with requests
	// steered to workers by key hash. Default: GOMAXPROCS, capped at
	// MaxWorkersPerNode. Every member of a deployment must use the same
	// value — it determines the fabric thread layout.
	WorkersPerNode int
	// ValueSize is the object payload size (paper default 40B).
	ValueSize int
	// CreditsPerPeer bounds in-flight packets toward each peer (§6.3;
	// default 64).
	CreditsPerPeer int
	// BatchMaxMsgs bounds how many remote requests the coalescing pipeline
	// packs into one network packet (§6.3/§8.5; default 16; 1 disables
	// coalescing, the per-request baseline of the ablation).
	BatchMaxMsgs int
	// BatchMaxBytes bounds the payload of a coalesced request packet
	// (default 4096).
	BatchMaxBytes int
	// QueueDepth is the transport queue depth (default 1024).
	QueueDepth int
	// ReorderDepth, when positive, wraps the fabric in an adversarial
	// shuffle buffer of that depth (UD datagrams are unordered; the
	// protocols must tolerate it). Test/torture use.
	ReorderDepth int
	// ReorderSeed seeds the shuffle for reproducibility.
	ReorderSeed uint64
}

// creditBatch is how many received consistency packets one explicit credit
// update acknowledges (§6.4): an eighth of the sender's budget, so the sender
// is never out of credits while the receiver still waits to fill a batch
// (capped at what the update's one-byte count can carry).
func (c Config) creditBatch() int {
	return min(max(1, c.CreditsPerPeer/8), 255)
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.NumKeys == 0 {
		c.NumKeys = 1 << 16
	}
	if c.ValueSize == 0 {
		c.ValueSize = 40
	}
	if c.ReplicasPerShard == 0 {
		c.ReplicasPerShard = 1
	}
	if c.ReplicasPerShard > c.Nodes {
		c.ReplicasPerShard = c.Nodes
	}
	if c.WorkersPerNode == 0 {
		c.WorkersPerNode = runtime.GOMAXPROCS(0)
		if c.WorkersPerNode > MaxWorkersPerNode {
			c.WorkersPerNode = MaxWorkersPerNode
		}
	}
	if c.CreditsPerPeer == 0 {
		c.CreditsPerPeer = 64
	}
	if c.BatchMaxMsgs == 0 {
		c.BatchMaxMsgs = 16
	}
	if c.BatchMaxBytes == 0 {
		c.BatchMaxBytes = 4096
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
	if c.PingInterval > 0 && c.PingTimeout == 0 {
		c.PingTimeout = 6 * c.PingInterval
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Nodes < 1 || c.Nodes > 250 {
		return fmt.Errorf("cluster: node count %d out of range [1,250]", c.Nodes)
	}
	if c.System == CCKVS && c.CacheItems <= 0 {
		return errors.New("cluster: ccKVS needs CacheItems > 0")
	}
	if c.System != CCKVS && c.CacheItems > 0 {
		return errors.New("cluster: baselines have no cache; CacheItems must be 0")
	}
	if c.WorkersPerNode < 0 || c.WorkersPerNode > MaxWorkersPerNode {
		return fmt.Errorf("cluster: WorkersPerNode %d out of range [0,%d] (0 selects the GOMAXPROCS-derived default)",
			c.WorkersPerNode, MaxWorkersPerNode)
	}
	if c.ReplicasPerShard < 0 {
		return fmt.Errorf("cluster: ReplicasPerShard %d must be >= 0 (0 selects the unreplicated default)", c.ReplicasPerShard)
	}
	// A negative queue depth panics in make(chan); a negative budget or bound
	// blocks every sender for good.
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{"QueueDepth", c.QueueDepth}, {"BatchMaxMsgs", c.BatchMaxMsgs},
		{"BatchMaxBytes", c.BatchMaxBytes}, {"CreditsPerPeer", c.CreditsPerPeer},
	} {
		if f.v < 0 {
			return fmt.Errorf("cluster: %s %d must be >= 0 (0 selects the default)", f.name, f.v)
		}
	}
	return nil
}

// Cluster is a deployment view. In the in-process form (New,
// NewWithTransport) it holds every node; in member form (NewMember) it holds
// exactly one node of a multi-process deployment and reaches the others over
// the injected transport — same protocol code, same RPCs, different process
// layout.
type Cluster struct {
	cfg       Config
	transport fabric.Transport
	stats     *fabric.Stats
	// trCopies reports that the transport serializes packet data during
	// Send (fabric.TCPTransport): senders may reuse their encode buffers
	// the moment Send returns, which is what makes the hot path's pooled
	// buffers possible. Channel-based transports pass data by reference,
	// so there the buffers must stay fresh per packet.
	trCopies bool
	// nodes is indexed by node id and always cfg.Nodes long; in member form
	// every entry except the local node is nil. locals lists the nodes this
	// process runs: all of them in-process, the member's own in member form.
	nodes  []*Node
	locals []*Node
	member bool
	self   int
	closed bool
	mu     sync.Mutex
	// stop is closed by Close and Kill: every parked caller — on a cache
	// entry, the re-sync gate, an RMW pin or its own Lin write's acks (ops.go:
	// park, awaitLinWrite) — fails instead of outliving the cluster.
	stop     chan struct{}
	stopOnce sync.Once
	// reconfigMu serializes hot-set reconfigurations (reconfig.go).
	reconfigMu sync.Mutex

	// Membership (view.go): the epoch-stamped live-member view, swapped
	// atomically on every change; viewMu serializes the transitions.
	view   atomic.Pointer[View]
	viewMu sync.Mutex
	onView func(*View)
	// killed marks a chaos-killed member: every fabric handler drops its
	// traffic so peers' suspicion timers fire (Kill).
	killed atomic.Bool
	// sessMu guards sessClosed against the worker session lanes' queues:
	// enqueues take the read side, Close flips sessClosed and closes the
	// queues under the write side, so no send can race the close.
	sessMu     sync.RWMutex
	sessClosed bool
	// Ping-based failure detector state (startProber).
	lastPong     []atomic.Int64
	probeStop    chan struct{}
	probeStopped bool
	probeMu      sync.Mutex
	probeWG      sync.WaitGroup

	// Rejoin re-seed state (view.go). syncSources holds the peers currently
	// streaming shard seeds at this member (seed-begin received, seed-done
	// pending); while non-empty the re-sync gate is armed — syncGate, a
	// close-on-clear channel, nil while open — and the member answers
	// acting-primary traffic with retries (its own such ops park), so no
	// reader observes its pre-crash state. reseeding guards one concurrent
	// outbound reseed per rejoining peer.
	syncMu      sync.Mutex
	syncSources map[uint8]struct{}
	syncGate    atomic.Pointer[chan struct{}]
	reseedMu    sync.Mutex
	reseeding   map[uint8]bool
	reseedWG    sync.WaitGroup
}

// Node is one server: a KVS shard plus (for ccKVS) a symmetric cache,
// fronted by a bank of WorkersPerNode workers that own disjoint key stripes.
type Node struct {
	id      uint8
	cluster *Cluster
	kvs     *store.Partitioned
	cache   *core.Cache // nil for baselines

	// workers are the node's request-processing lanes; worker i serves the
	// keys with workerOf(key) == i on every node of the deployment, so no
	// lock is shared between lanes on the hot path.
	workers []*worker

	// Counters for the evaluation.
	CacheHits, CacheMisses metrics.Counter
	LocalOps, RemoteOps    metrics.Counter
	InvalidRetries         metrics.Counter
	WritePendingRetries    metrics.Counter
	// FrozenRetries counts parks on a frozen entry or the re-sync gate, puts
	// bounced by a home that now caches the key, and RMW commits bounced the
	// same way (ops.go park, exec.go, rmw.go).
	FrozenRetries metrics.Counter
	// RemoteReqPackets counts request packets the coalescing pipeline sent;
	// RemoteReqMsgs counts the requests they carried. Their ratio is the
	// achieved coalescing factor (§8.5).
	RemoteReqPackets, RemoteReqMsgs metrics.Counter
	// ConPackets counts consistency packets the coalescing consistency plane
	// sent; ConMsgs counts the updates/invalidations/acks they carried.
	// Their ratio is the write fan-out coalescing factor (§6.3).
	ConPackets, ConMsgs metrics.Counter
	// RPCDecodeErrors counts malformed request/response entries that were
	// refused or dropped instead of deadlocking their callers.
	RPCDecodeErrors metrics.Counter
}

// worker is one of a node's W request-processing lanes — the reproduction's
// form of the paper's worker threads (§6.2). Each worker owns the key
// stripe workerOf(key) == idx: its own fabric endpoints (one cache, KVS and
// resp thread), its own coalescing pipeline senders, its own credit budget
// and completion table, and its own stripe of the serialization state that
// used to be node-global (put-stamp clocks, the home-fetch mutex). Two
// operations contend on a lock only if they touch the same stripe; across
// stripes the hot path is lock-disjoint.
type worker struct {
	node *Node
	idx  int

	rpc  *rpcClient
	pipe *peerLanes[wireReq]  // per-destination request coalescing (pipeline.go)
	con  *peerLanes[core.Msg] // per-destination consistency coalescing (consistency.go)

	credits *fabric.Credits
	cbatch  *fabric.CreditBatcher

	// seqClocks holds, per key of this stripe, the highest clock this node
	// stamped a replicated put or cold RMW with as the key's acting primary:
	// the next stamp goes strictly above it (home.go: nextStamp, liftToStamps).
	seqMu     sync.Mutex
	seqClocks map[uint64]uint32

	// homeMu makes each home-shard step (home.go) atomic for this worker's
	// keys, whoever runs it — a KVS dispatcher for a peer, or a session of
	// this node in place. It orders miss-path writes against a promotion's
	// fetch: a write whose cache probe predates the promotion's placeholder
	// re-checks the cache under this mutex before touching the shard, so it
	// either lands before homeFetch reads the shard or bounces back through
	// the cache. Never held across anything that waits.
	homeMu sync.Mutex

	// rmwPins serializes cold replicated RMWs per key (home.go): the acting
	// primary records the origin and stamp of an RMW it has stamped but whose
	// replicated commit the origin is still driving, and answers Retry to
	// competing RMWs on the same key until the commit (or an explicit clear,
	// the origin's death, or this member's re-seed) releases the pin. Guarded
	// by homeMu — the pin is only ever consulted where the shard state it
	// protects is consulted. pinWake is closed by the next release of any of
	// this worker's pins (unpinLocked) and made lazily by the first RMW of
	// this node that parks on one (pinWait); nil while nobody waits.
	rmwPins map[uint64]rmwPin
	pinWake chan struct{}

	// sessQ feeds this worker's session lane (session.go): client-edge
	// requests steered here by key hash, served in overlapped bursts.
	sessQ chan sessJob
}

// workerFor returns the worker owning key's stripe.
func (n *Node) workerFor(key uint64) *worker {
	return n.workers[n.cluster.cfg.workerOf(key)]
}

// New builds and starts a fully in-process cluster over a ChanTransport —
// the default harness for experiments and tests.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	stats := fabric.NewStats()
	var tr fabric.Transport = fabric.NewChanTransport(cfg.QueueDepth, stats)
	if cfg.ReorderDepth > 0 {
		tr = fabric.NewReorder(tr, cfg.ReorderDepth, cfg.ReorderSeed|1)
	}
	return NewWithTransport(cfg, tr, stats)
}

// NewWithTransport builds and starts a cluster whose nodes all live in this
// process but exchange messages over the given transport. stats should be
// the block the transport accounts into (nil allocates an unattached one).
func NewWithTransport(cfg Config, tr fabric.Transport, stats *fabric.Stats) (*Cluster, error) {
	return build(cfg, tr, stats, -1)
}

// NewMember builds and starts ONE node of a multi-process deployment: the
// cluster view holds only node self, and every remote access, consistency
// message and reconfiguration RPC crosses the injected transport (a
// TCPTransport with the peer table filled in, or a ChanTransport shared by
// several members of the same process in tests). All members must run an
// identical Config. The caller populates the local shard (Populate writes
// only locally-homed keys in member form) and bootstraps the hot set with
// ApplyHotSet from any one member once its peers are reachable.
func NewMember(cfg Config, self int, tr fabric.Transport, stats *fabric.Stats) (*Cluster, error) {
	return build(cfg, tr, stats, self)
}

// build assembles the node set: every node for self < 0, exactly one
// otherwise.
func build(cfg Config, tr fabric.Transport, stats *fabric.Stats, self int) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if self >= cfg.Nodes {
		return nil, fmt.Errorf("cluster: member id %d out of range [0,%d)", self, cfg.Nodes)
	}
	if stats == nil {
		stats = fabric.NewStats()
	}
	c := &Cluster{
		cfg:       cfg,
		stats:     stats,
		transport: tr,
		member:    self >= 0,
		self:      self,
		stop:      make(chan struct{}),
	}
	if ct, ok := tr.(interface{ SendCopiesData() bool }); ok {
		c.trCopies = ct.SendCopiesData()
	}
	c.view.Store(&View{live: core.FullNodeSet(cfg.Nodes), n: cfg.Nodes})
	c.lastPong = make([]atomic.Int64, cfg.Nodes)
	c.syncSources = map[uint8]struct{}{}
	c.reseeding = map[uint8]bool{}
	c.nodes = make([]*Node, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		if c.member && i != self {
			continue
		}
		parts := 1
		if cfg.System == BaseEREW {
			parts = erewPartitions
		}
		n := &Node{
			id:      uint8(i),
			cluster: c,
			kvs:     store.NewPartitioned(parts, int(cfg.NumKeys)/cfg.Nodes+16),
		}
		if cfg.System == CCKVS {
			n.cache = core.NewCache(n.id, cfg.Nodes)
		}
		n.workers = make([]*worker, cfg.WorkersPerNode)
		for w := range n.workers {
			wk := &worker{
				node:      n,
				idx:       w,
				credits:   fabric.NewCredits(),
				seqClocks: map[uint64]uint32{},
				rmwPins:   map[uint64]rmwPin{},
			}
			wk.rpc = newRPCClient(wk)
			wk.pipe = newPeerLanes(n.id, cfg.Nodes, cfg.QueueDepth,
				laneBounds[wireReq]{cfg.BatchMaxMsgs, cfg.BatchMaxBytes, wireReq.encodedSize}, wk.requestFlusher)
			wk.con = newPeerLanes(n.id, cfg.Nodes, cfg.QueueDepth,
				laneBounds[core.Msg]{cfg.BatchMaxMsgs, cfg.BatchMaxBytes, core.Msg.Size}, wk.consistencyFlusher)
			wk.sessQ = make(chan sessJob, cfg.QueueDepth)
			n.workers[w] = wk
		}
		c.nodes[i] = n
		c.locals = append(c.locals, n)
	}
	for _, n := range c.locals {
		n.start()
	}
	// The membership endpoint answers pings and applies gossiped view
	// changes; one per process (in member form the local id, else node 0 —
	// the full in-process form never changes views, every node shares this
	// Cluster).
	tr.Register(fabric.Addr{Node: c.localID(), Thread: threadView}, c.handleView)
	c.startProber()
	return c, nil
}

// Config returns the effective configuration.
func (c *Cluster) Config() Config { return c.cfg }

// FabricStats returns the transport counters (traffic breakdown etc.).
func (c *Cluster) FabricStats() *fabric.Stats { return c.stats }

// NumNodes returns the deployment size (including remote members).
func (c *Cluster) NumNodes() int { return c.cfg.Nodes }

// Node returns node i; nil in member form when i is not the local node.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// LocalNode returns the member's own node (member form), or node 0.
func (c *Cluster) LocalNode() *Node {
	if c.member {
		return c.nodes[c.self]
	}
	return c.nodes[0]
}

// HomeNode returns the node owning key's shard. Like the paper we place
// keys by hash, so the hottest keys scatter across shards. Every member of
// a deployment computes the same placement (it depends only on Config.Nodes).
func (c *Cluster) HomeNode(key uint64) int {
	return HomeOf(key, c.cfg.Nodes)
}

// HomeOf returns the home node of key in a deployment of nodes servers —
// the same placement every member computes. Exported for external
// orchestrators (cmd/cckvs-load) that must reason about key homes, e.g. to
// pick survivor-homed keys for a chaos consistency check.
func HomeOf(key uint64, nodes int) int {
	return int(zipf.Mix64(key^0x7f4a7c15) % uint64(nodes))
}

// ReplicasOf returns the nodes holding key's shard, in priority order: the
// home (HomeOf) followed by its replicas-1 ring successors. The first LIVE
// entry of this list is the key's acting primary — promotion on a view flip
// is implicit in that rule, with no per-key state. Exported for external
// orchestrators that must reason about replica placement under chaos.
func ReplicasOf(key uint64, nodes, replicas int) []int {
	if replicas < 1 {
		replicas = 1
	}
	if replicas > nodes {
		replicas = nodes
	}
	home := HomeOf(key, nodes)
	rs := make([]int, replicas)
	for i := range rs {
		rs[i] = (home + i) % nodes
	}
	return rs
}

// isReplica reports whether node holds a replica of key's shard, without
// allocating the replica list.
func (c *Cluster) isReplica(key uint64, node int) bool {
	d := node - c.HomeNode(key)
	if d < 0 {
		d += c.cfg.Nodes
	}
	return d < c.cfg.ReplicasPerShard
}

// primaryFor returns key's acting primary under view v — the first live
// replica in home order — or -1 when every replica is down (the only case
// that still surfaces ErrHomeDown). With ReplicasPerShard=1 this is exactly
// the old home-or-dead rule.
func (c *Cluster) primaryFor(key uint64, v *View) int {
	home := c.HomeNode(key)
	for i := 0; i < c.cfg.ReplicasPerShard; i++ {
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

// replicated reports whether the deployment runs with shard replication.
func (c *Cluster) replicated() bool { return c.cfg.ReplicasPerShard > 1 }

// Close shuts the cluster down.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.stopOnce.Do(func() { close(c.stop) })
	c.stopProber()
	// Drain the request pipelines while the transport is still up: queued
	// requests flush and their responses complete the waiting callers;
	// anything enqueued from here on fails with ErrPipelineClosed instead
	// of waiting on a response that can no longer arrive. The consistency
	// lanes drain the same way so queued updates/invalidations/acks are
	// still sent before the transport goes down (on TCP a frame still staged
	// when it closes is dropped, as one inside an interrupted write was).
	for _, n := range c.locals {
		for _, wk := range n.workers {
			wk.pipe.close()
			wk.con.close()
		}
	}
	err := c.transport.Close()
	// A response whose send lost the race against the transport close never
	// reached its caller; fail whatever is still pending so no session
	// blocks forever.
	for _, n := range c.locals {
		for _, wk := range n.workers {
			wk.rpc.failAll(ErrPipelineClosed)
		}
	}
	// In-flight re-seed pushes fail fast now that the pipelines are gone;
	// wait them out so no reseed goroutine outlives the cluster.
	c.reseedWG.Wait()
	// Stop the session lanes last: in-flight lane work has already been
	// failed by the pipeline/RPC teardown above, and the write lock pairs
	// with sessEnqueue's read lock so no enqueue races the close.
	c.sessMu.Lock()
	c.sessClosed = true
	for _, n := range c.locals {
		for _, wk := range n.workers {
			close(wk.sessQ)
		}
	}
	c.sessMu.Unlock()
	return err
}

// Populate loads the dataset: every key 0..NumKeys-1 is written to each of
// its replica shards (just the home when unreplicated) with the given value
// size and a zero timestamp. In member form only the local shard is written
// — each process populates its own replicas, and the shards together hold
// the full (replicated) dataset.
func (c *Cluster) Populate() {
	val := make([]byte, c.cfg.ValueSize)
	for k := uint64(0); k < c.cfg.NumKeys; k++ {
		home := c.HomeNode(k)
		written := false
		for i := 0; i < c.cfg.ReplicasPerShard; i++ {
			n := c.nodes[(home+i)%c.cfg.Nodes]
			if n == nil {
				continue
			}
			if !written {
				for j := range val {
					val[j] = byte(k) ^ byte(j)
				}
				written = true
			}
			n.kvs.Put(k, val, timestamp.TS{})
		}
	}
}

// InstallHotSet fills every node's symmetric cache with the given keys
// (typically ranks 0..CacheItems-1), fetching initial values from the home
// shards, and flushes any dirty evicted items home. It is the *bootstrap*
// (full-reinstall) epoch path of §4: the harness acts as an omniscient
// coordinator that reads peer KVS state directly, bypassing the fabric, and
// it offers no write-ordering guarantees against concurrent traffic. Online
// epoch changes under live traffic use ApplyHotSetDelta (reconfig.go), which
// applies only the delta over the RPC fabric.
func (c *Cluster) InstallHotSet(keys []uint64) error {
	if c.cfg.System != CCKVS {
		return nil
	}
	if c.member {
		// A member cannot read peer KVS state directly; the bootstrap runs
		// as an ordinary online epoch change over the RPC fabric instead —
		// which can fail (the peers must already be reachable), unlike the
		// infallible direct path below.
		_, err := c.ApplyHotSet(c.self, keys)
		return err
	}
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	for _, n := range c.nodes {
		wbs := n.cache.Install(keys, func(key uint64) ([]byte, timestamp.TS, bool) {
			home := c.nodes[c.HomeNode(key)]
			v, ts, err := home.kvs.Get(key, nil)
			if err != nil {
				return nil, timestamp.TS{}, false
			}
			return v, ts, true
		})
		for _, wb := range wbs {
			home := c.nodes[c.HomeNode(wb.Key)]
			// PutIfNewer: a peer may already have flushed a newer value.
			_ = home.kvs.PutIfNewer(wb.Key, wb.Value, wb.TS)
		}
	}
	return nil
}

// DefaultHotSet returns the top-k ranks [0, k) — with an unscrambled
// Zipfian workload these are exactly the hottest keys.
func DefaultHotSet(k int) []uint64 {
	keys := make([]uint64, k)
	for i := range keys {
		keys[i] = uint64(i)
	}
	return keys
}

// start registers the node's fabric handlers and initializes credits.
func (n *Node) start() {
	cfg := n.cluster.cfg
	tr := n.cluster.transport

	for _, wk := range n.workers {
		wk := wk
		for peer := 0; peer < cfg.Nodes; peer++ {
			if peer == int(n.id) {
				continue
			}
			// One budget per remote node for each traffic kind, per worker:
			// every bank member has its own receive queue at the peer, so
			// every bank member gets its own in-flight budget toward it.
			wk.credits.SetBudget(fabric.Addr{Node: uint8(peer), Thread: cfg.cacheThread(wk.idx)}, cfg.CreditsPerPeer)
			wk.credits.SetBudget(fabric.Addr{Node: uint8(peer), Thread: cfg.kvsThread(wk.idx)}, cfg.CreditsPerPeer)
		}
		wk.cbatch = fabric.NewCreditBatcher(cfg.creditBatch(), func(peer fabric.Addr, cnt int) {
			// Header-only credit update (§6.4): the count rides in a 2-byte
			// payload (count, bank thread) so the receiver can restore that
			// many credits to the right worker's budget.
			tr.Send(fabric.Packet{
				Src:   fabric.Addr{Node: n.id, Thread: threadFlow},
				Dst:   fabric.Addr{Node: peer.Node, Thread: threadFlow},
				Class: metrics.ClassFlowControl,
				Data:  []byte{byte(cnt), peer.Thread},
			})
		})

		// Handler lifetime (fabric.TCPTransport): p.Data is a window of the
		// connection's receive buffer, dead the moment the handler returns
		// (race builds poison it). Every handler registered here finishes with
		// the bytes before it does: handleConsistency decodes messages whose
		// values alias the packet and applies them synchronously — core copies
		// under the entry lock; handleKVSRequest serves each request entry
		// before the next (store and cache copy what they keep, rmwCompute's
		// closure dies with the call); rpc.handleResponse and Client.onResponse
		// copy the payload out; handleSession copies put/CAS values into the
		// batch's own backing and a refresh's keys into a fresh slice before
		// either leaves the goroutine; handleView and handleFlowControl read
		// scalars.
		tr.Register(fabric.Addr{Node: n.id, Thread: cfg.cacheThread(wk.idx)}, wk.handleConsistency)
		tr.Register(fabric.Addr{Node: n.id, Thread: cfg.kvsThread(wk.idx)}, n.handleKVSRequest)
		tr.Register(fabric.Addr{Node: n.id, Thread: cfg.respThread(wk.idx)}, wk.rpc.handleResponse)
	}
	tr.Register(fabric.Addr{Node: n.id, Thread: threadFlow}, n.handleFlowControl)
	tr.Register(fabric.Addr{Node: n.id, Thread: threadSession}, n.handleSession)
	for _, wk := range n.workers {
		go n.sessionLane(wk.sessQ)
	}
}

// handleFlowControl restores credits granted by a peer's credit update to
// the budget of the worker whose bank thread the payload names.
func (n *Node) handleFlowControl(p fabric.Packet) {
	r := wire.NewReader(p.Data)
	credits, th := r.U8(), r.U8()
	if n.cluster.killed.Load() || !r.Ok() {
		return
	}
	w := int(th) - int(threadBankBase)
	if w < 0 || w >= len(n.workers) {
		return // not a cache-bank thread of this deployment's layout
	}
	n.workers[w].credits.Grant(fabric.Addr{Node: p.Src.Node, Thread: th}, int(credits))
}

// handleConsistency processes updates, invalidations and acks addressed to
// this worker's cache thread. Consistency messages may arrive coalesced;
// the decode loop walks the whole packet. Key steering guarantees every
// message for a key lands on the same worker on every node.
func (wk *worker) handleConsistency(p fabric.Packet) {
	n := wk.node
	if n.cache == nil || n.cluster.killed.Load() {
		return
	}
	// Consistency messages consume receive buffers; note them toward the
	// sender's batched credit updates, tagged with this worker's bank
	// thread so the sender restores the right per-worker budget.
	wk.cbatch.Note(fabric.Addr{Node: p.Src.Node, Thread: p.Dst.Thread})

	buf := p.Data
	for len(buf) > 0 {
		m, consumed, err := core.Decode(buf)
		if err != nil {
			return // malformed tail; drop (datagram semantics)
		}
		buf = buf[consumed:]
		switch m.Type {
		case core.MsgUpdate:
			upd := core.Update{Key: m.Key, TS: m.TS, Value: m.Value}
			if n.cluster.cfg.Protocol == core.Lin {
				n.cache.ApplyUpdateLin(upd)
			} else {
				n.cache.ApplyUpdateSC(upd)
			}
		case core.MsgInvalidation:
			ack, _ := n.cache.ApplyInvalidation(core.Invalidation{Key: m.Key, TS: m.TS, From: m.From})
			n.sendAck(m.From, ack)
		case core.MsgAck:
			if upd, done := n.cache.ApplyAck(core.Ack{Key: m.Key, TS: m.TS, From: m.From}); done {
				n.completeLinWrite(upd)
			}
		}
	}
}

// sendAck returns an ack to the writer node for the key's worker (the
// writer's ack accounting lives on that worker's stripe). The ack rides the
// worker's consistency lane toward the writer, so it piggybacks onto any
// update/invalidation packet already headed there. This runs on the receive
// dispatcher, hence post: it never blocks on a full lane.
func (n *Node) sendAck(to uint8, ack core.Ack) {
	n.workerFor(ack.Key).postConsistency(to, ack.Msg())
}

// broadcastUpdate fans an update out to every live peer via the key's
// worker's consistency lanes: from the session that wrote it, where a full
// lane is backpressure on the writer (mayBlock), or from a receive dispatcher.
// The value slice is enqueued as-is on every lane — core hands out
// freshly-copied, immutable values, so coalescing never re-copies them; on
// zero-copy transports they go to the wire as their own packet segments.
func (n *Node) broadcastUpdate(upd core.Update, mayBlock bool) {
	n.broadcastConsistency(upd.Msg(), mayBlock)
}

// broadcastConsistency hands one consistency message to the key's worker's
// lane toward every *live* node — enqueued when the caller may block on a
// full lane (a session), posted when it may not (a receive dispatcher). Dead
// peers are skipped here — no enqueue, no credit — and a peer excised after
// the enqueue is handled by the lane sender: the view change dropped its
// budget, so the sender's per-packet Acquire returns false and the queued
// batch toward it is discarded (mirroring how pipeline senders fail queued
// requests).
func (n *Node) broadcastConsistency(m core.Msg, mayBlock bool) {
	wk := n.workerFor(m.Key)
	view := n.cluster.view.Load()
	for peer := 0; peer < n.cluster.cfg.Nodes; peer++ {
		if peer == int(n.id) || !view.Live(peer) {
			continue
		}
		if mayBlock {
			// Refused only by closed lanes, which drop the message: consistency
			// traffic is fire-and-forget, as on a closed transport.
			wk.con.enqueue(uint8(peer), m)
		} else {
			wk.postConsistency(uint8(peer), m)
		}
	}
}

// startLinWrite puts a staged Lin write (§5.2) on the wire: inv is what
// core.WriteLinStart — or RMWLinStart, with its fused read-compute — returned
// for it. It is the one way a Lin write starts, for plain puts, local hot
// RMWs and remote ones served here alike; completeLinWrite is the one way it
// ends. Staging made the entry refuse further local writes to the key
// (core.ErrWritePending — the key's node-local write mutex) and stamped the
// write; whoever waits for it waits on that stamp (awaitLinWrite), so nothing
// is registered here and the caller need not wait at all. mayBlock is false
// on a receive dispatcher.
func (n *Node) startLinWrite(inv core.Invalidation, mayBlock bool) {
	n.broadcastConsistency(inv.Msg(), mayBlock)
	// A view flip may have excised a counted peer between the write's
	// live-set snapshot and the broadcast — or this node may be the only live
	// member — in which case no further ack will arrive; re-run the completion
	// check so the write can never wait on a peer that is gone. Guarded by one
	// atomic view load: at full membership (the common case) no recheck — and
	// no second entry-lock acquisition — is needed, and flips after this point
	// are covered by Cache.SetLive's scan.
	if v := n.cluster.view.Load(); v.LiveCount() < n.cluster.cfg.Nodes {
		if upd, done := n.cache.RecheckPending(inv.Key); done {
			n.completeLinWrite(upd)
		}
	}
}

// completeLinWrite finishes a Lin write whose last required ack is in — upd
// is what core handed back with done=true (ApplyAck on the consistency
// dispatcher, SetLive under a view flip, startLinWrite's recheck). The
// completer publishes the update itself, never blocking (post), so no update
// ever depends on the writer's lane or session being runnable: a reader
// parked on the invalidated entry at another node is released by dispatchers
// alone, whatever the lanes are waiting for (exec.go, I1). The writer and any
// writer queued behind it were already woken inside core, under the entry
// lock that completed the write.
//
// On a shrunken view it additionally checks for an orphaned conflict-lost
// write: if this completion lost to a winner that has since left the view,
// the winner's update can never arrive, and the acknowledged staged value
// must be re-driven through a fresh write (on its own goroutine — the
// re-publish waits for live acks, and this may be called under viewMu).
func (n *Node) completeLinWrite(upd core.Update) {
	n.broadcastUpdate(upd, false)
	if v := n.cluster.view.Load(); v.LiveCount() < n.cluster.cfg.Nodes {
		if u, ok := n.cache.TakeOrphanedLoserWrite(upd.Key); ok {
			go func() { _ = n.Put(u.Key, u.Value) }()
		}
	}
}

// yield gives up the processor between two re-asks of a peer over the wire
// (opFinish, fanOut): what a peer's "not yet" waits for happens on that peer,
// and nothing on this node can wake the caller. Every local "not yet" parks
// instead (ops.go: park).
func yield() { runtime.Gosched() }
