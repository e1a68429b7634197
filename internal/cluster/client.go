package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/wire"
)

// Client drives a deployment through the session layer: it holds a fabric
// endpoint of its own (a node id outside the server range) and may send any
// request to any node — the black-box abstraction's client. One Client is
// safe for concurrent use by many goroutines; each in-flight request is
// matched to its caller by request id, so a single TCP connection per server
// carries the whole process's traffic.
//
// The connection is pipelined: up to WithPipelineWindow in-flight requests per
// server ride the wire concurrently (callers block for a window slot beyond
// that). Every operation travels as an entry of a batch frame: Batch/MultiGet/
// MultiPut pack many into one, a point call sends a frame of one, and
// WithAutoBatch transparently coalesces concurrent point callers into shared
// frames — the client edge's version of the fabric's request coalescing.
type Client struct {
	id      uint8
	tr      fabric.Transport
	owns    bool
	nodes   int
	timeout time.Duration
	// trCopies mirrors Cluster.trCopies: the transport serializes packet
	// data during Send, so encode buffers can be pooled and reused.
	trCopies bool

	// winCh[node] is the pipelining window: one slot per in-flight request
	// toward that server. A slot is acquired before a request registers and
	// released exactly once, when its pending entry is removed.
	winCh []chan struct{}

	nextID atomic.Uint64
	// ab, when non-nil (WithAutoBatch), routes point ops through per-node
	// auto-batchers.
	ab []*autoBatch

	mu     sync.Mutex
	closed bool
	pend   map[uint64]sessPending
}

type sessPending struct {
	ch   chan sessResult
	node uint8
}

// sessResult is one response as staged by onResponse. lease, when non-nil,
// is the pooled buffer backing payload; the receiver of the result owns one
// reference on it.
type sessResult struct {
	status  byte
	payload []byte
	lease   *respLease
	err     error
}

// respLease refcounts one pooled response-payload buffer. Every Result
// decoded out of the buffer holds one reference; the exchange that received
// it holds one more until decoding finishes. When the last reference drops
// the buffer returns to the pool for the next response — so a released
// Result's Value must never be read again (enable poisonReleasedBufs to make
// that bug deterministic instead of a silent corruption).
type respLease struct {
	refs atomic.Int32
	buf  []byte
}

var respLeasePool = sync.Pool{New: func() any { return new(respLease) }}

// poisonReleasedBufs scribbles 0xDD over a response buffer the moment its
// last reference drops, turning any use-after-Release into a loud,
// deterministic failure. On by default in -race builds (the debug
// configuration); tests may force it on.
var poisonReleasedBufs = raceBuild

// release drops one reference; nil leases (by-reference transports, where
// the payload needs no pooling) are a no-op.
func (l *respLease) release() {
	if l == nil {
		return
	}
	if l.refs.Add(-1) == 0 {
		if poisonReleasedBufs {
			for i := range l.buf {
				l.buf[i] = 0xDD
			}
		}
		respLeasePool.Put(l)
	}
}

// defaultPipelineWindow bounds in-flight requests per server connection.
const defaultPipelineWindow = 256

// sessChPool recycles completion channels across calls (buffered so a
// completer never blocks on an abandoned call).
var sessChPool = sync.Pool{New: func() any { return make(chan sessResult, 1) }}

// abChPool recycles the auto-batcher's per-op completion channels.
var abChPool = sync.Pool{New: func() any { return make(chan Result, 1) }}

// timerPool recycles timeout timers across calls; pooled timers are always
// stopped and drained.
var timerPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return t
}}

// ClientOption configures a Client at construction (NewClient, DialTCP).
type ClientOption func(*Client)

// WithPipelineWindow bounds the in-flight requests per server connection
// (default 256): callers beyond the window block until a slot frees.
func WithPipelineWindow(w int) ClientOption {
	return func(cl *Client) {
		for i := range cl.winCh {
			cl.winCh[i] = make(chan struct{}, max(w, 1))
		}
	}
}

// WithAutoBatch routes the client's point calls (Get, Put, CompareAndSwap,
// FetchAndAdd) through per-node auto-batchers: concurrent operations are
// coalesced into one batch frame,
// flushed when maxOps accumulate or the armed delay passes since the batch
// opened, whichever comes first — the client edge's version of the fabric's
// request coalescing. maxDelay (default 200µs) is a ceiling, not a fixed
// delay: the armed delay adapts to load, collapsing toward maxDelay/16 when
// recent batches ran near empty and widening back as they fill (a lone
// caller skips the timer entirely). Callers still observe per-op results
// and errors; batching only changes the framing. maxOps <= 1 leaves
// auto-batching off.
func WithAutoBatch(maxOps int, maxDelay time.Duration) ClientOption {
	return func(cl *Client) {
		if maxOps <= 1 {
			return
		}
		if maxDelay <= 0 {
			maxDelay = 200 * time.Microsecond
		}
		maxOps = min(maxOps, sessBatchMaxOps)
		floor := min(max(maxDelay/16, time.Microsecond), maxDelay)
		cl.ab = make([]*autoBatch, cl.nodes)
		for i := range cl.ab {
			a := &autoBatch{cl: cl, node: uint8(i), maxOps: maxOps, delay: maxDelay, floor: floor}
			a.timer = time.AfterFunc(time.Hour, a.flushTimed)
			a.timer.Stop()
			cl.ab[i] = a
		}
	}
}

// WithTimeout bounds each call (default 10s).
func WithTimeout(d time.Duration) ClientOption {
	return func(cl *Client) { cl.timeout = d }
}

// NewClient attaches a client with fabric id to an existing transport —
// typically the ChanTransport of an in-process cluster (tests) — serving a
// deployment of nodes servers. id must not collide with any server node id.
func NewClient(id uint8, nodes int, tr fabric.Transport, opts ...ClientOption) *Client {
	cl := &Client{
		id:      id,
		tr:      tr,
		nodes:   nodes,
		timeout: 10 * time.Second,
		pend:    map[uint64]sessPending{},
	}
	if ct, ok := tr.(interface{ SendCopiesData() bool }); ok {
		cl.trCopies = ct.SendCopiesData()
	}
	cl.winCh = make([]chan struct{}, nodes)
	for i := range cl.winCh {
		cl.winCh[i] = make(chan struct{}, defaultPipelineWindow)
	}
	for _, opt := range opts {
		opt(cl)
	}
	tr.Register(fabric.Addr{Node: id, Thread: threadSession}, cl.onResponse)
	return cl
}

// DialTCP connects a client to a multi-process deployment: peers lists the
// server listen addresses indexed by node id. The client owns its transport
// (an ephemeral loopback listener for the return route) and fails pending
// calls to a server the moment its connection drops.
func DialTCP(id uint8, peers []string, opts ...ClientOption) (*Client, error) {
	tr, err := fabric.NewTCPTransport(id, "127.0.0.1:0", fabric.NewStats())
	if err != nil {
		return nil, err
	}
	cl := NewClient(id, len(peers), tr, opts...)
	cl.owns = true
	for i, addr := range peers {
		tr.AddPeer(uint8(i), addr)
	}
	tr.SetPeerDownHandler(func(node uint8, cause error) {
		cl.failNode(node, fmt.Errorf("%w: server node %d connection lost: %v", ErrNodeUnreachable, node, cause))
	})
	return cl, nil
}

// NumNodes returns the deployment size the client was built for.
func (cl *Client) NumNodes() int { return cl.nodes }

// Close fails every pending call and, if the client owns its transport,
// closes it. Operations buffered in an auto-batcher complete with
// ErrClientClosed.
func (cl *Client) Close() error {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil
	}
	cl.closed = true
	pend := cl.pend
	cl.pend = map[uint64]sessPending{}
	cl.mu.Unlock()
	for _, p := range pend {
		p.ch <- sessResult{err: ErrClientClosed}
		cl.releaseSlot(p.node)
	}
	// Flush after the closed flag is visible: the flush's batch calls fail
	// fast with ErrClientClosed, completing every buffered operation.
	for _, a := range cl.ab {
		a.flushTimed()
	}
	if cl.owns {
		return cl.tr.Close()
	}
	return nil
}

// onResponse completes the pending call named by the response's request id.
func (cl *Client) onResponse(p fabric.Packet) {
	r := wire.NewReader(p.Data)
	id, status := r.U64(), r.U8()
	if !r.Ok() {
		return
	}
	payload := r.Rest()
	cl.mu.Lock()
	pd, ok := cl.pend[id]
	if ok {
		delete(cl.pend, id)
	}
	cl.mu.Unlock()
	if !ok {
		return // abandoned (timed out) or duplicate; nothing waits
	}
	res := sessResult{status: status}
	if !cl.trCopies {
		// By-reference transport: the server builds a fresh response buffer
		// per reply (it only pools encode buffers on copying transports), so
		// the payload is ours to alias — the zero-copy receive path.
		res.payload = payload
	} else {
		// Copying transport: the packet buffer is reused after this handler,
		// so stage the payload in a pooled refcounted buffer. Decoded Results
		// inherit references and the last Release returns the buffer.
		l := respLeasePool.Get().(*respLease)
		l.refs.Store(1)
		l.buf = append(l.buf[:0], payload...)
		res.payload = l.buf
		res.lease = l
	}
	pd.ch <- res
	cl.releaseSlot(pd.node)
}

// failNode fails every pending call addressed to node (peer-down handling).
func (cl *Client) failNode(node uint8, err error) {
	cl.mu.Lock()
	var chs []chan sessResult
	for id, p := range cl.pend {
		if p.node == node {
			delete(cl.pend, id)
			chs = append(chs, p.ch)
		}
	}
	cl.mu.Unlock()
	for _, ch := range chs {
		ch <- sessResult{err: err}
		cl.releaseSlot(node)
	}
}

// acquireSlot blocks until the node's pipelining window has room.
func (cl *Client) acquireSlot(node uint8) {
	if int(node) < len(cl.winCh) {
		cl.winCh[node] <- struct{}{}
	}
}

// releaseSlot returns a window slot; called exactly once per removed pending
// entry (completion, node failure, timeout, close).
func (cl *Client) releaseSlot(node uint8) {
	if int(node) < len(cl.winCh) {
		<-cl.winCh[node]
	}
}

// take removes a pending call (send failure or timeout), reporting whether
// this caller won the race against a concurrent completer. The winner owns
// the completion channel.
func (cl *Client) take(id uint64) bool {
	cl.mu.Lock()
	p, ok := cl.pend[id]
	if ok {
		delete(cl.pend, id)
	}
	cl.mu.Unlock()
	if ok {
		cl.releaseSlot(p.node)
	}
	return ok
}

// newFrame returns an encode buffer for one request frame: pooled when the
// transport copies on send, fresh otherwise (a by-reference transport keeps
// the buffer alive past Send).
func (cl *Client) newFrame(capHint int) ([]byte, *srvBuf) {
	if cl.trCopies {
		p := respBufPool.Get().(*srvBuf)
		return p.b[:0], p
	}
	return make([]byte, 0, capHint), nil
}

// exchange sends one encoded request frame to node and waits for its
// response or the timeout. It owns the frame: pooled buffers are recycled
// once the transport is done with them. The caller owns the result's lease
// reference. A timed-out exchange abandons its channel, so a lease parked
// there falls to the garbage collector rather than the pool — safe, just
// unrecycled.
func (cl *Client) exchange(node uint8, id uint64, frame []byte, pooled *srvBuf, timeout time.Duration) (sessResult, error) {
	cl.acquireSlot(node)
	ch := sessChPool.Get().(chan sessResult)
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		cl.releaseSlot(node)
		sessChPool.Put(ch)
		if pooled != nil {
			pooled.b = frame
			respBufPool.Put(pooled)
		}
		return sessResult{}, ErrClientClosed
	}
	cl.pend[id] = sessPending{ch: ch, node: node}
	cl.mu.Unlock()

	err := cl.tr.Send(fabric.Packet{
		Src:   fabric.Addr{Node: cl.id, Thread: threadSession},
		Dst:   fabric.Addr{Node: node, Thread: threadSession},
		Class: metrics.ClassCacheMiss,
		Data:  frame,
	})
	if pooled != nil {
		pooled.b = frame
		respBufPool.Put(pooled)
	}
	if err != nil {
		if cl.take(id) {
			sessChPool.Put(ch)
		}
		return sessResult{}, fmt.Errorf("%w: node %d: %v", ErrNodeUnreachable, node, err)
	}
	t := timerPool.Get().(*time.Timer)
	t.Reset(timeout)
	select {
	case res := <-ch:
		if !t.Stop() {
			<-t.C
		}
		timerPool.Put(t)
		sessChPool.Put(ch)
		if res.err != nil {
			return sessResult{}, res.err
		}
		return res, nil
	case <-t.C:
		timerPool.Put(t)
		if cl.take(id) {
			sessChPool.Put(ch)
		}
		// Losing the take race means a completer owns ch; it is buffered, so
		// the completer never blocks — the channel is simply abandoned.
		return sessResult{}, fmt.Errorf("%w (node %d)", ErrSessionTimeout, node)
	}
}

// mapStatus converts a frame-level response status into its error; per-op
// statuses live inside a batch response's entries (decodeBatch).
func (cl *Client) mapStatus(node uint8, res sessResult) error {
	switch res.status {
	case sessStatusOK:
		return nil
	case sessStatusErr:
		return fmt.Errorf("cluster: node %d: %s", node, sessErrorText(res.payload))
	case sessStatusBad:
		return fmt.Errorf("cluster: node %d rejected session request (bad request)", node)
	}
	return fmt.Errorf("cluster: node %d: unexpected frame status %d", node, res.status)
}

// callT sends one control frame (ping, stats, refresh) to node and waits for
// its response or the timeout (ready probes poll fast; epoch changes get
// extra room). The returned payload is the caller's own.
func (cl *Client) callT(node uint8, op byte, body []byte, timeout time.Duration) ([]byte, error) {
	id := cl.nextID.Add(1)
	frame, pooled := cl.newFrame(sessHeader + len(body))
	frame = append(frame, op)
	frame = binary.LittleEndian.AppendUint64(frame, id)
	frame = append(frame, body...)
	res, err := cl.exchange(node, id, frame, pooled, timeout)
	if err != nil {
		return nil, err
	}
	defer res.lease.release()
	if err := cl.mapStatus(node, res); err != nil {
		return nil, err
	}
	return append([]byte(nil), res.payload...), nil
}

// sessErrorText decodes the message of a sessStatusErr payload.
func sessErrorText(payload []byte) string {
	r := wire.NewReader(payload)
	msg := r.Bytes()
	if !r.Ok() {
		return "(truncated message)"
	}
	return string(msg)
}

// Ping checks that node answers session requests.
func (cl *Client) Ping(node int) error {
	_, err := cl.callT(uint8(node), sessOpPing, nil, cl.timeout)
	return err
}

// WaitReady pings every node until all answer or the deadline passes — the
// barrier a load generator runs before traffic, so racing a deployment's
// startup cannot be mistaken for a protocol failure.
func (cl *Client) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for node := 0; node < cl.nodes; node++ {
		for {
			_, err := cl.callT(uint8(node), sessOpPing, nil, 500*time.Millisecond)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster: node %d not ready after %v: %w", node, timeout, err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return nil
}

// do runs one point operation through node's session layer: an entry of the
// node's auto-batcher when auto-batching is on, else a batch frame of its own.
// Framing never changes what the caller gets back: the op's own error, and a
// value it owns outright — detached from the frame's receive buffer, which is
// released here on every path.
func (cl *Client) do(node int, op Op) ([]byte, error) {
	var r Result
	if node >= 0 && node < len(cl.ab) {
		r = cl.ab[node].do(op)
	} else {
		ops, rs := [1]Op{op}, [1]Result{}
		_ = cl.batchChunk(node, ops[:], rs[:]) // a frame failure is rs[0].Err too
		r = rs[0]
	}
	v := r.Value
	if r.lease != nil {
		v = r.ValueCopy()
		r.Release()
	}
	return v, r.Err
}

// Get reads key through node's session layer (any node serves any key).
// Absent keys return store.ErrNotFound.
func (cl *Client) Get(node int, key uint64) ([]byte, error) {
	return cl.do(node, Op{Key: key})
}

// Put writes key through node's session layer.
func (cl *Client) Put(node int, key uint64, value []byte) error {
	_, err := cl.do(node, Op{Kind: OpPut, Key: key, Value: value})
	return err
}

// CompareAndSwap atomically replaces key's value with newVal iff the stored
// value equals expect (nil/empty expect matches a missing key). It executes
// exactly once at the key's serialization point in the cluster; witness is
// the value the comparison observed, so a failed CAS needs no extra read
// before retrying. A transport failure mid-op server-side surfaces as an
// error naming the unknown outcome (ErrRMWUnknown at the node API) — the op
// may or may not have applied, and neither the server nor this client will
// guess by re-running it.
func (cl *Client) CompareAndSwap(node int, key uint64, expect, newVal []byte) (witness []byte, swapped bool, err error) {
	witness, err = cl.do(node, Op{Kind: OpCAS, Key: key, Expect: expect, Value: newVal})
	if errors.Is(err, ErrCASMismatch) {
		return witness, false, nil
	}
	return witness, err == nil, err
}

// FetchAndAdd atomically adds delta to the 8-byte big-endian counter stored
// under key (a missing key counts from 0 — see EncodeCounter) and returns
// the pre-add value. The addition happens server-side at the key's
// serialization point: a hot contended counter costs one exchange per op
// instead of a CAS retry loop over the wire.
func (cl *Client) FetchAndAdd(node int, key uint64, delta uint64) (old uint64, err error) {
	v, err := cl.do(node, Op{Kind: OpFAA, Key: key, Delta: delta})
	if err != nil {
		return 0, err
	}
	return DecodeCounter(v)
}

// OpKind names one of the session layer's operations.
type OpKind uint8

const (
	OpGet OpKind = iota
	OpPut
	// OpCAS compares the stored value to Expect and, on a match, atomically
	// replaces it with Value. nil/empty Expect matches a missing key.
	OpCAS
	// OpFAA atomically adds Delta to the 8-byte big-endian counter stored
	// under Key (a missing key counts from 0) — see EncodeCounter.
	OpFAA
)

// Op is one operation of the unified client surface: Batch, MultiGet,
// MultiPut, the point calls and the auto-batcher all speak it. Zero value is a
// get of Key.
type Op struct {
	Kind   OpKind
	Key    uint64
	Value  []byte // put/cas: the (replacement) value
	Expect []byte // cas only: the expected current value
	Delta  uint64 // faa only
}

// Result is one operation's outcome. Value carries the read value (get), the
// witnessed value (cas — on both success and ErrCASMismatch), or the 8-byte
// pre-add counter (faa). Err is the per-op error: store.ErrNotFound for
// absent keys, ErrCASMismatch for a failed comparison, a wrapped ErrHomeDown
// when the key's home left the view, ErrNodeUnreachable / ErrSessionTimeout /
// ErrClientClosed when the op's frame failed.
//
// Value ownership: on a copying transport (TCP), a Batch Result's Value
// aliases a pooled response buffer shared by the whole frame. Callers that
// are done with Value should call Release so the buffer can be recycled;
// callers that keep values past the batch must take ValueCopy first. Never
// calling Release is always safe — the buffer just falls to the garbage
// collector instead of the pool. The point calls (Get, CompareAndSwap,
// FetchAndAdd) do both for their caller: what they return is never pooled.
type Result struct {
	Value []byte
	Err   error

	lease    *respLease
	released bool
}

// Release hands Value's backing buffer back to the client's response pool
// (once every Result of the same batch released) and nils Value. Idempotent.
// Reading a previously-taken alias of Value after Release is a
// use-after-free against the pool; -race builds poison the buffer to make
// that deterministic.
func (r *Result) Release() {
	if r.released {
		return
	}
	r.released = true
	l := r.lease
	r.lease = nil
	r.Value = nil
	l.release()
}

// ValueCopy returns a copy of Value that survives Release — the safe default
// for callers that hold values past the batch.
func (r *Result) ValueCopy() []byte {
	if r.Value == nil {
		return nil
	}
	return append([]byte(nil), r.Value...)
}

// Batch executes ops against node in one round trip (chunked transparently
// when a frame would exceed the server's batch limits). The result slice
// always has len(ops), in request order, with per-op outcomes; the error
// return reports the first frame-level failure (unreachable node, timeout) —
// per-op statuses such as an absent key never raise it.
func (cl *Client) Batch(node int, ops []Op) ([]Result, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	rs := make([]Result, len(ops))
	var firstErr error
	dead := false
	start := 0
	bytes := 4
	for i := 0; i <= len(ops); i++ {
		need := 0
		if i < len(ops) {
			need = sessEntrySize(&ops[i])
		}
		full := i-start >= sessBatchMaxOps || (i > start && bytes+need > sessBatchMaxBytes)
		if i == len(ops) || full {
			if dead {
				// An earlier chunk of this call already proved the node
				// unreachable (or timed out waiting on it): fail the rest
				// immediately instead of burning one full timeout per
				// remaining chunk against the same dead connection.
				for j := start; j < i; j++ {
					rs[j] = Result{Err: firstErr}
				}
			} else if err := cl.batchChunk(node, ops[start:i], rs[start:i]); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				if errors.Is(err, ErrNodeUnreachable) || errors.Is(err, ErrSessionTimeout) {
					dead = true
				}
			}
			start = i
			bytes = 4
		}
		bytes += need
	}
	return rs, firstErr
}

// batchChunk sends one batch frame and decodes its results in place. A
// frame-level failure is both returned and fanned out to every op of the
// chunk, so callers that only look at per-op results still observe it.
func (cl *Client) batchChunk(node int, ops []Op, rs []Result) error {
	id := cl.nextID.Add(1)
	size := sessHeader + 4
	for i := range ops {
		size += sessEntrySize(&ops[i])
	}
	frame, pooled := cl.newFrame(size)
	frame = append(frame, sessOpBatch)
	frame = binary.LittleEndian.AppendUint64(frame, id)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(ops)))
	for i := range ops {
		frame = appendSessEntry(frame, &ops[i])
	}
	res, err := cl.exchange(uint8(node), id, frame, pooled, cl.timeout)
	if err == nil {
		if err = cl.mapStatus(uint8(node), res); err == nil {
			err = cl.decodeBatch(node, ops, rs, res.payload, res.lease)
		}
		res.lease.release() // value-bearing Results hold their own refs now
	}
	if err != nil {
		for i := range rs {
			rs[i] = Result{Err: err}
		}
	}
	return err
}

// decodeBatch unpacks a batch response's per-op entries into rs. The request
// ops disambiguate bare-OK puts from value-framed gets/RMWs. lease, when
// non-nil, is the pooled buffer backing payload: every value-bearing Result
// takes one reference on it (released by the caller via Result.Release).
func (cl *Client) decodeBatch(node int, ops []Op, rs []Result, payload []byte, lease *respLease) error {
	malformed := func() error {
		// Unwind the references handed to already-decoded Results: the caller
		// overwrites rs wholesale on a decode error.
		for j := range rs {
			if rs[j].lease != nil {
				rs[j].lease.release()
				rs[j].lease = nil
				rs[j].Value = nil
			}
		}
		return fmt.Errorf("cluster: malformed batch response from node %d", node)
	}
	r := wire.NewReader(payload)
	if r.Count(1, len(ops)) != len(ops) || !r.Ok() {
		return malformed()
	}
	for i := range ops {
		switch status := r.U8(); status {
		case sessStatusOK, sessStatusCASFail:
			if ops[i].Kind == OpPut {
				break // bare status, no payload
			}
			rs[i].Value = r.Bytes()
			if lease != nil {
				lease.refs.Add(1)
				rs[i].lease = lease
			}
			if status == sessStatusCASFail {
				rs[i].Err = ErrCASMismatch
			}
		case sessStatusNotFound:
			rs[i].Err = store.ErrNotFound
		case sessStatusHomeDown:
			rs[i].Err = fmt.Errorf("node %d reports %w", node, ErrHomeDown)
		case sessStatusErr:
			rs[i].Err = fmt.Errorf("cluster: node %d: %s", node, r.Bytes())
		default:
			rs[i].Err = fmt.Errorf("cluster: node %d: unexpected batch op status %d", node, status)
		}
		if !r.Ok() {
			return malformed()
		}
	}
	return nil
}

// MultiGet reads keys through node in one batched round trip. values[i] is
// nil when keys[i] is absent; the first hard failure is returned after the
// whole batch settled — same contract as Node.MultiGet.
func (cl *Client) MultiGet(node int, keys []uint64) ([][]byte, error) {
	ops := make([]Op, len(keys))
	for i, k := range keys {
		ops[i].Key = k
	}
	rs, firstErr := cl.Batch(node, ops)
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

// MultiPut writes keys[i]=values[i] through node in one batched round trip,
// returning the first failure after the whole batch settled.
func (cl *Client) MultiPut(node int, keys []uint64, values [][]byte) error {
	ops := make([]Op, len(keys))
	for i, k := range keys {
		ops[i] = Op{Kind: OpPut, Key: k, Value: values[i]}
	}
	rs, firstErr := cl.Batch(node, ops)
	for i := range rs {
		if rs[i].Err != nil && firstErr == nil {
			firstErr = rs[i].Err
		}
	}
	return firstErr
}

// autoBatch coalesces concurrent point-op callers toward one server into
// batch frames: the first op of a batch arms the flush timer, the maxOps-th
// flushes inline on its caller.
//
// The flush delay is load-adaptive. Arming the configured maximum delay
// regardless of load taxes light traffic with latency it gets nothing for,
// while a tiny fixed delay starves heavy traffic of coalescing. Instead the
// batcher tracks an EWMA of how full recent flushes ran (fill, per-mille of
// maxOps) and arms delay = floor + fill·(max−floor)/1000: near-empty flushes
// collapse the delay to floor (≈max/16), well-fed flushes widen it back
// toward the configured maximum. A lone caller still flushes inline —
// no timer at all — so sequential workloads pay nothing.
type autoBatch struct {
	cl     *Client
	node   uint8
	maxOps int
	delay  time.Duration // configured ceiling (WithAutoBatch maxDelay)
	floor  time.Duration // minimum armed delay (delay/16, at least 1µs)

	// inflight counts callers currently inside do() toward this node. A lone
	// caller (inflight == 1) flushes inline instead of arming the delay: with
	// nobody else around to join the batch, the timer bought no coalescing —
	// it just taxed every sequential op with the full flush delay.
	inflight atomic.Int32

	// fill is the EWMA of flush fill ratio in per-mille of maxOps,
	// fill ← 7/8·fill + 1/8·latest, updated at every flush.
	fill atomic.Int32

	mu    sync.Mutex
	ops   []Op
	chs   []chan Result
	timer *time.Timer
}

// armDelay returns the load-adaptive flush delay to arm for a new batch:
// the larger of the fill EWMA (how full recent batches ran) and the
// instantaneous caller pressure (how many callers are in do() right now)
// scales the delay between floor and ceiling. The pressure term matters on
// the first batches of a burst, before the EWMA has learned anything —
// without it a cold batcher arms the floor, fragments the burst into
// partial flushes, and pays per-frame overhead exactly when coalescing
// is worth the most.
func (a *autoBatch) armDelay() time.Duration {
	f := int32(int(a.inflight.Load()) * 1000 / a.maxOps)
	if ew := a.fill.Load(); ew > f {
		f = ew
	}
	if f > 1000 {
		f = 1000
	}
	return a.floor + time.Duration(f)*(a.delay-a.floor)/1000
}

// noteFill folds one flush's fill ratio into the EWMA.
func (a *autoBatch) noteFill(n int) {
	fill := int32(n * 1000 / a.maxOps)
	if fill > 1000 {
		fill = 1000
	}
	f := a.fill.Load()
	a.fill.Store(f - f/8 + fill/8)
}

// do enqueues one operation and blocks for its result.
func (a *autoBatch) do(op Op) Result {
	ch := abChPool.Get().(chan Result)
	alone := a.inflight.Add(1) == 1
	a.mu.Lock()
	a.ops = append(a.ops, op)
	a.chs = append(a.chs, ch)
	if len(a.ops) >= a.maxOps || (alone && len(a.ops) == 1) {
		ops, chs := a.takeLocked()
		a.mu.Unlock()
		a.run(ops, chs)
	} else {
		if len(a.ops) == 1 {
			a.timer.Reset(a.armDelay())
		}
		a.mu.Unlock()
	}
	r := <-ch
	if a.inflight.Add(-1) > 0 {
		a.flushIfStranded()
	}
	abChPool.Put(ch)
	return r
}

// flushIfStranded flushes the buffered batch when every remaining in-flight
// caller is already parked in it: nobody is left to grow the batch toward
// maxOps, so whatever delay is armed buys no coalescing — it is pure added
// latency. Called by each caller as it finishes; callers still between
// their inflight increment and their enqueue make the count exceed the
// buffer and correctly defer the decision to their own flush checks.
func (a *autoBatch) flushIfStranded() {
	a.mu.Lock()
	if len(a.ops) == 0 || int(a.inflight.Load()) > len(a.ops) {
		a.mu.Unlock()
		return
	}
	ops, chs := a.takeLocked()
	a.mu.Unlock()
	a.run(ops, chs)
}

// takeLocked claims the buffered batch; the caller holds a.mu.
func (a *autoBatch) takeLocked() ([]Op, []chan Result) {
	ops, chs := a.ops, a.chs
	a.ops, a.chs = nil, nil
	a.timer.Stop()
	return ops, chs
}

// flushTimed flushes on the timer (or on close).
func (a *autoBatch) flushTimed() {
	a.mu.Lock()
	ops, chs := a.takeLocked()
	a.mu.Unlock()
	a.run(ops, chs)
}

// run executes one claimed batch and distributes the per-op results.
func (a *autoBatch) run(ops []Op, chs []chan Result) {
	if len(ops) == 0 {
		return
	}
	a.noteFill(len(ops))
	rs, _ := a.cl.Batch(int(a.node), ops)
	for i, ch := range chs {
		ch <- rs[i]
	}
}

// refreshPerKeyT is the per-key deadline slack of a Refresh call: each key
// of the target may be individually frozen, collected, fetched and filled
// across every node of the deployment.
const refreshPerKeyT = 5 * time.Millisecond

// Refresh asks node to reconfigure the deployment's hot set to exactly
// target (an online epoch change driven over the RPC fabric) and reports
// how many keys were promoted and demoted. The deadline scales with the
// size of the requested set: a point-op timeout is far too tight for a
// large epoch change, and a flat multiple of it makes a tiny change wait
// multiples of the base timeout just to report an unreachable node. Use
// RefreshT to bound a call explicitly.
func (cl *Client) Refresh(node int, target []uint64) (promoted, demoted int, err error) {
	return cl.RefreshT(node, target, cl.timeout+time.Duration(len(target))*refreshPerKeyT)
}

// RefreshT is Refresh with an explicit per-call deadline.
func (cl *Client) RefreshT(node int, target []uint64, timeout time.Duration) (promoted, demoted int, err error) {
	body := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+8*len(target)), uint32(len(target)))
	for _, k := range target {
		body = binary.LittleEndian.AppendUint64(body, k)
	}
	payload, err := cl.callT(uint8(node), sessOpRefresh, body, timeout)
	if err != nil {
		return 0, 0, err
	}
	r := wire.NewReader(payload)
	promoted, demoted, _ = int(r.U32()), int(r.U32()), r.U32() // writebacks
	if !r.Ok() {
		return 0, 0, fmt.Errorf("cluster: malformed refresh response from node %d", node)
	}
	return promoted, demoted, nil
}

// SessionStats is one node's counters as reported over the session layer.
type SessionStats struct {
	CacheHits, CacheMisses uint64
	LocalOps, RemoteOps    uint64
	HotKeys                uint64
	FrozenRetries          uint64
}

// HitRate returns the node's cache hit ratio.
func (s SessionStats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Stats fetches node's operation counters.
func (cl *Client) Stats(node int) (SessionStats, error) {
	payload, err := cl.callT(uint8(node), sessOpStats, nil, cl.timeout)
	if err != nil {
		return SessionStats{}, err
	}
	r := wire.NewReader(payload)
	st := SessionStats{
		CacheHits:     r.U64(),
		CacheMisses:   r.U64(),
		LocalOps:      r.U64(),
		RemoteOps:     r.U64(),
		HotKeys:       r.U64(),
		FrozenRetries: r.U64(),
	}
	if !r.Ok() {
		return SessionStats{}, fmt.Errorf("cluster: malformed stats response from node %d", node)
	}
	return st, nil
}
