package cluster

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/timestamp"
	"repro/internal/wire"
)

// The session layer: client-facing RPC served by every node on
// threadSession. It is how external processes (cmd/cckvs-load, or any
// Client) drive a deployment — a session request executes the *full*
// protocol at the receiving node (symmetric-cache probe, Lin/SC write
// protocol, remote access to the home shard on a miss), exactly as if the
// request had arrived at one of the paper's worker threads. This is the
// black-box load-balancer abstraction of §3: a client may send any request
// to any node.
//
// Wire format (little endian; V is a length-prefixed byte string, len(4)
// bytes, and every field is read through package wire's Reader): one data
// frame and three control frames. Every get/put/CAS/FAA travels as an entry of
// a batch frame — §6.3's workers speak one request format whose batch size
// varies (1 when the pipeline is dry), like this repo's rpc and consistency
// packets — so a frame's per-packet costs amortize over however many
// operations the client had ready. An entry's body is an rpc request's fields
// in the rpc order (rpc.go: fields), and sessEntries declares each kind's once:
// the client's sessEntrySize and appendSessEntry and the server's
// parseSessEntry all read it.
//
//	request:  op(1) reqID(8) rest
//	  batch:   count(4) entry*count      — entry: kind(1) key(8) body
//	    get:     -
//	    put:     V value
//	    cas:     V expect, V value — atomic compare-and-swap
//	    faa:     delta(8)          — atomic fetch-and-add
//	  ping:    -
//	  refresh: count(4) key(8)*count     — ApplyHotSet(target) at this node
//	  stats:   -
//	response: reqID(8) status(1) payload
//	  ok batch:   count(4) result*count  — result: status(1) [payload], one per
//	                                       entry in request order
//	    ok get:     V value
//	    ok put:     -
//	    ok cas:     V witness   — swapped; witness is the replaced value
//	    ok faa:     V value     — the 8-byte pre-add counter value
//	    cas-fail:   V witness   — the comparison failed; witness is the value
//	                              it observed (no extra read needed)
//	    not-found:  -
//	    home-down:  -           — the key's home node left the membership
//	                              view; fail fast, retry after rejoin
//	    error:      V message
//	  ok refresh: promoted(4) demoted(4) writebacks(4)
//	  ok stats:   hits(8) misses(8) local(8) remote(8) hot(8) frozenRetries(8)
//	  error:      V message
//	  bad:        -             — malformed or oversize frame, unknown op
//
// Dispatch: a batch's entries are steered by key hash to the owning workers'
// session lanes (Config.workerOf — the same EREW steering the inter-node
// fabric uses). Each lane drains a burst of queued groups and runs it through
// the op executor (exec.go) — which owns every serving decision and overlaps
// the burst's remote fetches on the coalescing pipeline — so concurrent
// clients keep many remote accesses in flight without per-request goroutines.
// The lane itself only drains and hands results back; the last lane to finish
// a batch encodes its response, and the responses a lane finishes in one burst
// are sent together at its end (replyBurst) — on TCP they are staged on the
// client's connection back to back and leave in one write, the reply-side
// mirror of the burst the read loop delivered.
// Ping/stats are answered inline on the dispatcher (non-blocking); refresh
// keeps its own goroutine (a long-blocking control op that fans out its own
// RPCs).
const (
	// sessOpGet, sessOpPut, sessOpCAS and sessOpFAA are batch entry kinds; as
	// a frame's op byte they are refused like any unknown op.
	sessOpGet     byte = 0
	sessOpPut     byte = 1
	sessOpPing    byte = 2
	sessOpRefresh byte = 3
	sessOpStats   byte = 4
	sessOpBatch   byte = 5
	sessOpCAS     byte = 6
	sessOpFAA     byte = 7

	// Frame statuses: OK, Bad and Err. Per-entry statuses: all but Bad.
	sessStatusOK       byte = 0
	sessStatusNotFound byte = 1
	sessStatusBad      byte = 2
	sessStatusErr      byte = 3
	// sessStatusHomeDown answers operations on keys whose home node is
	// outside the current membership view: the client surfaces it as the
	// typed ErrHomeDown (fail fast, retry after the node rejoins) instead of
	// a generic error string.
	sessStatusHomeDown byte = 4
	// sessStatusCASFail answers a compare-and-swap whose expectation did not
	// match; the payload is the witnessed value, which the client surfaces
	// as ErrCASMismatch plus the witness.
	sessStatusCASFail byte = 5
)

const sessHeader = 1 + 8

// sessBatchMaxOps bounds the entries of one batch frame; the server refuses
// oversize frames with sessStatusBad (the client chunks transparently).
const sessBatchMaxOps = 1024

// sessBatchMaxBytes bounds the payload of one batch request frame.
const sessBatchMaxBytes = 1 << 20

// sessLaneBurst bounds how many queued session jobs a lane drains into one
// overlapped serving pass.
const sessLaneBurst = 64

// sessReplyBurstBytes bounds the response bytes — metadata plus leased values —
// a lane stages before writing them out: a burst that reaches it is flushed at
// once, so a run of large batch replies never holds (or keeps leased) more than
// this plus one frame.
const sessReplyBurstBytes = 256 << 10

// sessJob is one unit of lane work: one worker's group of a batch.
type sessJob struct {
	batch *sessBatch
	gidx  int32
	// resOff is lane-local bookkeeping: the job's first result index within
	// the lane's burst scratch.
	resOff int
}

// sessBatch is one in-flight batch frame. Its ops are chained into per-worker
// groups, each served on its owning worker's lane; the last lane to finish
// (remaining hits zero — the atomic ordering makes every group's results
// visible to it) encodes the response frame in request order into its reply
// burst. Pooled: that lane recycles it once the response is encoded.
type sessBatch struct {
	src       fabric.Addr
	reqID     uint64
	remaining atomic.Int32
	ops       []sessOp // request order
	groups    []sessGroup
}

var sessBatchPool = sync.Pool{New: func() any { return new(sessBatch) }}

// sessOp is one parsed batch entry in the executor's Op form plus its outcome.
// Value and Expect are private copies — never aliases of the packet buffer,
// which the TCP transport reuses the moment the handler returns. res is
// written by the lane serving the op's group (disjoint slots); a zero-copy
// get's store lease travels in it to the lane that sends the response.
type sessOp struct {
	Op
	next int32 // the next op of the same group, -1 at its end
	res  opRes
}

// sessGroup is the subset of a batch owned by one worker: a chain through
// sessBatch.ops from head to tail, in request order.
type sessGroup struct {
	worker     int
	head, tail int32
}

// handleSession dispatches one client request frame: a batch's groups are
// steered to their workers' session lanes; ping/stats answer inline; refresh
// runs on its own goroutine.
func (n *Node) handleSession(p fabric.Packet) {
	if n.cluster.killed.Load() {
		return // a dead process answers nothing; the client's timeout cleans up
	}
	r := wire.NewReader(p.Data)
	op, reqID := r.U8(), r.U64()
	if !r.Ok() {
		return // not even a request id to answer; drop (datagram semantics)
	}

	switch op {
	case sessOpBatch:
		n.dispatchSessionBatch(p.Src, reqID, r)
	case sessOpPing:
		n.sessReplyStatus(p.Src, reqID, sessStatusOK)
	case sessOpStats:
		resp := binary.LittleEndian.AppendUint64(make([]byte, 0, 64), reqID)
		resp = append(resp, sessStatusOK)
		resp = binary.LittleEndian.AppendUint64(resp, n.CacheHits.Load())
		resp = binary.LittleEndian.AppendUint64(resp, n.CacheMisses.Load())
		resp = binary.LittleEndian.AppendUint64(resp, n.LocalOps.Load())
		resp = binary.LittleEndian.AppendUint64(resp, n.RemoteOps.Load())
		var hot uint64
		if n.cache != nil {
			hot = uint64(len(n.cache.Keys()))
		}
		resp = binary.LittleEndian.AppendUint64(resp, hot)
		resp = binary.LittleEndian.AppendUint64(resp, n.FrozenRetries.Load())
		n.sessSend(p.Src, resp)
	case sessOpRefresh:
		// Parse before the handler returns (the packet buffer is reused);
		// the epoch change itself blocks on cluster-wide RPCs, so it runs on
		// its own goroutine, never on a lane.
		target := make([]uint64, r.Count(8, math.MaxInt32))
		for i := range target {
			target[i] = r.U64()
		}
		if !r.Ok() {
			n.sessReplyStatus(p.Src, reqID, sessStatusBad)
			return
		}
		go n.serveRefresh(p.Src, reqID, target)
	default:
		n.sessReplyStatus(p.Src, reqID, sessStatusBad)
	}
}

// sessEntries declares the batch entry of each op kind: its kind byte and
// the fields that follow kind(1) key(8).
var sessEntries = [...]struct {
	kind byte
	f    fields
}{
	OpGet: {sessOpGet, fKnown},
	OpPut: {sessOpPut, fKnown | fValue},
	OpCAS: {sessOpCAS, fKnown | fExpect | fValue},
	OpFAA: {sessOpFAA, fKnown | fDelta},
}

// sessEntryOf returns the entry declaration of o's kind; a kind outside the
// table travels, and is served, as a get.
func sessEntryOf(o *Op) (kind byte, f fields) {
	if int(o.Kind) < len(sessEntries) {
		e := sessEntries[o.Kind]
		return e.kind, e.f
	}
	return sessOpGet, fKnown
}

// sessEntrySize returns an op's encoded size as a batch entry.
func sessEntrySize(o *Op) int {
	_, f := sessEntryOf(o)
	return 9 + f.size(o.Expect, o.Value)
}

// appendSessEntry encodes one op as a batch entry — the one place the client
// writes a get/put/CAS/FAA onto the wire.
func appendSessEntry(buf []byte, o *Op) []byte {
	kind, f := sessEntryOf(o)
	buf = binary.LittleEndian.AppendUint64(append(buf, kind), o.Key)
	return f.write(buf, timestamp.TS{}, o.Expect, o.Value, o.Delta)
}

// parseSessEntry reads the batch entry at the head of r — the one place the
// server reads a get/put/CAS/FAA off the wire. Value and Expect alias r's
// input; ok is false for a truncated entry or an unknown kind.
func parseSessEntry(r *wire.Reader) (op Op, ok bool) {
	kind := r.U8()
	op.Key = r.U64()
	for k, e := range sessEntries {
		if e.kind == kind {
			var ts timestamp.TS // no entry kind carries one
			op.Kind = OpKind(k)
			e.f.read(r, &ts, &op.Expect, &op.Value, &op.Delta)
			return op, r.Ok()
		}
	}
	r.Fail()
	return Op{}, false
}

// dispatchSessionBatch parses a batch frame, chains its entries into
// per-worker groups (same key steering as the inter-node fabric) and enqueues
// one job per group.
func (n *Node) dispatchSessionBatch(src fabric.Addr, reqID uint64, r wire.Reader) {
	if r.Len() > sessBatchMaxBytes {
		n.sessReplyStatus(src, reqID, sessStatusBad)
		return
	}
	count := r.Count(9, sessBatchMaxOps)

	// Validate pass: check the framing before anything is built, and size the
	// shared value backing so the build pass's copies never reallocate it (the
	// sub-slices must stay stable).
	entries := r
	totalVal := 0
	for i := 0; i < count && r.Ok(); i++ {
		op, _ := parseSessEntry(&r)
		totalVal += len(op.Expect) + len(op.Value)
	}
	if !r.Ok() {
		n.sessReplyStatus(src, reqID, sessStatusBad)
		return
	}

	// Build pass. Put/CAS values are copied into one shared backing buffer
	// (one allocation per frame, not per put); the backing is never pooled, so
	// a value that outlives the batch (a staged Lin write) stays valid.
	b := sessBatchPool.Get().(*sessBatch)
	b.src, b.reqID = src, reqID
	vals := make([]byte, 0, totalVal)
	var groupOf [MaxWorkersPerNode]int32 // worker -> its group's index + 1
	for i := int32(0); i < int32(count); i++ {
		op, _ := parseSessEntry(&entries)
		off := len(vals)
		vals = append(append(vals, op.Expect...), op.Value...)
		mid := off + len(op.Expect)
		op.Expect, op.Value = vals[off:mid:mid], vals[mid:len(vals):len(vals)]
		w := n.cluster.cfg.workerOf(op.Key)
		gi := groupOf[w] - 1
		if gi < 0 {
			gi = int32(len(b.groups))
			groupOf[w] = gi + 1
			b.groups = append(b.groups, sessGroup{worker: w, head: i})
		} else {
			b.ops[b.groups[gi].tail].next = i
		}
		b.groups[gi].tail = i
		b.ops = append(b.ops, sessOp{Op: op, next: -1})
	}
	if count == 0 {
		// No lane will answer: send the bare count inline.
		rb := replyBurst{n: n}
		rb.add(b)
		rb.flush()
		return
	}
	// The last enqueue may get b finished and recycled before this loop looks
	// again: each pass reads b before its enqueue, and range fixed the bound.
	b.remaining.Store(int32(len(b.groups)))
	for gi := range b.groups {
		n.sessEnqueue(n.workers[b.groups[gi].worker], sessJob{batch: b, gidx: int32(gi)})
	}
}

// sessEnqueue hands a job to a worker's session lane unless the cluster is
// closing. The read lock pairs with Close's write lock: a blocked sender
// keeps draining (the lanes only stop after the closed flag flips), so a
// send on a closed channel is impossible.
func (n *Node) sessEnqueue(wk *worker, job sessJob) {
	c := n.cluster
	c.sessMu.RLock()
	if !c.sessClosed {
		wk.sessQ <- job
	}
	c.sessMu.RUnlock()
}

// serveRefresh runs an online epoch change and answers its session request.
func (n *Node) serveRefresh(src fabric.Addr, reqID uint64, target []uint64) {
	resp := binary.LittleEndian.AppendUint64(make([]byte, 0, 32), reqID)
	st, err := n.cluster.ApplyHotSet(int(n.id), target)
	if err != nil {
		resp = appendSessError(resp, err)
	} else {
		resp = append(resp, sessStatusOK)
		resp = binary.LittleEndian.AppendUint32(resp, uint32(st.Promoted))
		resp = binary.LittleEndian.AppendUint32(resp, uint32(st.Demoted))
		resp = binary.LittleEndian.AppendUint32(resp, uint32(st.WriteBacks))
	}
	n.sessSend(src, resp)
}

// sessReplyStatus answers a request with a bare status, inline on the caller.
func (n *Node) sessReplyStatus(dst fabric.Addr, reqID uint64, status byte) {
	resp := binary.LittleEndian.AppendUint64(make([]byte, 0, 16), reqID)
	resp = append(resp, status)
	n.sessSend(dst, resp)
}

// sessSend answers a control request (ping, stats, refresh, a refused frame)
// with resp, a buffer built for it. Replies go to wherever the request came
// from; the TCP transport learned the return route from the inbound connection,
// so ephemeral clients outside the peer table still get their answer. A failed
// send means the client is gone (its timeout or peer-down handler cleans up).
func (n *Node) sessSend(dst fabric.Addr, resp []byte) {
	_ = n.cluster.transport.Send(fabric.Packet{
		Src:   fabric.Addr{Node: n.id, Thread: threadSession},
		Dst:   dst,
		Class: metrics.ClassCacheMiss,
		Data:  resp,
	})
}

// sessLane is one worker's session serving loop state: burst-drain on top of
// the op executor, which owns every serving decision. The executor and the
// burst scratch are reused across bursts, so a steady-state lane allocates
// only what the ops themselves require.
type sessLane struct {
	burst []sessJob
	x     opExec
	out   replyBurst
}

// sessBurstBounds caps a lane burst by job count alone: a job holds parsed ops,
// not wire bytes, so it weighs nothing against the (unreachable) byte bound.
var sessBurstBounds = laneBounds[sessJob]{
	maxMsgs: sessLaneBurst, maxBytes: math.MaxInt, size: func(sessJob) int { return 0 },
}

// sessionLane serves one worker's session jobs until the lane closes. Each
// iteration drains a burst of queued jobs (the send lanes' drain, lane.go) and
// serves them in one executor run, so concurrent clients' remote accesses
// overlap.
func (n *Node) sessionLane(q chan sessJob) {
	l := &sessLane{x: opExec{n: n}, out: replyBurst{n: n}}
	for job := range q {
		l.burst = append(l.burst[:0], job)
		l.burst, _, _ = sessBurstBounds.drain(q, l.burst, 0)
		l.serveBurst()
	}
}

// serveBurst runs the burst through the executor — scan every op (remote
// accesses start without waiting), collect — then hands each group's results
// to its batch. The last group of a batch to settle stages the response (a
// zero-copy get's lease moves into the reply burst with its result), and the
// staged responses leave together once the last result is copied: no reply
// waits for anything but the encoding of the replies beside it.
func (l *sessLane) serveBurst() {
	l.x.res = l.x.res[:0]
	for ji := range l.burst {
		job := &l.burst[ji]
		job.resOff = len(l.x.res)
		b := job.batch
		for i := b.groups[job.gidx].head; i >= 0; i = b.ops[i].next {
			l.x.scan(&b.ops[i].Op)
		}
	}
	l.x.collect()
	for _, job := range l.burst {
		b, k := job.batch, job.resOff
		for i := b.groups[job.gidx].head; i >= 0; i = b.ops[i].next {
			b.ops[i].res = l.x.res[k]
			k++
		}
		if b.remaining.Add(-1) == 0 {
			l.out.add(b)
		}
	}
	l.out.flush()
}

// replyBurst stages the session responses one lane finishes during one burst
// and sends them together at its end. The frames' metadata is encoded back to
// back into one reused buffer; leased values (zero-copy gets) are not copied
// but recorded as splices at offsets into it (offsets, not slices: the buffer
// may move as it grows), exactly as a single response does it. Packets are
// only materialized in flush, when the buffer has stopped moving.
type replyBurst struct {
	n      *Node
	meta   []byte
	ra     respAssembly // the splices into meta, and flush's segment scratch
	frames []replyFrame
	leased int // value bytes the splices hold leased
}

// replyFrame is one staged response: where its metadata and its splices end
// (they start where the previous frame's end).
type replyFrame struct {
	dst       fabric.Addr
	meta, cut int
}

// add encodes a settled batch's response frame in request order and recycles
// the batch; the atomic decrement that elected the calling lane ordered every
// other group's writes before its reads. On transports that consume segments
// during Send, leased values stay leased until flush; otherwise each is copied
// in and released here.
func (rb *replyBurst) add(b *sessBatch) {
	ra := &rb.ra
	if !rb.n.cluster.trCopies {
		ra = nil
	}
	cut := len(rb.ra.cuts)
	m := binary.LittleEndian.AppendUint64(rb.meta, b.reqID)
	m = append(m, sessStatusOK)
	m = binary.LittleEndian.AppendUint32(m, uint32(len(b.ops)))
	for i := range b.ops {
		m = appendSessOpRes(m, b.ops[i].Kind, &b.ops[i].res, ra)
	}
	rb.meta = m
	for _, c := range rb.ra.cuts[cut:] {
		rb.leased += len(c.lease.Value())
	}
	rb.frames = append(rb.frames, replyFrame{dst: b.src, meta: len(m), cut: len(rb.ra.cuts)})
	clear(b.ops) // drop the value and error references before pooling
	b.ops, b.groups = b.ops[:0], b.groups[:0]
	sessBatchPool.Put(b)
	if len(m)+rb.leased >= sessReplyBurstBytes {
		rb.flush()
	}
}

// flush sends the staged responses, one Send each — leased values as wire
// segments of their own, which the transport copies before Send returns (on
// TCP the frames then share one write with whatever else is staged for that
// client) — then releases every lease, sent or not: a failed send means the
// client is gone (its timeout or peer-down handler cleans up), never that a
// value stays pinned.
func (rb *replyBurst) flush() {
	if len(rb.frames) == 0 {
		return
	}
	meta := rb.meta
	if !rb.n.cluster.trCopies {
		// A by-reference transport hands these bytes to the clients, which
		// alias them: a fresh copy per burst, each frame clipped to its own.
		meta = append([]byte(nil), meta...)
	}
	src := fabric.Addr{Node: rb.n.id, Thread: threadSession}
	lo, cut := 0, 0
	for _, f := range rb.frames {
		p := fabric.Packet{Src: src, Dst: f.dst, Class: metrics.ClassCacheMiss}
		if f.cut == cut {
			p.Data = meta[lo:f.meta:f.meta]
		} else {
			rb.ra.segs = appendSegs(rb.ra.segs[:0], meta, lo, f.meta, rb.ra.cuts[cut:f.cut])
			p.Segs = rb.ra.segs
		}
		_ = rb.n.cluster.transport.Send(p)
		lo, cut = f.meta, f.cut
	}
	rb.ra.release()
	rb.meta, rb.frames, rb.leased = rb.meta[:0], rb.frames[:0], 0
}

// appendSessOpRes encodes one op result entry and consumes its lease: the
// status its error maps to (nil: OK; ErrCASMismatch, store.ErrNotFound and
// ErrHomeDown have dedicated statuses the client surfaces typed; anything else
// travels as text) plus the payload that status implies — the value for
// everything served but a put (which answers the bare status) and for a failed
// CAS's witness, the message for an error, nothing otherwise. Only a served
// get can hold a lease: with ra non-nil its value is spliced in as a wire
// segment after the entry's metadata (ra's owner releases the lease once sent),
// otherwise it is copied and released here.
func appendSessOpRes(buf []byte, kind OpKind, r *opRes, ra *respAssembly) []byte {
	switch {
	case r.err == nil:
		buf = append(buf, sessStatusOK)
		if kind == OpPut {
			return buf
		}
	case errors.Is(r.err, ErrCASMismatch):
		buf = append(buf, sessStatusCASFail)
	case errors.Is(r.err, store.ErrNotFound):
		return append(buf, sessStatusNotFound)
	case errors.Is(r.err, ErrHomeDown):
		return append(buf, sessStatusHomeDown)
	default:
		return appendSessError(buf, r.err)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.val)))
	if ra != nil && r.lease.Held() {
		ra.splice(buf, r.lease)
		return buf
	}
	buf = append(buf, r.val...)
	r.lease.Release()
	return buf
}

// appendSessError encodes a failed operation: the error text travels to the
// client so a CI failure names the real cause.
func appendSessError(resp []byte, err error) []byte {
	return wire.AppendBytes(append(resp, sessStatusErr), []byte(err.Error()))
}
