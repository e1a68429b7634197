package cluster

import (
	"encoding/binary"
	"errors"
	"sync/atomic"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/store"
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
// Wire formats (little endian). The v1 single-op format carries exactly one
// request per packet; the v2 batch op (sessOpBatch) packs many get/put
// entries into one frame, amortizing per-packet costs on the client edge the
// same way the inter-node coalescing pipeline does on the fabric (§6.3/§8.5).
// Both formats are served side by side — the op byte versions the frame.
//
//	request:  op(1) reqID(8) rest
//	  get:     key(8)
//	  put:     key(8) vlen(4) value
//	  cas:     key(8) elen(4) expect vlen(4) value — atomic compare-and-swap
//	  faa:     key(8) delta(8)                     — atomic fetch-and-add
//	  ping:    -
//	  refresh: count(4) key(8)*count     — ApplyHotSet(target) at this node
//	  stats:   -
//	  batch:   count(4) entry*count      — entry: kind(1) key(8) [rest]
//	                                       kind: sessOpGet, sessOpPut,
//	                                       sessOpCAS or sessOpFAA, each with
//	                                       the single-op body shape after key
//	response: reqID(8) status(1) payload
//	  ok get:     vlen(4) value
//	  ok cas:     vlen(4) witness   — swapped; witness is the replaced value
//	  ok faa:     vlen(4) value     — the 8-byte pre-add counter value
//	  ok refresh: promoted(4) demoted(4) writebacks(4)
//	  ok stats:   hits(8) misses(8) local(8) remote(8) hot(8) frozenRetries(8)
//	  ok batch:   count(4) result*count  — result: status(1) [payload], one per
//	                                       entry in request order; get results
//	                                       carry vlen(4) value, errors carry
//	                                       vlen(4) message, everything else is
//	                                       the bare status
//	  cas-fail:   vlen(4) witness   — the comparison failed; witness is the
//	                                  value it observed (no extra read needed)
//	  error:      vlen(4) message
//	  home-down:  -                 — the key's home node left the membership
//	                                  view; fail fast, retry after rejoin
//
// Dispatch: session ops are steered by key hash to the owning worker's
// session lane (Config.workerOf — the same EREW steering the inter-node
// fabric uses), replacing the old goroutine-per-request model. Each lane
// drains a burst of queued jobs and runs it through the op executor
// (exec.go) — which owns every serving decision and overlaps the burst's
// remote fetches on the coalescing pipeline — before encoding the responses,
// so concurrent clients keep many remote accesses in flight without
// per-request goroutines. The lane itself only drains, encodes and emits.
// Ping/stats are answered inline on the dispatcher (non-blocking); refresh
// keeps its own goroutine (a long-blocking control op that fans out its own
// RPCs).
const (
	sessOpGet     byte = 0
	sessOpPut     byte = 1
	sessOpPing    byte = 2
	sessOpRefresh byte = 3
	sessOpStats   byte = 4
	// sessOpBatch is the v2 many-ops-per-frame format (see above).
	sessOpBatch byte = 5
	// sessOpCAS and sessOpFAA are the atomic read-modify-writes, valid both
	// as single-op frames and as batch entry kinds.
	sessOpCAS byte = 6
	sessOpFAA byte = 7

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

// sessOp is one parsed client operation (a single-op request or one entry of
// a batch) in the executor's Op form. Value and Expect are private copies —
// never aliases of the packet buffer, which the TCP transport reuses the
// moment the handler returns.
type sessOp struct {
	idx int // position in the batch (response entries are emitted in request order)
	Op
}

// sessOpKind maps a wire op byte onto the executor's op kind.
func sessOpKind(b byte) OpKind {
	switch b {
	case sessOpPut:
		return OpPut
	case sessOpCAS:
		return OpCAS
	case sessOpFAA:
		return OpFAA
	}
	return OpGet
}

// sessJob is one unit of lane work: either a single-op request (batch == nil)
// or one worker's group of a batch.
type sessJob struct {
	batch *sessBatch
	gidx  int32
	// Single-op fields (batch == nil):
	src   fabric.Addr
	reqID uint64
	op    sessOp
	// resOff is lane-local bookkeeping: the job's first result index within
	// the lane's burst scratch.
	resOff int
}

// sessBatch is one in-flight batch frame, split into per-worker groups. Each
// group is served on its owning worker's lane; the last lane to finish
// (remaining hits zero — the atomic ordering makes every group's results
// visible to it) assembles the response frame in request order and sends it.
type sessBatch struct {
	src       fabric.Addr
	reqID     uint64
	remaining atomic.Int32
	groups    []sessGroup
	// spans locates each op's encoded result entry: spans[i] names the group
	// buffer slice holding entry i. Disjoint slots are written by the lanes
	// serving their groups.
	spans []sessSpan
}

// sessGroup is the subset of a batch owned by one worker.
type sessGroup struct {
	worker int
	ops    []sessOp
	// buf holds the group's encoded result entries (pooled; recycled by the
	// assembling lane after the response frame is built).
	buf    []byte
	pooled *srvBuf
}

// sessSpan is one op's encoded result entry within its group buffer. A
// zero-copy get carries its value as a store lease instead of encoded bytes:
// the group buffer holds only the entry's metadata (status + vlen) and the
// lease — owned by the span once the serving lane emitted it — is spliced
// into the response frame and released by the assembling lane.
type sessSpan struct {
	group    int32
	off, end int32
	lease    store.Lease
}

// handleSession dispatches one client request frame: singles and batch
// groups are steered to their workers' session lanes; ping/stats answer
// inline; refresh runs on its own goroutine.
func (n *Node) handleSession(p fabric.Packet) {
	if n.cluster.killed.Load() {
		return // a dead process answers nothing; the client's timeout cleans up
	}
	if len(p.Data) < sessHeader {
		return // not even a request id to answer; drop (datagram semantics)
	}
	op := p.Data[0]
	reqID := binary.LittleEndian.Uint64(p.Data[1:9])
	body := p.Data[sessHeader:]

	switch op {
	case sessOpGet:
		if len(body) < 8 {
			n.sessReplyStatus(p.Src, reqID, sessStatusBad)
			return
		}
		key := binary.LittleEndian.Uint64(body[:8])
		n.sessEnqueue(n.workerFor(key), sessJob{src: p.Src, reqID: reqID, op: sessOp{Op: Op{Key: key}}})
	case sessOpPut:
		if len(body) < 12 {
			n.sessReplyStatus(p.Src, reqID, sessStatusBad)
			return
		}
		key := binary.LittleEndian.Uint64(body[:8])
		vlen := int(binary.LittleEndian.Uint32(body[8:12]))
		if vlen < 0 || len(body) < 12+vlen {
			n.sessReplyStatus(p.Src, reqID, sessStatusBad)
			return
		}
		// The value aliases the packet buffer; copy before it escapes into
		// the store or the consistency broadcast.
		val := append([]byte(nil), body[12:12+vlen]...)
		n.sessEnqueue(n.workerFor(key), sessJob{src: p.Src, reqID: reqID, op: sessOp{Op: Op{Kind: OpPut, Key: key, Value: val}}})
	case sessOpCAS:
		if len(body) < 12 {
			n.sessReplyStatus(p.Src, reqID, sessStatusBad)
			return
		}
		key := binary.LittleEndian.Uint64(body[:8])
		elen := int(binary.LittleEndian.Uint32(body[8:12]))
		if elen < 0 || len(body) < 16+elen {
			n.sessReplyStatus(p.Src, reqID, sessStatusBad)
			return
		}
		vlen := int(binary.LittleEndian.Uint32(body[12+elen : 16+elen]))
		if vlen < 0 || len(body) < 16+elen+vlen {
			n.sessReplyStatus(p.Src, reqID, sessStatusBad)
			return
		}
		expect := append([]byte(nil), body[12:12+elen]...)
		val := append([]byte(nil), body[16+elen:16+elen+vlen]...)
		n.sessEnqueue(n.workerFor(key), sessJob{src: p.Src, reqID: reqID, op: sessOp{Op: Op{Kind: OpCAS, Key: key, Expect: expect, Value: val}}})
	case sessOpFAA:
		if len(body) < 16 {
			n.sessReplyStatus(p.Src, reqID, sessStatusBad)
			return
		}
		key := binary.LittleEndian.Uint64(body[:8])
		delta := binary.LittleEndian.Uint64(body[8:16])
		n.sessEnqueue(n.workerFor(key), sessJob{src: p.Src, reqID: reqID, op: sessOp{Op: Op{Kind: OpFAA, Key: key, Delta: delta}}})
	case sessOpBatch:
		n.dispatchSessionBatch(p.Src, reqID, body)
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
		n.sessSend(p.Src, resp, nil)
	case sessOpRefresh:
		if len(body) < 4 {
			n.sessReplyStatus(p.Src, reqID, sessStatusBad)
			return
		}
		count := int(binary.LittleEndian.Uint32(body[:4]))
		if count < 0 || len(body) < 4+8*count {
			n.sessReplyStatus(p.Src, reqID, sessStatusBad)
			return
		}
		// Parse before the handler returns (the packet buffer is reused);
		// the epoch change itself blocks on cluster-wide RPCs, so it runs on
		// its own goroutine, never on a lane.
		target := make([]uint64, count)
		for i := range target {
			target[i] = binary.LittleEndian.Uint64(body[4+8*i:])
		}
		go n.serveRefresh(p.Src, reqID, target)
	default:
		n.sessReplyStatus(p.Src, reqID, sessStatusBad)
	}
}

// dispatchSessionBatch parses a v2 batch frame, splits its entries into
// per-worker groups (same key steering as the inter-node fabric) and
// enqueues one job per group.
func (n *Node) dispatchSessionBatch(src fabric.Addr, reqID uint64, body []byte) {
	if len(body) < 4 || len(body) > sessBatchMaxBytes {
		n.sessReplyStatus(src, reqID, sessStatusBad)
		return
	}
	count := int(int32(binary.LittleEndian.Uint32(body[:4])))
	if count < 0 || count > sessBatchMaxOps {
		n.sessReplyStatus(src, reqID, sessStatusBad)
		return
	}
	if count == 0 {
		resp := binary.LittleEndian.AppendUint64(make([]byte, 0, 16), reqID)
		resp = append(resp, sessStatusOK)
		resp = binary.LittleEndian.AppendUint32(resp, 0)
		n.sessSend(src, resp, nil)
		return
	}

	// Pass 1: validate the framing and size the shared value backing, so the
	// copies in pass 2 never reallocate it (the sub-slices must stay stable).
	buf := body[4:]
	totalVal := 0
	for i := 0; i < count; i++ {
		if len(buf) < 9 {
			n.sessReplyStatus(src, reqID, sessStatusBad)
			return
		}
		switch buf[0] {
		case sessOpGet:
			buf = buf[9:]
		case sessOpPut:
			if len(buf) < 13 {
				n.sessReplyStatus(src, reqID, sessStatusBad)
				return
			}
			vlen := int(binary.LittleEndian.Uint32(buf[9:13]))
			if vlen < 0 || len(buf) < 13+vlen {
				n.sessReplyStatus(src, reqID, sessStatusBad)
				return
			}
			totalVal += vlen
			buf = buf[13+vlen:]
		case sessOpCAS:
			if len(buf) < 13 {
				n.sessReplyStatus(src, reqID, sessStatusBad)
				return
			}
			elen := int(binary.LittleEndian.Uint32(buf[9:13]))
			if elen < 0 || len(buf) < 17+elen {
				n.sessReplyStatus(src, reqID, sessStatusBad)
				return
			}
			vlen := int(binary.LittleEndian.Uint32(buf[13+elen : 17+elen]))
			if vlen < 0 || len(buf) < 17+elen+vlen {
				n.sessReplyStatus(src, reqID, sessStatusBad)
				return
			}
			totalVal += elen + vlen
			buf = buf[17+elen+vlen:]
		case sessOpFAA:
			if len(buf) < 17 {
				n.sessReplyStatus(src, reqID, sessStatusBad)
				return
			}
			buf = buf[17:]
		default:
			n.sessReplyStatus(src, reqID, sessStatusBad)
			return
		}
	}

	// Pass 2: build the batch. Put values are copied into one shared backing
	// buffer (one allocation per frame, not per put); the backing is never
	// pooled, so a value that outlives the batch (a staged Lin write) stays
	// valid.
	b := &sessBatch{src: src, reqID: reqID, spans: make([]sessSpan, count)}
	vals := make([]byte, 0, totalVal)
	var groupOf [MaxWorkersPerNode]int32
	for i := range n.workers {
		groupOf[i] = -1
	}
	buf = body[4:]
	for i := 0; i < count; i++ {
		op := sessOp{idx: i, Op: Op{Kind: sessOpKind(buf[0]), Key: binary.LittleEndian.Uint64(buf[1:9])}}
		switch buf[0] {
		case sessOpPut:
			vlen := int(binary.LittleEndian.Uint32(buf[9:13]))
			off := len(vals)
			vals = append(vals, buf[13:13+vlen]...)
			op.Value = vals[off:len(vals):len(vals)]
			buf = buf[13+vlen:]
		case sessOpCAS:
			elen := int(binary.LittleEndian.Uint32(buf[9:13]))
			vlen := int(binary.LittleEndian.Uint32(buf[13+elen : 17+elen]))
			off := len(vals)
			vals = append(vals, buf[13:13+elen]...)
			op.Expect = vals[off:len(vals):len(vals)]
			off = len(vals)
			vals = append(vals, buf[17+elen:17+elen+vlen]...)
			op.Value = vals[off:len(vals):len(vals)]
			buf = buf[17+elen+vlen:]
		case sessOpFAA:
			op.Delta = binary.LittleEndian.Uint64(buf[9:17])
			buf = buf[17:]
		default:
			buf = buf[9:]
		}
		w := n.cluster.cfg.workerOf(op.Key)
		gi := groupOf[w]
		if gi < 0 {
			gi = int32(len(b.groups))
			groupOf[w] = gi
			b.groups = append(b.groups, sessGroup{worker: w})
		}
		b.groups[gi].ops = append(b.groups[gi].ops, op)
	}
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
	n.sessSend(src, resp, nil)
}

// sessReplyStatus answers a request with a bare status, inline on the caller.
func (n *Node) sessReplyStatus(dst fabric.Addr, reqID uint64, status byte) {
	resp := binary.LittleEndian.AppendUint64(make([]byte, 0, 16), reqID)
	resp = append(resp, status)
	n.sessSend(dst, resp, nil)
}

// sessSend replies to wherever the request came from; the TCP transport
// learned the return route from the inbound connection, so ephemeral clients
// outside the peer table still get their answer. A failed send means the
// client is gone (its timeout or peer-down handler cleans up). pooled, when
// non-nil, is recycled after the send — only legal when the transport copies
// on send (Cluster.trCopies).
func (n *Node) sessSend(dst fabric.Addr, resp []byte, pooled *srvBuf) {
	_ = n.cluster.transport.Send(fabric.Packet{
		Src:   fabric.Addr{Node: n.id, Thread: threadSession},
		Dst:   dst,
		Class: metrics.ClassCacheMiss,
		Data:  resp,
	})
	if pooled != nil {
		pooled.b = resp
		respBufPool.Put(pooled)
	}
}

// sessSendVec replies with a vectored frame: the wire payload is the
// in-order concatenation of segs (metadata spans interleaved with leased
// store values). Only legal on transports that consume segments during Send
// (Cluster.trCopies) — the caller releases its leases right after. meta is
// the metadata buffer backing the spans, recycled via pooled like sessSend.
func (n *Node) sessSendVec(dst fabric.Addr, segs [][]byte, meta []byte, pooled *srvBuf) {
	_ = n.cluster.transport.Send(fabric.Packet{
		Src:   fabric.Addr{Node: n.id, Thread: threadSession},
		Dst:   dst,
		Class: metrics.ClassCacheMiss,
		Segs:  segs,
	})
	if pooled != nil {
		pooled.b = meta
		respBufPool.Put(pooled)
	}
}

// sessLane is one worker's session serving loop state: burst-drain and wire
// encode/emit on top of the op executor, which owns every serving decision.
// The executor and the scratch slices are reused across bursts, so a
// steady-state lane allocates only what the ops themselves require.
type sessLane struct {
	burst []sessJob
	x     opExec
	segs  [][]byte // scratch for vectored single-op replies
}

// sessionLane serves one worker's session jobs until the lane closes. Each
// iteration drains a burst of queued jobs and serves them in one executor
// run, so concurrent clients' remote accesses overlap.
func (n *Node) sessionLane(q chan sessJob) {
	l := &sessLane{x: opExec{n: n}}
	for job := range q {
		l.burst = l.burst[:0]
		l.burst = append(l.burst, job)
		draining := true
		for draining && len(l.burst) < sessLaneBurst {
			select {
			case j, ok := <-q:
				if !ok {
					draining = false
					break
				}
				l.burst = append(l.burst, j)
			default:
				draining = false
			}
		}
		l.serveBurst()
	}
}

// serveBurst runs the burst through the executor — scan every op (remote
// accesses start without waiting), collect — then encodes and emits each
// job's response.
func (l *sessLane) serveBurst() {
	l.x.res = l.x.res[:0]
	for ji := range l.burst {
		job := &l.burst[ji]
		job.resOff = len(l.x.res)
		if job.batch == nil {
			l.x.scan(&job.op.Op)
			continue
		}
		g := &job.batch.groups[job.gidx]
		for k := range g.ops {
			l.x.scan(&g.ops[k].Op)
		}
	}
	l.x.collect()
	l.emit()
}

// emit encodes and sends each job's response. Single-op jobs reply directly;
// batch groups encode their entries into a pooled group buffer, and the last
// group to finish assembles the frame in request order.
func (l *sessLane) emit() {
	n := l.x.n
	for ji := range l.burst {
		job := &l.burst[ji]
		if job.batch == nil {
			r := &l.x.res[job.resOff]
			var pooled *srvBuf
			var resp []byte
			if n.cluster.trCopies {
				pooled = respBufPool.Get().(*srvBuf)
				resp = pooled.b[:0]
				if r.lease.Held() {
					// Zero-copy reply: metadata frame + the leased store
					// value as its own wire segment; the transport consumes
					// both during Send, after which the lease drops.
					resp = binary.LittleEndian.AppendUint64(resp, job.reqID)
					resp = append(resp, sessStatusOK)
					resp = binary.LittleEndian.AppendUint32(resp, uint32(len(r.val)))
					l.segs = append(l.segs[:0], resp, r.val)
					n.sessSendVec(job.src, l.segs, resp, pooled)
					l.segs[0], l.segs[1] = nil, nil
					r.lease.Release()
					continue
				}
			} else {
				resp = make([]byte, 0, 64)
			}
			resp = binary.LittleEndian.AppendUint64(resp, job.reqID)
			resp = appendSessOpRes(resp, job.op.kind(), r)
			n.sessSend(job.src, resp, pooled)
			r.lease.Release() // flat path copied the value into resp
			continue
		}
		b := job.batch
		g := &b.groups[job.gidx]
		// Group buffers are intermediate (the assembly below copies out of
		// them), so they are pooled on every transport.
		pooled := respBufPool.Get().(*srvBuf)
		buf := pooled.b[:0]
		for k := range g.ops {
			r := &l.x.res[job.resOff+k]
			off := len(buf)
			sp := sessSpan{group: job.gidx}
			if r.lease.Held() {
				// Leased get: the group buffer holds only the metadata; the
				// value travels as the span's lease, spliced in (and
				// released) by the lane that assembles the frame.
				buf = append(buf, sessStatusOK)
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.val)))
				sp.lease = r.lease
				r.lease = store.Lease{} // ownership moved to the span
			} else {
				buf = appendSessOpRes(buf, g.ops[k].kind(), r)
			}
			sp.off, sp.end = int32(off), int32(len(buf))
			b.spans[g.ops[k].idx] = sp
		}
		g.buf = buf
		g.pooled = pooled
		if b.remaining.Add(-1) == 0 {
			n.finishSessionBatch(b)
		}
	}
}

// finishSessionBatch assembles a settled batch's response frame in request
// order and sends it; the atomic decrement that elected this lane ordered
// every other group's writes before its reads. Leased values (zero-copy
// gets) are spliced between the metadata spans: as wire segments on
// transports that consume them during Send, by one copy otherwise; either
// way every lease is released here.
func (n *Node) finishSessionBatch(b *sessBatch) {
	total := 13
	for gi := range b.groups {
		total += len(b.groups[gi].buf)
	}
	for i := range b.spans {
		total += len(b.spans[i].lease.Value())
	}
	var pooled *srvBuf
	var resp []byte
	var ra *respAssembly
	if n.cluster.trCopies {
		pooled = respBufPool.Get().(*srvBuf)
		resp = pooled.b[:0]
		ra = respAsmPool.Get().(*respAssembly)
	} else {
		resp = make([]byte, 0, total)
	}
	resp = binary.LittleEndian.AppendUint64(resp, b.reqID)
	resp = append(resp, sessStatusOK)
	resp = binary.LittleEndian.AppendUint32(resp, uint32(len(b.spans)))
	for i := range b.spans {
		sp := &b.spans[i]
		resp = append(resp, b.groups[sp.group].buf[sp.off:sp.end]...)
		if !sp.lease.Held() {
			continue
		}
		if ra != nil {
			ra.splice(resp, sp.lease) // released by ra.release below
		} else {
			resp = append(resp, sp.lease.Value()...)
			sp.lease.Release()
		}
		sp.lease = store.Lease{}
	}
	for gi := range b.groups {
		g := &b.groups[gi]
		g.pooled.b = g.buf
		respBufPool.Put(g.pooled)
		g.pooled, g.buf = nil, nil
	}
	if ra != nil && len(ra.cuts) > 0 {
		n.sessSendVec(b.src, ra.vector(resp), resp, pooled)
	} else {
		n.sessSend(b.src, resp, pooled)
	}
	if ra != nil {
		ra.release()
		respAsmPool.Put(ra)
	}
}

// appendSessOpRes encodes one op result — the same layout as a single-op
// response after its request id: the status its error maps to (nil: OK;
// ErrCASMismatch, store.ErrNotFound and ErrHomeDown have dedicated statuses
// the client surfaces typed; anything else travels as text) plus the payload
// that status implies — the value for everything served but a put (which
// answers the bare status) and for a failed CAS's witness, the message for an
// error, nothing otherwise. Only a served get can hold a lease, so callers
// splicing leased values write sessStatusOK themselves.
func appendSessOpRes(buf []byte, kind OpKind, r *opRes) []byte {
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
	return append(buf, r.val...)
}

// appendSessError encodes a failed operation: the error text travels to the
// client so a CI failure names the real cause.
func appendSessError(resp []byte, err error) []byte {
	msg := err.Error()
	resp = append(resp, sessStatusErr)
	resp = binary.LittleEndian.AppendUint32(resp, uint32(len(msg)))
	return append(resp, msg...)
}
