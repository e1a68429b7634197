package cluster

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/timestamp"
	"repro/internal/wire"
)

// The remote-access RPC of the NUMA abstraction (§6.1): on a cache miss for
// a remotely-homed key, the handling server issues a get (or forwards a put)
// to the key's home node over two-sided sends, FaSST-style. Requests are
// coalesced per destination by the pipeline (pipeline.go): one network
// packet carries up to Config.BatchMaxMsgs requests, the server answers each
// packet with exactly one batched response packet, and a request packet
// costs one credit that the response packet restores (§6.3).
//
// Wire formats (little endian, package wire). A packet holds one or more
// back-to-back entries; each entry is self-framing. Every request starts with
// the same header H = op(1) id(8) key(8); T is a timestamp, clock(4)
// writer(1); V a length-prefixed byte string, len(4) bytes. The request column
// is declared once, as reqLayout: which of T, V expect, V value and delta(8)
// follow H, always in that order — encodedSize, appendTo and parseRequest all
// read it, and the session layer's batch entries reuse it (sessEntries).
//
//	op  name             request     served by (serveRequest)       answers
//	 0  get              H           the shard, leased or copied    OK T V · NotFound · Retry (re-syncing)
//	 1  put              H V         homePut                        OK · Retry (stale probe)
//	 4  promote          H T V       cache.FillAdd / Add            OK
//	 5  demote-freeze    H           cache.Freeze                   OK
//	 6  demote-collect   H           cache.CollectFrozen            OK T V (dirty) · NotFound (clean) · Retry (draining)
//	 7  demote-commit    H           cache.Remove                   OK
//	 8  writeback        H T V       homeStep: PutIfNewer           OK
//	 9  promote-prepare  H           cache.AddPending               OK
//	10  promote-fetch    H           homeFetch                      OK T V · NotFound · Retry (re-syncing)
//	11  unfreeze         H           cache.Unfreeze                 OK
//	12  demote-retire    H           cache.Retire                   OK
//	13  put-stamp        H           homeStamp                      OK T · Retry (stale probe; re-syncing)
//	14  put-commit       H T V       homeCommit                     OK · Retry (stale probe)
//	15  cas              H V V       homeRMW (expect, then new)     OK T V · CASFail V · RMWStamped T V · RMWStarted T V · Retry
//	16  faa              H delta(8)  homeRMW                        as cas
//	17  rmw-clear        H T         homeClearPin                   OK
//	18  rmw-wait         H T         homeStep: PendingWriteTS       OK · Retry (still pending)
//
//	response: id(8) status(1) [T V]
//
// The ops served by a home.go step are the ones a node also runs in place, as
// its own home (startAt); the cache ops (4-7, 9, 11, 12) answer BadRequest on
// a cache-less node, and their local form is the same one-line cache call.
// The response payload (T V) is present only under a status that carries one
// (rpcStatusHasPayload). rpcStatusBadRequest answers requests the server
// could identify (it parsed op+id) but could not serve — a truncated value,
// an unknown op, a cache op on a cache-less node — so the caller fails loudly
// instead of deadlocking on a response that will never come. rpcStatusRetry
// proves the op did not run here: the server cannot serve it *yet* (a frozen
// entry still has protocol traffic in flight, a shard is re-syncing) or is
// not, or no longer, the place to run it (a put whose key went hot). The
// caller re-routes, or re-issues: after parking on the refusal when the step
// ran in place (rpcResult.stall), after a yield when a peer answered.
//
// Op bytes 2 and 3 are retired (they carried Figure 4's primary write and
// sequencer timestamp fetch) and are not reused: a packet naming one is
// refused like any unknown op.
//
// Ops 4..12 are the incremental hot-set reconfiguration protocol (§4 under
// live traffic, see reconfig.go); 13 and 14 the replicated miss-path put
// (replicate.go); 15..18 the atomic read-modify-writes (rmw.go). A writeback
// carries its version with the value, unlike an op 1 put, which re-stamps
// against the stored clock.
const (
	rpcOpGet byte = 0
	rpcOpPut byte = 1
	// rpcOpPromote commits a promotion: the carried value+version turn the
	// key's placeholder (rpcOpPromotePrepare) into a live cache entry.
	// Without a placeholder it installs directly (no-op if already live).
	rpcOpPromote byte = 4
	// rpcOpDemoteFreeze marks key frozen in the receiving node's cache:
	// reads keep hitting, new writes are refused and retried by their
	// sessions until the key is gone.
	rpcOpDemoteFreeze byte = 5
	// rpcOpDemoteCollect snapshots the frozen entry for write-back; the
	// server answers Retry while the entry still has consistency traffic
	// in flight, NotFound when clean, OK(ts, value) when dirty.
	rpcOpDemoteCollect byte = 6
	// rpcOpDemoteCommit removes key from the receiving node's cache.
	rpcOpDemoteCommit byte = 7
	// rpcOpWriteback applies a demoted dirty value at its home shard iff
	// the carried version is newer than the stored one.
	rpcOpWriteback byte = 8
	// rpcOpPromotePrepare installs a frozen, valueless placeholder for key
	// in the receiving node's cache: reads miss to the home shard, writes
	// park. Once every node holds it, the home value is stable and the
	// coordinator can fetch it without racing client puts.
	rpcOpPromotePrepare byte = 9
	// rpcOpPromoteFetch reads key's value+version for a promotion: unlike a
	// plain get under homeMu, with the version lifted above every stamp
	// handed out for the key (homeFetch).
	rpcOpPromoteFetch byte = 10
	// rpcOpUnfreeze lifts the write freeze from key in the receiving
	// node's cache: the final round of a promotion (only once every
	// replica is filled may writes resume, or a write completing early
	// would be invisible to readers still missing to the home shard) and
	// the abort path of a failed demotion.
	rpcOpUnfreeze byte = 11
	// rpcOpDemoteRetire darkens key in the receiving node's cache: reads
	// miss to the home shard (current since the write-back), writes stay
	// frozen. Only once every replica is dark may the commits remove the
	// key — otherwise a write landing at the home shard after the home's
	// own removal would be invisible to readers of the remaining copies.
	rpcOpDemoteRetire byte = 12
	// rpcOpPutStamp reserves a replicated put's write timestamp at the key's
	// acting primary (homeStamp; phase 1 of replicate.go).
	rpcOpPutStamp byte = 13
	// rpcOpPutCommit applies a stamped replicated put at one replica with
	// PutIfNewer semantics — the carried version travels with the value
	// (homeCommit; phases 2-3).
	rpcOpPutCommit byte = 14
	// rpcOpCAS / rpcOpFAA execute an atomic read-modify-write at the key's
	// serialization point (homeRMW; rmw.go). CAS carries expect+new, FAA
	// carries a delta; both answer with the witnessed value.
	rpcOpCAS byte = 15
	rpcOpFAA byte = 16
	// rpcOpRMWClear releases an RMW pin the origin can no longer commit
	// (bounced or abandoned replicated commit); best-effort — a dead origin's
	// pins are cleared by the view change instead.
	rpcOpRMWClear byte = 17
	// rpcOpRMWWait polls a hot Lin RMW for completion: Retry while the
	// stamped write is still pending, OK once it committed (or was excised by
	// a view change). The poll keeps the request/response credit symmetry —
	// the server never holds a response back.
	rpcOpRMWWait byte = 18

	rpcStatusOK         byte = 0
	rpcStatusNotFound   byte = 1
	rpcStatusBadRequest byte = 2
	rpcStatusRetry      byte = 3
	// rpcStatusCASFail answers a CAS whose expectation did not match: the
	// payload (OK-shaped: ts + value) carries the witnessed value, so the
	// caller learns the current value without another round trip.
	rpcStatusCASFail byte = 4
	// rpcStatusRMWStamped answers a cold replicated RMW: the server applied
	// nothing yet — it stamped the op, pinned the key, and the payload
	// carries the stamp + witness; the origin computes the new value and
	// drives the replicated commit (stamp → backups → primary last).
	rpcStatusRMWStamped byte = 5
	// rpcStatusRMWStarted answers a hot Lin RMW: the coordinator staged the
	// write and broadcast its invalidation; the payload carries the pending
	// stamp + witness and the origin polls rpcOpRMWWait until it commits.
	rpcStatusRMWStarted byte = 6
)

// rpcStatusHasPayload reports whether a response status carries the OK-shaped
// payload (clock+writer+vlen+value) behind it.
func rpcStatusHasPayload(status byte) bool {
	switch status {
	case rpcStatusOK, rpcStatusCASFail, rpcStatusRMWStamped, rpcStatusRMWStarted:
		return true
	}
	return false
}

// rpcClient matches responses to outstanding requests for one worker. Every
// worker has its own completion table (and its own id space — ids only need
// to be unique per worker, since a response always returns to the resp
// thread of the worker that issued the request).
type rpcClient struct {
	w    *worker
	mu   sync.Mutex
	next uint64
	pend map[uint64]rpcPending
}

// rpcPending is one outstanding call: its completion channel plus the peer
// it targets, so a detected peer failure can fail exactly its calls.
type rpcPending struct {
	ch   chan rpcResult
	peer uint8
}

type rpcResult struct {
	status byte
	ts     timestamp.TS
	value  []byte
	err    error
	// Set only on the answer of a step that ran in place (home.go startAt):
	// local marks it as such — no wire was crossed, which is what the origin's
	// LocalOps/RemoteOps and DeltaStats.RemoteFetches count by — and stall says
	// why the step answered Retry, for the origin to park on (ops.go: park):
	// the local cache's refusal (core.ErrInvalid, ErrWritePending, ErrFrozen;
	// ErrFrozen also for a cold RMW whose key just went hot), an RMW pin
	// (errPinned) or the re-sync gate (errResyncing).
	local bool
	stall error
}

// resChPool recycles completion channels: every call uses its channel for
// exactly one send and one receive, so awaitRPC can return it to the pool
// the moment the result is out.
var resChPool = sync.Pool{New: func() any { return make(chan rpcResult, 1) }}

func newRPCClient(w *worker) *rpcClient {
	return &rpcClient{w: w, pend: map[uint64]rpcPending{}}
}

// register installs a pending-completion channel for a fresh request id
// targeting peer.
func (r *rpcClient) register(peer uint8, id uint64) chan rpcResult {
	ch := resChPool.Get().(chan rpcResult)
	r.mu.Lock()
	r.pend[id] = rpcPending{ch: ch, peer: peer}
	r.mu.Unlock()
	return ch
}

// complete finishes the pending call id, if still registered.
func (r *rpcClient) complete(id uint64, res rpcResult) {
	r.mu.Lock()
	p, ok := r.pend[id]
	delete(r.pend, id)
	r.mu.Unlock()
	if ok {
		p.ch <- res
	}
}

// fail completes pending calls with an explicit error (transport failure,
// malformed response). Callers blocked in call/callMulti always wake up.
func (r *rpcClient) fail(ids []uint64, err error) {
	for _, id := range ids {
		r.complete(id, rpcResult{err: err})
	}
}

// failAll fails every pending call. Used at cluster shutdown: a response
// whose Send lost the race against transport close would otherwise leave
// its caller blocked forever.
func (r *rpcClient) failAll(err error) {
	r.mu.Lock()
	pend := r.pend
	r.pend = map[uint64]rpcPending{}
	r.mu.Unlock()
	for _, p := range pend {
		p.ch <- rpcResult{err: err}
	}
}

// failPeer fails every pending call targeting peer — the mirror of failAll
// for a single dead destination (Cluster.PeerDown). Calls to live peers keep
// waiting for their responses.
func (r *rpcClient) failPeer(peer uint8, err error) {
	r.mu.Lock()
	var chs []chan rpcResult
	for id, p := range r.pend {
		if p.peer == peer {
			delete(r.pend, id)
			chs = append(chs, p.ch)
		}
	}
	r.mu.Unlock()
	for _, ch := range chs {
		ch <- rpcResult{err: err}
	}
}

// wireReq is one request entry in decoded form, on either side of the wire.
// The pipeline sender encodes it straight into the outgoing packet buffer
// (encode-at-send), so issuing a call allocates no per-request scratch;
// value and expect alias caller memory and must stay stable until the call
// completes — trivially true, the caller blocks on the response. parseRequest
// decodes one whose value and expect alias the packet buffer, valid only
// while the packet's handler runs.
type wireReq struct {
	op     byte
	id     uint64
	key    uint64
	ts     timestamp.TS // promote/writeback/rmw-wait/rmw-clear: the version
	value  []byte
	expect []byte // cas only: the expected value
	delta  uint64 // faa only: the addend
}

// fields is an entry layout: which optional fields follow its header, always
// in the order of the constants below. fKnown marks a layout that exists; the
// zero layout is an unknown op, refused by the parser.
type fields uint8

const (
	fKnown  fields = 1 << iota
	fTS            // T: the version a value travels with, or an RMW's stamp
	fExpect        // V: a CAS's expected value
	fValue         // V: the value
	fDelta         // delta(8): an FAA's addend
)

// reqLayout is the request column of the wire table above, indexed by op.
// Retired ops 2 and 3, like every op byte the table does not name, have no
// layout.
var reqLayout = [256]fields{
	rpcOpGet:            fKnown,
	rpcOpPut:            fKnown | fValue,
	rpcOpPromote:        fKnown | fTS | fValue,
	rpcOpDemoteFreeze:   fKnown,
	rpcOpDemoteCollect:  fKnown,
	rpcOpDemoteCommit:   fKnown,
	rpcOpWriteback:      fKnown | fTS | fValue,
	rpcOpPromotePrepare: fKnown,
	rpcOpPromoteFetch:   fKnown,
	rpcOpUnfreeze:       fKnown,
	rpcOpDemoteRetire:   fKnown,
	rpcOpPutStamp:       fKnown,
	rpcOpPutCommit:      fKnown | fTS | fValue,
	rpcOpCAS:            fKnown | fExpect | fValue,
	rpcOpFAA:            fKnown | fDelta,
	rpcOpRMWClear:       fKnown | fTS,
	rpcOpRMWWait:        fKnown | fTS,
}

// size returns the wire length of the fields f names.
func (f fields) size(expect, value []byte) int {
	n := 0
	if f&fTS != 0 {
		n += 5
	}
	if f&fExpect != 0 {
		n += 4 + len(expect)
	}
	if f&fValue != 0 {
		n += 4 + len(value)
	}
	if f&fDelta != 0 {
		n += 8
	}
	return n
}

// write appends the fields f names to buf, in wire order.
func (f fields) write(buf []byte, ts timestamp.TS, expect, value []byte, delta uint64) []byte {
	if f&fTS != 0 {
		buf = wire.AppendTS(buf, ts)
	}
	if f&fExpect != 0 {
		buf = wire.AppendBytes(buf, expect)
	}
	if f&fValue != 0 {
		buf = wire.AppendBytes(buf, value)
	}
	if f&fDelta != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, delta)
	}
	return buf
}

// read reads the fields f names, in wire order, into the places given for
// them; an unknown layout fails r.
func (f fields) read(r *wire.Reader, ts *timestamp.TS, expect, value *[]byte, delta *uint64) {
	if f == 0 {
		r.Fail()
	}
	if f&fTS != 0 {
		*ts = r.TS()
	}
	if f&fExpect != 0 {
		*expect = r.Bytes()
	}
	if f&fValue != 0 {
		*value = r.Bytes()
	}
	if f&fDelta != 0 {
		*delta = r.U64()
	}
}

// encodedSize returns the entry's wire length.
func (q wireReq) encodedSize() int { return 17 + reqLayout[q.op].size(q.expect, q.value) }

// appendTo encodes the entry onto buf.
func (q wireReq) appendTo(buf []byte) []byte {
	buf = append(buf, q.op)
	buf = binary.LittleEndian.AppendUint64(buf, q.id)
	buf = binary.LittleEndian.AppendUint64(buf, q.key)
	return reqLayout[q.op].write(buf, q.ts, q.expect, q.value, q.delta)
}

// start registers a fresh request id for q and hands it to the coalescing
// pipeline without waiting — callers start any number of calls (across any
// set of home nodes), letting the per-destination senders pack them into
// multi-request packets, then collect the completions from the returned
// channels. No goroutines are needed to overlap remote accesses.
func (r *rpcClient) start(home uint8, q wireReq) chan rpcResult {
	q.id = r.newReqID()
	ch := r.register(home, q.id)
	if !r.w.pipe.enqueue(home, q) {
		// Failed, never dropped: the caller blocked on ch always completes.
		r.complete(q.id, rpcResult{err: fmt.Errorf("cluster: request for node %d not queued (%w)", home, ErrPipelineClosed)})
	}
	return ch
}

// awaitRPC blocks for one started call and normalizes transport errors and
// server refusals. The completion channel goes back to the pool — callers
// must not receive from it again.
func awaitRPC(ch chan rpcResult) (rpcResult, error) {
	res := <-ch
	resChPool.Put(ch)
	if res.err != nil {
		return rpcResult{}, res.err
	}
	if res.status == rpcStatusBadRequest {
		return rpcResult{}, fmt.Errorf("cluster: rpc rejected (bad request)")
	}
	return res, nil
}

func (r *rpcClient) newReqID() uint64 {
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return id
}

// handleResponse walks a batched response packet and completes every
// matching pending call. A truncated entry fails its call with an explicit
// error (instead of silently deadlocking it); once framing is lost the rest
// of the packet is undecodable — entries behind the truncation cannot even
// be identified, so their calls stay pending. Entries are self-framing with
// no packet-level manifest, which makes intra-packet integrity the
// transport's job (trivially true in-process and over TCP framing); the
// explicit-failure path exists for defense, not as a recovery protocol.
func (r *rpcClient) handleResponse(p fabric.Packet) {
	// One response packet answers exactly one request packet, so its arrival
	// is the implicit per-packet credit update (§6.3), no matter how many
	// responses it coalesces. The credit belongs to this worker's budget
	// toward the answering peer's KVS thread.
	n := r.w.node
	if n.cluster.killed.Load() {
		return
	}
	n.cluster.cfg.grantKVS(r.w, p.Src.Node)
	rd := wire.NewReader(p.Data)
	for rd.Len() > 0 {
		reqID, status := rd.U64(), rd.U8()
		if !rd.Ok() {
			// Trailing garbage too short to name a request id; nothing to fail.
			n.RPCDecodeErrors.Add(1)
			return
		}
		res := rpcResult{status: status}
		if rpcStatusHasPayload(status) {
			res.ts = rd.TS()
			v := rd.Bytes()
			if !rd.Ok() {
				n.RPCDecodeErrors.Add(1)
				r.complete(reqID, rpcResult{err: fmt.Errorf("cluster: truncated response for req %d", reqID)})
				return
			}
			res.value = append([]byte(nil), v...)
		}
		r.complete(reqID, res)
	}
}

// grantKVS restores one request-packet credit to wk's budget toward peer.
func (c Config) grantKVS(wk *worker, peer uint8) {
	wk.credits.Grant(fabric.Addr{Node: peer, Thread: c.kvsThread(wk.idx)}, 1)
}

// parseRequest reads the next request entry of a packet: ok is false for a
// truncated entry or an unknown op. When ok is false and req.id != 0, the
// entry's header was intact and the server answers it with
// rpcStatusBadRequest; with id == 0 the framing is gone. Value and expect
// alias the packet.
func parseRequest(r *wire.Reader) (req wireReq, ok bool) {
	req.op, req.id, req.key = r.U8(), r.U64(), r.U64()
	reqLayout[req.op].read(r, &req.ts, &req.expect, &req.value, &req.delta)
	return req, r.Ok()
}

// appendStatusOnly encodes a payload-less response entry.
func appendStatusOnly(buf []byte, reqID uint64, status byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, reqID)
	return append(buf, status)
}

// appendOKResponse encodes a response entry carrying a timestamp and value.
func appendOKResponse(buf []byte, reqID uint64, ts timestamp.TS, value []byte) []byte {
	return appendPayloadResponse(buf, reqID, rpcStatusOK, ts, value)
}

// appendPayloadResponse encodes a response entry with the OK-shaped payload
// under an arbitrary payload-bearing status (rpcStatusHasPayload).
func appendPayloadResponse(buf []byte, reqID uint64, status byte, ts timestamp.TS, value []byte) []byte {
	buf = appendPayloadHeader(buf, reqID, status, ts, len(value))
	return append(buf, value...)
}

// appendPayloadHeader encodes everything of a payload-bearing response entry
// except the value bytes themselves — the zero-copy path splices the value
// in as its own wire segment right after this header.
func appendPayloadHeader(buf []byte, reqID uint64, status byte, ts timestamp.TS, vlen int) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, reqID)
	buf = wire.AppendTS(append(buf, status), ts)
	return binary.LittleEndian.AppendUint32(buf, uint32(vlen))
}

// srvBuf is a pooled server-side scratch buffer (response packets, KVS read
// staging).
type srvBuf struct{ b []byte }

var (
	respBufPool = sync.Pool{New: func() any { return &srvBuf{b: make([]byte, 0, 256)} }}
	scratchPool = sync.Pool{New: func() any { return new(srvBuf) }}
)

// respCut marks a zero-copy value spliced into a response packet: the value
// of a store lease, inserted at metadata offset off. Offsets (not slices)
// are recorded because the metadata buffer may reallocate as it grows.
type respCut struct {
	off   int
	lease store.Lease
}

// respAssembly collects the zero-copy splices of one response packet and the
// scratch used to materialize them into a vectored payload. Pooled; used
// only on transports that consume segments during Send (trCopies).
type respAssembly struct {
	cuts []respCut
	segs [][]byte
}

var respAsmPool = sync.Pool{New: func() any { return new(respAssembly) }}

// splice records lease's value for zero-copy insertion at the current end of
// meta and returns meta unchanged (the value travels as its own segment).
func (ra *respAssembly) splice(meta []byte, lease store.Lease) {
	ra.cuts = append(ra.cuts, respCut{off: len(meta), lease: lease})
}

// vector interleaves meta spans and spliced values, in order, into a
// segment list backed by ra's pooled scratch.
func (ra *respAssembly) vector(meta []byte) [][]byte {
	ra.segs = appendSegs(ra.segs[:0], meta, 0, len(meta), ra.cuts)
	return ra.segs
}

// appendSegs appends the wire segments of meta[lo:hi] to segs: its spans
// interleaved, in order, with the values spliced into it at cuts (ascending
// offsets into meta, all within [lo, hi]).
func appendSegs(segs [][]byte, meta []byte, lo, hi int, cuts []respCut) [][]byte {
	for _, c := range cuts {
		if c.off > lo {
			segs = append(segs, meta[lo:c.off])
		}
		segs = append(segs, c.lease.Value())
		lo = c.off
	}
	if lo < hi {
		segs = append(segs, meta[lo:hi])
	}
	return segs
}

// release drops every spliced lease and clears retained slices so the pool
// holds no value memory. Call after the transport consumed the segments.
func (ra *respAssembly) release() {
	for i := range ra.cuts {
		ra.cuts[i].lease.Release()
	}
	ra.cuts = ra.cuts[:0]
	for i := range ra.segs {
		ra.segs[i] = nil
	}
	ra.segs = ra.segs[:0]
}

// handleKVSRequest serves every request of a (possibly multi-request) packet
// against the local shard and answers with exactly one batched response
// packet — the request/response symmetry the per-packet credit accounting
// relies on. It runs on a KVS-bank dispatcher; KVS threads never talk to
// each other (§6.2), they only answer cache threads. The response returns
// to the requesting worker's resp thread (the packet's source address), so
// a request served by bank member w completes on the requester's bank
// member w — the two sides' stripes stay aligned.
func (n *Node) handleKVSRequest(p fabric.Packet) {
	if n.cluster.killed.Load() {
		return // a dead process answers nothing; the sender's view change fails the call
	}
	r := wire.NewReader(p.Data)
	scratch := scratchPool.Get().(*srvBuf)
	var pooled *srvBuf
	var ra *respAssembly
	var resp []byte
	if n.cluster.trCopies {
		// The transport serializes the packet during Send, so the response
		// buffer can be recycled — and store leases released — the moment
		// Send returns. Gets answer zero-copy: their values ride as leased
		// segments of a vectored payload instead of being copied into resp.
		pooled = respBufPool.Get().(*srvBuf)
		resp = pooled.b[:0]
		ra = respAsmPool.Get().(*respAssembly)
	} else {
		resp = make([]byte, 0, 64)
	}
	for r.Len() > 0 {
		req, ok := parseRequest(&r)
		if !ok {
			// An identifiable entry gets an explicit refusal so its caller
			// fails instead of waiting forever; either way the rest of the
			// packet has lost framing and cannot be decoded.
			if req.id != 0 {
				resp = appendStatusOnly(resp, req.id, rpcStatusBadRequest)
			}
			n.RPCDecodeErrors.Add(1)
			break
		}
		resp = n.serveRequest(p.Src.Node, req, resp, scratch, ra)
	}
	// Always answer, even when nothing was decodable (resp may be empty):
	// the sender charged one credit for this packet and only the response
	// packet restores it — swallowing a malformed packet would leak the
	// credit and eventually wedge all remote traffic from that peer.
	out := fabric.Packet{
		Src:   fabric.Addr{Node: n.id, Thread: p.Dst.Thread},
		Dst:   p.Src,
		Class: metrics.ClassCacheMiss,
	}
	if ra != nil && len(ra.cuts) > 0 {
		out.Segs = ra.vector(resp)
	} else {
		out.Data = resp
	}
	n.cluster.transport.Send(out)
	if ra != nil {
		ra.release() // the transport consumed the segments during Send
		respAsmPool.Put(ra)
	}
	scratchPool.Put(scratch)
	if pooled != nil {
		pooled.b = resp
		respBufPool.Put(pooled)
	}
}

// serveRequest executes one decoded request and appends its response entry.
// scratch stages KVS reads so a get copies once (shard into scratch, scratch
// into resp) without allocating. When ra is non-nil (transports that consume
// segments during Send), gets skip even that copy: the value is leased from
// the store and spliced into the packet as its own wire segment.
func (n *Node) serveRequest(src uint8, req wireReq, resp []byte, scratch *srvBuf, ra *respAssembly) []byte {
	switch req.op {
	case rpcOpGet:
		if n.cluster.resyncing() {
			// Re-syncing after a rejoin: the shard may still hold pre-crash
			// state; readers wait for the seed stream (the executor re-issues).
			return appendStatusOnly(resp, req.id, rpcStatusRetry)
		}
		if ra != nil {
			lease, ts, err := n.kvs.GetLease(req.key)
			if err != nil {
				return appendStatusOnly(resp, req.id, rpcStatusNotFound)
			}
			resp = appendPayloadHeader(resp, req.id, rpcStatusOK, ts, len(lease.Value()))
			ra.splice(resp, lease)
			return resp
		}
		v, ts, err := n.kvs.Get(req.key, scratch.b[:0])
		if err != nil {
			return appendStatusOnly(resp, req.id, rpcStatusNotFound)
		}
		scratch.b = v
		return appendOKResponse(resp, req.id, ts, v)
	case rpcOpPut, rpcOpWriteback, rpcOpPromoteFetch, rpcOpPutStamp, rpcOpPutCommit,
		rpcOpCAS, rpcOpFAA, rpcOpRMWClear, rpcOpRMWWait:
		// The home-shard ops: one body each (home.go), run here for a peer
		// exactly as startAt runs it in place for this node.
		res := n.homeStep(src, &req, scratch, false)
		if rpcStatusHasPayload(res.status) {
			return appendPayloadResponse(resp, req.id, res.status, res.ts, res.value)
		}
		return appendStatusOnly(resp, req.id, res.status)
	case rpcOpPromotePrepare:
		if n.cache == nil {
			return appendStatusOnly(resp, req.id, rpcStatusBadRequest)
		}
		n.cache.AddPending([]uint64{req.key})
		return appendOKResponse(resp, req.id, timestamp.TS{}, nil)
	case rpcOpUnfreeze:
		if n.cache == nil {
			return appendStatusOnly(resp, req.id, rpcStatusBadRequest)
		}
		n.cache.Unfreeze([]uint64{req.key})
		return appendOKResponse(resp, req.id, timestamp.TS{}, nil)
	case rpcOpDemoteRetire:
		if n.cache == nil {
			return appendStatusOnly(resp, req.id, rpcStatusBadRequest)
		}
		n.cache.Retire([]uint64{req.key})
		return appendOKResponse(resp, req.id, timestamp.TS{}, nil)
	case rpcOpPromote:
		if n.cache == nil {
			return appendStatusOnly(resp, req.id, rpcStatusBadRequest)
		}
		if !n.cache.FillAdd(req.key, req.value, req.ts) {
			// No placeholder (e.g. a prepare raced an overlapping epoch):
			// install directly; an already-live entry is left alone.
			val, ts := req.value, req.ts
			n.cache.Add([]uint64{req.key}, func(uint64) ([]byte, timestamp.TS, bool) {
				return val, ts, true
			})
		}
		return appendOKResponse(resp, req.id, timestamp.TS{}, nil)
	case rpcOpDemoteFreeze:
		if n.cache == nil {
			return appendStatusOnly(resp, req.id, rpcStatusBadRequest)
		}
		n.cache.Freeze([]uint64{req.key})
		return appendOKResponse(resp, req.id, timestamp.TS{}, nil)
	case rpcOpDemoteCollect:
		if n.cache == nil {
			return appendStatusOnly(resp, req.id, rpcStatusBadRequest)
		}
		wb, dirty, stall := n.cache.CollectFrozen(req.key)
		if stall != nil {
			return appendStatusOnly(resp, req.id, rpcStatusRetry)
		}
		if !dirty {
			return appendStatusOnly(resp, req.id, rpcStatusNotFound)
		}
		return appendOKResponse(resp, req.id, wb.TS, wb.Value)
	case rpcOpDemoteCommit:
		if n.cache == nil {
			return appendStatusOnly(resp, req.id, rpcStatusBadRequest)
		}
		n.cache.Remove([]uint64{req.key})
		return appendOKResponse(resp, req.id, timestamp.TS{}, nil)
	default:
		// Unreachable today — parseRequest rejects unknown ops — but kept so
		// the two dispatch tables cannot drift apart silently.
		return appendStatusOnly(resp, req.id, rpcStatusBadRequest)
	}
}
