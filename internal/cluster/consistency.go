package cluster

import (
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/timestamp"
)

// The coalescing consistency plane: §6.3/§8.5 applied to the write fan-out.
// Figure 11 shows that for write-heavy skewed workloads the message *count*
// is dominated by header-only invalidations and acks, so sending each
// update/invalidation/ack as its own packet — one credit acquire, one
// transport send, one receive apiece — makes per-message overhead the write
// path's bottleneck long before bandwidth. Like the request pipeline
// (pipeline.go), every worker runs one consistency sender per peer: callers
// enqueue decoded messages, the sender drains whatever is pending into
// multi-message packets (up to Config.BatchMaxMsgs / BatchMaxBytes),
// encodes each message straight into the packet buffer, and flushes
// immediately when the lane runs dry so an isolated write's latency is
// untouched (doorbell batching: concurrency is the only source of
// coalescing).
//
// Flow control is charged per *packet*, not per message — the receiving
// side already notes one credit per consistency packet
// (worker.handleConsistency → CreditBatcher.Note), so charging the sender
// per packet keeps the ledger symmetric and is exactly the paper's
// credits-per-packet economy.
//
// Acks piggyback for free: sendAck posts onto the same per-worker lane
// toward the writer, so an ack shares its packet with whatever updates or
// invalidations are already headed there. Key steering makes the lane
// well-defined — a key's messages always travel worker(key)'s lane — and
// per-lane channel FIFO plus in-packet decode order preserves the per-key
// ordering invariant (see core.Decode).
//
// Ordering across a view flip: messages queued toward an excised peer are
// dropped at the credit acquire, exactly like pipeline senders fail queued
// requests — the view change dropped the peer's budget, Acquire returns
// false, and the whole batch toward the dead peer is discarded (consistency
// traffic is fire-and-forget; Lin writers waiting on the dead peer's acks
// are completed by the view change itself, Cache.SetLive).

// conMsg is one queued consistency message in decoded form. Encoding
// happens at flush time, straight into the packet buffer, so enqueuing
// allocates nothing and a batch shares one buffer instead of paying one
// Encode(nil) allocation per message. Update values are immutable copies
// (core returns freshly-copied values from WriteSC/finishPendingLocked), so
// one value slice is safely shared by every peer lane holding it.
type conMsg struct {
	kind  core.MsgType
	key   uint64
	ts    timestamp.TS
	from  uint8  // invalidation: writer node (ack destination); ack: acking node
	value []byte // update payload; read-only
}

// classOf maps a message kind to its Figure 11 traffic class.
func classOf(k core.MsgType) metrics.MsgClass {
	switch k {
	case core.MsgUpdate:
		return metrics.ClassUpdate
	case core.MsgInvalidation:
		return metrics.ClassInvalidate
	default:
		return metrics.ClassAck
	}
}

// encodedSize returns the message's wire size.
func (m *conMsg) encodedSize() int {
	switch m.kind {
	case core.MsgUpdate:
		return core.Update{Value: m.value}.EncodedSize()
	case core.MsgInvalidation:
		return core.Invalidation{}.EncodedSize()
	default:
		return core.Ack{}.EncodedSize()
	}
}

// encode appends the message's wire form to buf.
func (m *conMsg) encode(buf []byte) []byte {
	switch m.kind {
	case core.MsgUpdate:
		return core.Update{Key: m.key, TS: m.ts, Value: m.value}.Encode(buf)
	case core.MsgInvalidation:
		return core.Invalidation{Key: m.key, TS: m.ts, From: m.from}.Encode(buf)
	default:
		return core.Ack{Key: m.key, TS: m.ts, From: m.from}.Encode(buf)
	}
}

// conCut marks where an update's value bytes splice into the header buffer
// on the vectored path. Offsets (not slices) are recorded because the
// buffer may reallocate as later message headers append.
type conCut struct {
	off int
	val []byte
}

// conPlane aggregates outbound consistency messages per destination node
// for one worker.
type conPlane struct {
	w        *worker
	maxMsgs  int
	maxBytes int

	mu     sync.RWMutex
	queues map[uint8]chan conMsg
	closed bool
	wg     sync.WaitGroup
}

// newConPlane starts one consistency sender goroutine per remote peer.
func newConPlane(w *worker, peers, depth, maxMsgs, maxBytes int) *conPlane {
	cp := &conPlane{
		w:        w,
		maxMsgs:  maxMsgs,
		maxBytes: maxBytes,
		queues:   make(map[uint8]chan conMsg, peers),
	}
	for peer := 0; peer < peers; peer++ {
		if peer == int(w.node.id) {
			continue
		}
		q := make(chan conMsg, depth)
		cp.queues[uint8(peer)] = q
		cp.wg.Add(1)
		go cp.sender(uint8(peer), q)
	}
	return cp
}

// enqueue hands one message to peer's lane, blocking when the lane is full
// (backpressure on the writer). A closed plane or unknown peer drops the
// message — consistency traffic is fire-and-forget, matching how a closed
// transport dropped these sends before.
func (cp *conPlane) enqueue(peer uint8, m conMsg) {
	cp.mu.RLock()
	ch := cp.queues[peer]
	if cp.closed || ch == nil {
		cp.mu.RUnlock()
		return
	}
	// The channel send stays under the read lock so close() cannot close the
	// queue between the check and the send.
	ch <- m
	cp.mu.RUnlock()
}

// post hands one message to peer's lane without ever blocking — the form
// receive dispatchers use, for the acks they return and for the update a
// write's last ack publishes. A dispatcher that blocked on a full lane would
// stop noting received packets toward credit updates, and two nodes doing
// that to each other would starve both senders for good; so a full lane
// falls back to an immediate uncoalesced send (the pre-coalescing behavior:
// unacquired, with the receiver's matching grant absorbed by the budget cap).
// Leaving the lane's order is safe for both kinds: an ack is matched by
// timestamp, and a Lin update applies only on an exact timestamp match.
func (cp *conPlane) post(peer uint8, m conMsg) {
	cp.mu.RLock()
	ch := cp.queues[peer]
	if cp.closed || ch == nil {
		cp.mu.RUnlock()
		return // dropped, like enqueue
	}
	select {
	case ch <- m:
		cp.mu.RUnlock()
		return
	default:
	}
	cp.mu.RUnlock()
	n := cp.w.node
	th := n.cluster.cfg.cacheThread(cp.w.idx)
	n.cluster.transport.Send(fabric.Packet{
		Src:   fabric.Addr{Node: n.id, Thread: th},
		Dst:   fabric.Addr{Node: peer, Thread: th},
		Class: classOf(m.kind),
		Data:  m.encode(nil),
	})
}

// sender drains peer's queue into multi-message consistency packets. Each
// iteration takes one message (blocking) and then opportunistically
// coalesces whatever else is already pending, up to the packet limits; a
// message that would push the packet past maxBytes is carried into the next
// packet (a single oversized message still ships alone).
func (cp *conPlane) sender(peer uint8, q chan conMsg) {
	defer cp.wg.Done()
	w := cp.w
	n := w.node
	cfg := n.cluster.cfg
	th := cfg.cacheThread(w.idx)
	dst := fabric.Addr{Node: peer, Thread: th}
	src := fabric.Addr{Node: n.id, Thread: th}
	// When the transport serializes packets during Send (TCP), the packet
	// buffer, scatter list and span list are all reused across iterations —
	// the consistency hot path then allocates nothing per packet, and update
	// values go to the wire as their own segments (Packet.Segs) without ever
	// being re-copied. Reference-passing transports get a fresh flat buffer
	// per packet with the values copied in (they must break aliasing anyway).
	vectored := n.cluster.trCopies
	batch := make([]conMsg, 0, cp.maxMsgs)
	cuts := make([]conCut, 0, cp.maxMsgs)
	segs := make([][]byte, 0, 2*cp.maxMsgs+1)
	var buf []byte
	var spans []fabric.ClassSpan
	var carry *conMsg
	for {
		var first conMsg
		if carry != nil {
			first, carry = *carry, nil
		} else {
			var ok bool
			if first, ok = <-q; !ok {
				return
			}
		}
		batch = append(batch[:0], first)
		size := first.encodedSize()
		batch, size = cp.drain(q, batch, size, &carry)
		if len(batch) > 1 && len(batch) < cp.maxMsgs && carry == nil {
			// The doorbell pause: the first drain found company, so writers
			// are actively ringing. One yield lets them enqueue what they are
			// blocked on right now, deepening the packet without ever holding
			// up an isolated write (a batch of one flushes immediately above).
			// One shot, not a wait: there is no event to park on.
			runtime.Gosched()
			batch, size = cp.drain(q, batch, size, &carry)
		}
		// One credit per consistency packet (§6.3), restored by the
		// receiver's batched credit updates. A failed acquire means peer left
		// the membership view (its budget was dropped by the view change):
		// discard the whole batch — consistency messages toward a dead peer
		// are moot, and any Lin writer counting on its acks is completed by
		// the view change (Cache.SetLive) — and keep draining; the queue may
		// still hold messages enqueued before the flip.
		if !w.credits.Acquire(dst) {
			continue
		}
		if vectored {
			buf = buf[:0]
			spans = spans[:0]
		} else {
			buf = make([]byte, 0, size)
			spans = make([]fabric.ClassSpan, 0, 3)
		}
		cuts = cuts[:0]
		var msgs, bytes [4]uint32 // indexed by core.MsgType (1..3)
		for i := range batch {
			m := &batch[i]
			msgs[m.kind]++
			bytes[m.kind] += uint32(m.encodedSize())
			if vectored && m.kind == core.MsgUpdate {
				buf = core.Update{Key: m.key, TS: m.ts, Value: m.value}.EncodeHeader(buf)
				cuts = append(cuts, conCut{off: len(buf), val: m.value})
			} else {
				buf = m.encode(buf)
			}
		}
		for _, k := range [...]core.MsgType{core.MsgUpdate, core.MsgInvalidation, core.MsgAck} {
			if msgs[k] > 0 {
				spans = append(spans, fabric.ClassSpan{Class: classOf(k), Msgs: msgs[k], Bytes: bytes[k]})
			}
		}
		p := fabric.Packet{Src: src, Dst: dst, Class: classOf(batch[0].kind), Spans: spans}
		if len(cuts) > 0 {
			segs = segs[:0]
			prev := 0
			for _, c := range cuts {
				segs = append(segs, buf[prev:c.off], c.val)
				prev = c.off
			}
			if prev < len(buf) {
				segs = append(segs, buf[prev:])
			}
			p.Segs = segs
		} else {
			p.Data = buf
		}
		// Counted before the send, like the request pipeline's counters.
		n.ConPackets.Add(1)
		n.ConMsgs.Add(uint64(len(batch)))
		if err := n.cluster.transport.Send(p); err != nil {
			// The receiver will never note this packet toward a credit
			// update; put the credit back so a closing drain cannot starve.
			w.credits.Grant(dst, 1)
		}
	}
}

// drain opportunistically moves whatever is already pending on q into batch,
// up to the packet's message and byte bounds; it never waits. A message that
// would push the packet past maxBytes is parked in carry for the next packet.
func (cp *conPlane) drain(q chan conMsg, batch []conMsg, size int, carry **conMsg) ([]conMsg, int) {
	for len(batch) < cp.maxMsgs && size < cp.maxBytes {
		select {
		case it, ok := <-q:
			if !ok {
				return batch, size
			}
			if size+it.encodedSize() > cp.maxBytes {
				*carry = &it // would bust the byte bound: next packet
				return batch, size
			}
			batch = append(batch, it)
			size += it.encodedSize()
		default:
			return batch, size // lane drained: flush now, never wait
		}
	}
	return batch, size
}

// close stops accepting messages and waits for the senders to drain: queued
// messages still go out (call this while the transport is up, like
// pipeline.close) or are discarded when the transport refuses the send.
// Messages enqueued after close are dropped.
func (cp *conPlane) close() {
	cp.mu.Lock()
	if cp.closed {
		cp.mu.Unlock()
		return
	}
	cp.closed = true
	for _, q := range cp.queues {
		close(q)
	}
	cp.mu.Unlock()
	cp.wg.Wait()
}
