package cluster

import (
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
)

// The coalescing consistency plane: §6.3/§8.5 applied to the write fan-out.
// Figure 11 shows that for write-heavy skewed workloads the message *count*
// is dominated by header-only invalidations and acks, so sending each
// update/invalidation/ack as its own packet — one credit acquire, one
// transport send, one receive apiece — makes per-message overhead the write
// path's bottleneck long before bandwidth. Like the request pipeline
// (pipeline.go), every worker runs one consistency send lane per peer
// (lane.go): callers enqueue core.Msg values — the one form a consistency
// message has, on the wire and off it — the lane drains whatever is pending
// into multi-message batches (up to Config.BatchMaxMsgs / BatchMaxBytes) — at
// once when it runs dry, so an isolated write's latency is untouched — and the
// flush function below encodes each message straight into the packet buffer.
// Enqueuing allocates nothing, and an update's value (an immutable copy core
// handed out) is shared by every peer lane that holds it.
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

// conCut marks where an update's value bytes splice into the header buffer
// on the vectored path. Offsets (not slices) are recorded because the
// buffer may reallocate as later message headers append.
type conCut struct {
	off int
	val []byte
}

// postConsistency hands one message to w's lane toward peer without ever
// blocking — the form receive dispatchers use, for the acks they return and
// for the update a write's last ack publishes. A dispatcher that blocked on a
// full lane would stop noting received packets toward credit updates, and two
// nodes doing that to each other would starve both senders for good; so a full
// lane falls back to an immediate uncoalesced send (the pre-coalescing
// behavior: unacquired, with the receiver's matching grant absorbed by the
// budget cap). Leaving the lane's order is safe for both kinds: an ack is
// matched by timestamp, and a Lin update applies only on an exact timestamp
// match. Closed lanes drop the message, as enqueue does — consistency traffic
// is fire-and-forget.
func (w *worker) postConsistency(peer uint8, m core.Msg) {
	if _, full := w.con.post(peer, m); !full {
		return
	}
	n := w.node
	th := n.cluster.cfg.cacheThread(w.idx)
	n.cluster.transport.Send(fabric.Packet{
		Src:   fabric.Addr{Node: n.id, Thread: th},
		Dst:   fabric.Addr{Node: peer, Thread: th},
		Class: classOf(m.Type),
		Data:  m.Encode(nil),
	})
}

// consistencyFlusher returns the flush function of w's consistency lane toward
// peer: it charges a batch of messages one credit, encodes them into one
// packet and sends it.
func (w *worker) consistencyFlusher(peer uint8) func(batch []core.Msg, size int) {
	n := w.node
	cfg := n.cluster.cfg
	th := cfg.cacheThread(w.idx)
	dst := fabric.Addr{Node: peer, Thread: th}
	src := fabric.Addr{Node: n.id, Thread: th}
	// When the transport serializes packets during Send (TCP), the packet
	// buffer, scatter list and span list are all reused across packets — the
	// consistency hot path then allocates nothing per packet, and update
	// values go to the wire as their own segments (Packet.Segs) without ever
	// being re-copied. Reference-passing transports get a fresh flat buffer
	// per packet with the values copied in (they must break aliasing anyway).
	vectored := n.cluster.trCopies
	cuts := make([]conCut, 0, cfg.BatchMaxMsgs)
	segs := make([][]byte, 0, 2*cfg.BatchMaxMsgs+1)
	var buf []byte
	var spans []fabric.ClassSpan
	return func(batch []core.Msg, size int) {
		// One credit per consistency packet (§6.3), restored by the
		// receiver's batched credit updates. A failed acquire means peer left
		// the membership view (its budget was dropped by the view change):
		// discard the whole batch — consistency messages toward a dead peer
		// are moot, and any Lin writer counting on its acks is completed by
		// the view change (Cache.SetLive); the lane keeps draining, since its
		// queue may still hold messages enqueued before the flip.
		if !w.credits.Acquire(dst) {
			return
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
			msgs[m.Type]++
			bytes[m.Type] += uint32(m.Size())
			if vectored && m.Type == core.MsgUpdate {
				buf = m.AppendHead(buf)
				cuts = append(cuts, conCut{off: len(buf), val: m.Value})
			} else {
				buf = m.Encode(buf)
			}
		}
		for _, k := range [...]core.MsgType{core.MsgUpdate, core.MsgInvalidation, core.MsgAck} {
			if msgs[k] > 0 {
				spans = append(spans, fabric.ClassSpan{Class: classOf(k), Msgs: msgs[k], Bytes: bytes[k]})
			}
		}
		p := fabric.Packet{Src: src, Dst: dst, Class: classOf(batch[0].Type), Spans: spans}
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
