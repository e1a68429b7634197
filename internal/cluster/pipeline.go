package cluster

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/metrics"
)

// The request-coalescing pipeline of §6.3/§8.5, applied to the remote-access
// (cache-miss) path. The paper's cache threads never send one network packet
// per remote request: outstanding requests bound for the same home machine
// ride together in multi-request packets, shifting the bottleneck from the
// switch packet-processing rate to raw bandwidth (Figure 13a) and letting
// credits be charged per packet rather than per request.
//
// This reproduction keeps the same shape in goroutine form: every *worker*
// runs one send lane per peer (lane.go), so a node's outbound request streams
// are as parallel as its worker bank. Callers enqueue not-yet-encoded requests
// (wireReq); the lane drains whatever is pending — up to BatchMaxMsgs requests
// or BatchMaxBytes payload per packet — and the flush function below encodes
// each entry straight into the packet buffer.
//
// Flow control: one credit is acquired per request *packet*; the batched
// response packet is the implicit credit update (see rpcClient.handleResponse).

// ErrPipelineClosed fails remote calls issued against a closed cluster.
var ErrPipelineClosed = errors.New("cluster: request pipeline closed")

// requestFlusher returns the flush function of w's request lane toward home:
// it encodes a batch of requests into one packet, charges it one credit and
// sends it. A request the lanes refuse (they are closed) is failed by its
// caller, never dropped — see rpcClient.start.
func (w *worker) requestFlusher(home uint8) func(batch []wireReq, bytes int) {
	n := w.node
	cfg := n.cluster.cfg
	kvsAddr := fabric.Addr{Node: home, Thread: cfg.kvsThread(w.idx)}
	srcAddr := fabric.Addr{Node: n.id, Thread: cfg.respThread(w.idx)}
	ids := make([]uint64, 0, cfg.BatchMaxMsgs)
	// When the transport serializes packets during Send (TCP), the packet
	// buffer is reused across packets — the request hot path then allocates
	// nothing per packet. Reference-passing transports get a fresh buffer per
	// packet.
	reuse := n.cluster.trCopies
	var buf []byte
	return func(batch []wireReq, bytes int) {
		if reuse {
			buf = buf[:0]
		} else {
			buf = make([]byte, 0, bytes)
		}
		ids = ids[:0]
		for i := range batch {
			buf = batch[i].appendTo(buf)
			ids = append(ids, batch[i].id)
		}
		// One credit per packet (§6.3): the batched response restores it. A
		// failed acquire means home left the membership view (its budget was
		// dropped by the view change): fail the whole batch — this is what
		// fails requests *queued* toward a dead peer, not just the in-flight
		// ones rpcClient.failPeer catches; the lane keeps draining, since its
		// queue may still hold requests enqueued before the flip.
		if !w.credits.Acquire(kvsAddr) {
			w.rpc.fail(ids, fmt.Errorf("cluster: request for node %d dropped (%w)", home, ErrNodeDown))
			return
		}
		// Counted before the send (so: packets handed to the transport),
		// because a caller that saw the response must also see the count.
		n.RemoteReqPackets.Add(1)
		n.RemoteReqMsgs.Add(uint64(len(ids)))
		err := n.cluster.transport.Send(fabric.Packet{
			Src:   srcAddr,
			Dst:   kvsAddr,
			Class: metrics.ClassCacheMiss,
			Data:  buf,
		})
		if err != nil {
			// No response will arrive to restore the credit; put it back so
			// the drain of a closing pipeline cannot starve.
			w.credits.Grant(kvsAddr, 1)
			w.rpc.fail(ids, err)
		}
	}
}
