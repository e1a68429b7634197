package cluster

import (
	"errors"
	"fmt"
	"sync"

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
// runs one sender per peer, so a node's outbound request streams are as
// parallel as its worker bank. Callers enqueue not-yet-encoded requests
// (wireReq); the sender drains whatever is pending — up to maxMsgs requests
// or maxBytes payload per packet — encoding each entry straight into the
// packet buffer, and flushes immediately when the pipeline runs dry, so an
// isolated request never waits for company (opportunistic batching).
// Concurrency is the only source of coalescing: a single closed-loop client
// sees one request per packet, many clients (or one executor run over a
// batch) see multi-request packets.
//
// Flow control: one credit is acquired per request *packet*; the batched
// response packet is the implicit credit update (see rpcClient.handleResponse).

// ErrPipelineClosed fails remote calls issued against a closed cluster.
var ErrPipelineClosed = errors.New("cluster: request pipeline closed")

// pipeline aggregates outstanding remote requests per destination node for
// one worker.
type pipeline struct {
	w        *worker
	maxMsgs  int
	maxBytes int

	mu     sync.RWMutex
	queues map[uint8]chan wireReq
	closed bool
	wg     sync.WaitGroup
}

// newPipeline starts one sender goroutine per remote peer.
func newPipeline(w *worker, peers, depth, maxMsgs, maxBytes int) *pipeline {
	pl := &pipeline{
		w:        w,
		maxMsgs:  maxMsgs,
		maxBytes: maxBytes,
		queues:   make(map[uint8]chan wireReq, peers),
	}
	for peer := 0; peer < peers; peer++ {
		if peer == int(w.node.id) {
			continue
		}
		q := make(chan wireReq, depth)
		pl.queues[uint8(peer)] = q
		pl.wg.Add(1)
		go pl.sender(uint8(peer), q)
	}
	return pl
}

// enqueue hands one request to home's sender. The request is failed (never
// dropped) if the pipeline is closed or home is unknown, so callers blocked
// on the pending channel always complete.
func (pl *pipeline) enqueue(home uint8, q wireReq) {
	pl.mu.RLock()
	if pl.closed {
		pl.mu.RUnlock()
		pl.w.rpc.fail([]uint64{q.id}, ErrPipelineClosed)
		return
	}
	ch := pl.queues[home]
	if ch == nil {
		pl.mu.RUnlock()
		pl.w.rpc.fail([]uint64{q.id}, errors.New("cluster: no pipeline for home node"))
		return
	}
	// The channel send stays under the read lock so close() cannot close the
	// queue between the check and the send.
	ch <- q
	pl.mu.RUnlock()
}

// sender drains home's queue into multi-request packets. Each iteration
// takes one request (blocking) and then opportunistically coalesces whatever
// else is already pending, up to the packet limits. A request that would
// push the packet past maxBytes is carried into the next packet (a single
// oversized request still ships alone — it must go somehow).
func (pl *pipeline) sender(home uint8, q chan wireReq) {
	defer pl.wg.Done()
	w := pl.w
	n := w.node
	cfg := n.cluster.cfg
	kvsAddr := fabric.Addr{Node: home, Thread: cfg.kvsThread(w.idx)}
	srcAddr := fabric.Addr{Node: n.id, Thread: cfg.respThread(w.idx)}
	ids := make([]uint64, 0, pl.maxMsgs)
	// When the transport serializes packets during Send (TCP), the packet
	// buffer is reused across iterations — the request hot path then
	// allocates nothing per packet. Reference-passing transports get a
	// fresh buffer per packet.
	reuse := n.cluster.trCopies
	var buf []byte
	var carry *wireReq
	for {
		var first wireReq
		if carry != nil {
			first, carry = *carry, nil
		} else {
			var ok bool
			if first, ok = <-q; !ok {
				return
			}
		}
		if reuse {
			buf = buf[:0]
		} else {
			buf = make([]byte, 0, first.encodedSize()*2)
		}
		buf = first.appendTo(buf)
		ids = append(ids[:0], first.id)
	collect:
		for len(ids) < pl.maxMsgs && len(buf) < pl.maxBytes {
			select {
			case it, ok := <-q:
				if !ok {
					break collect
				}
				if len(buf)+it.encodedSize() > pl.maxBytes {
					carry = &it // would bust the byte bound: next packet
					break collect
				}
				buf = it.appendTo(buf)
				ids = append(ids, it.id)
			default:
				break collect // pipeline drained: flush now, never wait
			}
		}
		// One credit per packet (§6.3): the batched response restores it. A
		// failed acquire means home left the membership view (its budget was
		// dropped by the view change): fail the whole batch — this is what
		// fails requests *queued* toward a dead peer, not just the in-flight
		// ones rpcClient.failPeer catches — and keep draining; the queue may
		// still hold requests enqueued before the flip.
		if !w.credits.Acquire(kvsAddr) {
			w.rpc.fail(ids, fmt.Errorf("cluster: request for node %d dropped (%w)", home, ErrNodeDown))
			continue
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

// close stops accepting requests and waits for the senders to drain: queued
// requests still go out (their responses complete the waiting callers, so
// call this while the transport is up) or fail when the transport refuses
// the send. Requests enqueued after close fail with ErrPipelineClosed.
func (pl *pipeline) close() {
	pl.mu.Lock()
	if pl.closed {
		pl.mu.Unlock()
		return
	}
	pl.closed = true
	for _, q := range pl.queues {
		close(q)
	}
	pl.mu.Unlock()
	pl.wg.Wait()
}
