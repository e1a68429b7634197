// Package fabric is the communication substrate of the ccKVS reproduction.
//
// The paper runs on RDMA: RPCs over Unreliable Datagram sends in the style
// of FaSST, with credit-based flow control, send-side batching of work
// requests, payload inlining below 189 bytes, selective signaling and a
// software broadcast primitive (EuroSys'18, §6.3-6.4). Go has no mature RDMA
// verbs binding, so this package reproduces the *semantics and accounting*
// of that layer over two interchangeable transports:
//
//   - ChanTransport: goroutine/channel message passing inside one process
//     (the default for experiments; deterministic-ish and allocation-light).
//   - TCPTransport: real sockets for multi-process deployments
//     (cmd/cckvs-node), framing the same packets over TCP connections.
//
// Endpoints address (node, thread) pairs — ccKVS deliberately limits which
// threads talk to which (§6.4, "Reducing Connections") and the Addr type
// preserves that structure. Every packet carries a message class so network
// traffic can be broken down exactly as in Figure 11.
package fabric

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/metrics"
)

// Addr identifies a communication endpoint: a thread on a node. ccKVS binds
// each cache thread to exactly one cache thread and one KVS thread per
// remote machine, which keeps the number of queue pairs (and posted
// receives) linear rather than quadratic in thread count.
type Addr struct {
	Node   uint8
	Thread uint8
}

// String renders the address as "n<node>/t<thread>".
func (a Addr) String() string { return fmt.Sprintf("n%d/t%d", a.Node, a.Thread) }

// Packet is one network datagram. Data may hold several application
// messages coalesced together (§8.5); Class attributes the bytes for the
// Figure 11 traffic breakdown.
//
// A packet carries its payload either flat (Data) or vectored (Segs). When
// Segs is non-nil the wire payload is the in-order concatenation of the
// segments and Data is ignored; senders use this to gather header metadata
// and zero-copy value slices (e.g. store leases) without flattening them
// into one buffer. Every Transport implementation consumes the segments
// before Send returns — by copying them into the connection's staging buffer
// (TCP) or by flattening into a fresh buffer (in-process transports) — so the
// caller may release or reuse the segment memory as soon as Send returns.
// A packet that coalesces messages of several classes (the consistency
// plane mixes updates, invalidations and piggybacked acks in one fan-out
// packet) may carry Spans: per-class message counts and payload bytes for
// the traffic accountant. Spans are sender-side accounting metadata only —
// they never travel on the wire and receivers must not rely on them.
type Packet struct {
	Src   Addr
	Dst   Addr
	Class metrics.MsgClass
	Data  []byte
	Segs  [][]byte
	Spans []ClassSpan
}

// ClassSpan attributes a group of coalesced messages inside one packet to a
// message class, so a mixed consistency packet is broken down exactly in the
// Figure 11 accounting: Msgs messages totalling Bytes payload bytes of
// Class. (The messages themselves stay in queue order on the wire; spans
// only tally them.)
type ClassSpan struct {
	Class metrics.MsgClass
	Msgs  uint32
	Bytes uint32
}

// payloadLen is the wire payload size: Segs when vectored, Data otherwise.
func (p *Packet) payloadLen() int {
	if p.Segs == nil {
		return len(p.Data)
	}
	n := 0
	for _, s := range p.Segs {
		n += len(s)
	}
	return n
}

// flatten materializes a vectored payload into one fresh buffer. The result
// is newly allocated (receiver may retain it); flat packets are returned
// as-is.
func (p *Packet) flatten() Packet {
	if p.Segs == nil {
		return *p
	}
	buf := make([]byte, 0, p.payloadLen())
	for _, s := range p.Segs {
		buf = append(buf, s...)
	}
	return Packet{Src: p.Src, Dst: p.Dst, Class: p.Class, Data: buf}
}

// WireOverhead is the per-packet header cost (transport headers plus the
// UD/GRH-equivalent framing) charged by the traffic accountant. With it, an
// 8-byte-key request plus a 40-byte-value reply cost 113 bytes on the wire,
// matching the B_RR constant of the paper's analytical model (§8.7).
const WireOverhead = 32

// InlineThreshold is the largest payload that would be inlined into the work
// request on real hardware, sparing the NIC a DMA read (§6.4). The transports
// only account for it (see Stats), since host memory makes inlining moot.
const InlineThreshold = 189

// Handler consumes packets delivered to a registered address.
type Handler func(Packet)

// Transport moves packets between addresses.
type Transport interface {
	// Register installs the handler for an address. Packets sent to an
	// unregistered address are dropped (UD semantics: no connection, no
	// error back to the sender).
	Register(addr Addr, h Handler)
	// Send delivers one packet asynchronously. It may block briefly for
	// backpressure but must not wait for the handler to run.
	Send(p Packet) error
	// Close tears the transport down; subsequent Sends fail.
	Close() error
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("fabric: transport closed")

// Stats collects transport-level counters: packets/bytes by class plus the
// RDMA-flavored bookkeeping (inlined sends).
type Stats struct {
	Traffic     *metrics.Traffic
	Inlined     metrics.Counter
	SendsTotal  metrics.Counter
	RecvsTotal  metrics.Counter
	SendBlocked metrics.Counter // sends that found a full queue (backpressure)
	// ReadCalls and WriteCalls count the TCP transport's socket reads and
	// socket writes, so RecvsTotal/ReadCalls is the achieved frames per read
	// and SendsTotal/WriteCalls the packets per write. A write carries every
	// frame staged on its connection by the time the connection's writer
	// runs, whoever staged it, so WriteCalls moves after Send returns: read
	// it once the frames were delivered.
	ReadCalls  metrics.Counter
	WriteCalls metrics.Counter
	// Vectored/flattened account how segmented payloads (Packet.Segs) left
	// the process: VectoredBytes reached the TCP transport as segments and
	// were copied once, straight into the connection's staging buffer, with
	// no buffer of the sender's own in between; FlattenedBytes were first
	// gathered into a fresh buffer the receiver then holds (in-process
	// transports, which must break aliasing). Either way the segment memory
	// is free when Send returns. Both — like SendsTotal — are bumped before
	// the packet can reach its receiver, so a test that saw the packet's
	// effect reads a settled count. The assertions on the session reply path
	// in internal/cluster read these.
	VectoredBytes  metrics.Counter
	FlattenedBytes metrics.Counter
	// OversizeFrames counts inbound TCP frames refused (and connections
	// closed) for claiming more than MaxFrameBytes.
	OversizeFrames metrics.Counter
	// Coalesce holds the messages-per-packet histograms fed by span-carrying
	// packets (the coalesced consistency plane): one histogram per class, so
	// the achieved §6.3 coalescing factor is observable per message class.
	Coalesce *metrics.Coalescing
}

// NewStats returns a zeroed stats block.
func NewStats() *Stats {
	return &Stats{Traffic: metrics.NewTraffic(), Coalesce: metrics.NewCoalescing()}
}

// account records one sent packet. Span-carrying packets charge each span's
// messages and payload bytes to that span's class — Traffic.Packets then
// counts *messages* per class, which keeps the per-class message counts
// exact whether or not coalescing batched them — with the per-packet wire
// overhead going to the packet's nominal class. Flat packets charge one
// message of the packet's class, as before.
func (s *Stats) account(p Packet) {
	if s == nil {
		return
	}
	s.SendsTotal.Add(1)
	n := p.payloadLen()
	if len(p.Spans) == 0 {
		s.Traffic.Add(p.Class, uint64(n)+WireOverhead)
	} else {
		s.Traffic.AddN(p.Class, 0, WireOverhead)
		for _, sp := range p.Spans {
			s.Traffic.AddN(sp.Class, uint64(sp.Msgs), uint64(sp.Bytes))
			if s.Coalesce != nil {
				s.Coalesce.Record(sp.Class, uint64(sp.Msgs))
			}
		}
	}
	if n <= InlineThreshold {
		s.Inlined.Add(1)
	}
}

// ChanTransport delivers packets through per-address buffered channels, one
// dispatcher goroutine per registered address. Sends block when a
// destination queue is full, which stands in for the switch/NIC
// backpressure of the real fabric.
type ChanTransport struct {
	mu     sync.RWMutex
	queues map[Addr]chan Packet
	wg     sync.WaitGroup
	sends  sync.WaitGroup // in-flight Send calls (see Close)
	closed bool
	depth  int
	stats  *Stats
}

// NewChanTransport returns an in-process transport whose per-address queues
// hold depth packets (depth <= 0 selects a default of 1024, roughly the
// posted-receive budget ccKVS provisions per queue pair).
func NewChanTransport(depth int, stats *Stats) *ChanTransport {
	if depth <= 0 {
		depth = 1024
	}
	return &ChanTransport{queues: make(map[Addr]chan Packet), depth: depth, stats: stats}
}

// Register installs h for addr and starts its dispatcher.
func (t *ChanTransport) Register(addr Addr, h Handler) {
	q := make(chan Packet, t.depth)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	if _, dup := t.queues[addr]; dup {
		t.mu.Unlock()
		panic(fmt.Sprintf("fabric: duplicate registration for %v", addr))
	}
	t.queues[addr] = q
	t.mu.Unlock()

	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for p := range q {
			if t.stats != nil {
				t.stats.RecvsTotal.Add(1)
			}
			h(p)
		}
	}()
}

// Send enqueues p for its destination. Unknown destinations drop the packet
// (datagram semantics). The sender registers itself in t.sends before
// releasing the lock, so Close can wait for every in-flight (possibly
// blocked-on-backpressure) send to land before it closes the queues — a
// send on a closed channel is therefore impossible, and because Close only
// *marks* the transport closed before waiting, nested Sends issued by
// dispatcher handlers fail fast with ErrClosed instead of deadlocking the
// drain.
func (t *ChanTransport) Send(p Packet) error {
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return ErrClosed
	}
	q, ok := t.queues[p.Dst]
	t.stats.account(p)
	t.sends.Add(1)
	t.mu.RUnlock()
	defer t.sends.Done()
	if !ok {
		return nil // dropped; segment memory is trivially unreferenced
	}
	// Spans are sender-side accounting metadata (consumed by account above);
	// in-process delivery retains the packet by reference, so strip them
	// rather than let the receiver alias a buffer the sender may reuse.
	p.Spans = nil
	if p.Segs != nil {
		// In-process delivery passes the payload by reference and the
		// receiver may retain it, so a vectored payload must be broken from
		// its segment aliases here — the Segs contract says the caller may
		// reuse/release segment memory the moment Send returns.
		if t.stats != nil {
			t.stats.FlattenedBytes.Add(uint64(p.payloadLen()))
		}
		p = p.flatten()
	}
	select {
	case q <- p:
	default:
		if t.stats != nil {
			t.stats.SendBlocked.Add(1)
		}
		q <- p // block until space frees up; dispatchers keep draining
	}
	return nil
}

// Close stops all dispatchers after draining queued packets. Sends that
// were already in flight complete (the dispatchers are still consuming, so
// even backpressure-blocked senders drain); Sends arriving after Close —
// including ones issued by handlers while the drain runs — fail with
// ErrClosed.
func (t *ChanTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	t.sends.Wait()
	t.mu.Lock()
	for _, q := range t.queues {
		close(q)
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
