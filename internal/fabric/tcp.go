package fabric

import (
	"encoding/binary"
	"fmt"
	"maps"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// TCPTransport carries fabric packets over real sockets for multi-process
// deployments (cmd/cckvs-node). One transport instance serves all the
// threads of one node: it listens on a single port, demultiplexes inbound
// frames to per-(node,thread) handlers, and maintains one outbound
// connection per peer node.
//
// The frame format is:
//
//	dstNode(1) dstThread(1) srcNode(1) srcThread(1) class(1) len(4) data
//
// TCP provides reliability and per-connection FIFO, which is strictly
// stronger than the RDMA UD datagrams of the paper; the consistency
// protocols tolerate both (they assume neither ordering nor multicast).
//
// A system call moves a burst, not a frame (§6.3's argument, applied to the
// socket): one read pulls every frame already queued on a connection
// (readLoop), and one vectored write carries every adjacent packet of a
// burst that goes to the same node (SendBurst; Send is its one-packet case).
type TCPTransport struct {
	self   uint8
	ln     net.Listener
	stats  *Stats
	closed atomic.Bool

	// handlers and conns are read for every inbound frame and every send, by
	// every connection's read loop and every sender, so readers take no lock:
	// handlers is a copy-on-write snapshot, conns one slot per node id. Their
	// writers (Register; connTo's dial, noteRoute, notePeerDown) serialize on
	// mu.
	handlers atomic.Pointer[map[Addr]Handler]
	conns    [256]atomic.Pointer[tcpConn]

	mu      sync.Mutex
	peers   map[uint8]string
	inbound []net.Conn
	wg      sync.WaitGroup

	// onPeerDown, when set, is invoked once per broken connection with the
	// node id the connection served (see SetPeerDownHandler).
	onPeerDown func(node uint8, cause error)
}

type tcpConn struct {
	mu sync.Mutex
	c  net.Conn
}

const tcpFrameHeader = 1 + 1 + 1 + 1 + 1 + 4

// MaxFrameBytes is the largest payload the read loop accepts. The length
// field comes straight off the socket, so it is untrusted: a frame claiming
// more is refused before anything is allocated for it, the connection is
// closed and Stats.OversizeFrames counts it. 16 MiB comfortably covers the
// largest legal frame any layer builds today (1 MiB session batches,
// Config.BatchMaxBytes-bounded rpc and consistency packets, single-value
// reseed write-backs).
const MaxFrameBytes = 16 << 20

// tcpReadBuf sizes each connection's receive buffer: one read returns up to
// this many bytes of queued frames. 64 KiB holds hundreds of single-op frames
// and dozens of batch-32 frames; a larger frame bypasses the buffer.
const tcpReadBuf = 64 << 10

// sendBuf is the pooled scratch of one vectored write: the frame headers of
// the packets it carries, back to back, and the scatter list pointing into
// them and at the packets' payload memory. The list is nilled before pooling
// so the pool never retains payload memory.
type sendBuf struct {
	hdrs []byte
	v    net.Buffers // the full list; keeps the backing array
	w    net.Buffers // the view WriteTo consumes
}

var sendBufPool = sync.Pool{New: func() any { return new(sendBuf) }}

// SendCopiesData reports that Send hands every byte of the packet — flat
// payload or segments — to the kernel before returning: callers may reuse
// p.Data and p.Segs memory — e.g. release store leases — as soon as Send
// returns.
// Handlers get the mirror guarantee's *absence*: p.Data aliases the
// connection's receive buffer, which the next frame overwrites, so a Handler
// must copy anything it retains past its return. Race builds scribble 0xDD
// over the frame the moment the handler returns, so a handler that keeps an
// alias fails loudly instead of reading the next frame's bytes.
func (t *TCPTransport) SendCopiesData() bool { return true }

// NewTCPTransport starts a transport for node self listening on listenAddr
// (e.g. ":7000" or "127.0.0.1:0" for an ephemeral test port). A nil stats is
// replaced by a private block.
func NewTCPTransport(self uint8, listenAddr string, stats *Stats) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("fabric: listen %s: %w", listenAddr, err)
	}
	t := newTCPTransport(self, ln, stats)
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

func newTCPTransport(self uint8, ln net.Listener, stats *Stats) *TCPTransport {
	if stats == nil {
		stats = NewStats()
	}
	t := &TCPTransport{self: self, ln: ln, stats: stats, peers: map[uint8]string{}}
	t.handlers.Store(&map[Addr]Handler{})
	return t
}

// ListenAddr returns the bound listen address (useful with ephemeral ports).
func (t *TCPTransport) ListenAddr() string { return t.ln.Addr().String() }

// AddPeer associates a node id with its dialable address.
func (t *TCPTransport) AddPeer(node uint8, addr string) {
	t.mu.Lock()
	t.peers[node] = addr
	t.mu.Unlock()
}

// Register installs a handler for one local (node, thread) address. Frames
// parsed after Register returns see it.
func (t *TCPTransport) Register(addr Addr, h Handler) {
	t.mu.Lock()
	m := maps.Clone(*t.handlers.Load())
	m[addr] = h
	t.handlers.Store(&m)
	t.mu.Unlock()
}

// SetPeerDownHandler installs a callback fired when a connection to a peer
// breaks — the peer process died, was killed, or closed its transport. The
// owner uses it to fail RPCs pending toward that peer (Cluster.PeerDown,
// Client peer-down handling) instead of letting their callers hang; TCP's
// reliable stream guarantees a response can never arrive once the carrying
// connection is gone. Not fired on local Close (the owner is tearing down
// and fails its pending calls itself). Set before traffic starts.
func (t *TCPTransport) SetPeerDownHandler(f func(node uint8, cause error)) {
	t.mu.Lock()
	t.onPeerDown = f
	t.mu.Unlock()
}

// notePeerDown drops the broken connection's route entry and fires the
// peer-down callback. Only the connection currently routing to node
// triggers it — a redundant inbound connection breaking says nothing about
// the peer, and the route-entry delete makes the callback fire exactly once
// per broken route even when read and write sides fail together. Not fired
// while the transport itself is closing.
func (t *TCPTransport) notePeerDown(node uint8, c net.Conn, cause error) {
	if t.closed.Load() {
		return
	}
	t.mu.Lock()
	tc := t.conns[node].Load()
	active := tc != nil && tc.c == c
	if active {
		t.conns[node].Store(nil) // a retry will redial
	}
	f := t.onPeerDown
	t.mu.Unlock()
	if !active || f == nil {
		return
	}
	if cause == nil {
		cause = fmt.Errorf("connection to node %d closed", node)
	}
	f(node, cause)
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		ok := t.adoptLocked(c)
		t.mu.Unlock()
		if !ok {
			return
		}
		go t.readLoop(c, -1, make([]byte, tcpReadBuf))
	}
}

// adoptLocked registers c for teardown by Close and accounts for the read
// loop its caller is about to start; it refuses (and closes c) once Close has
// begun, so no connection or read loop slips past Close's sweep. Callers hold
// t.mu.
func (t *TCPTransport) adoptLocked(c net.Conn) bool {
	if t.closed.Load() {
		c.Close()
		return false
	}
	t.inbound = append(t.inbound, c)
	t.wg.Add(1)
	return true
}

// readLoop drains one connection through buf, its receive buffer (tcpReadBuf
// bytes; at least a frame header). peer is the node id the connection serves
// when known at start (outbound dials); inbound connections learn it from
// the first frame. A broken connection whose peer is known reports it down.
//
// One read fills the buffer with whatever the socket has queued — usually
// several frames — and every complete frame in it is parsed in place and
// handed to its handler before the next read. A Handler runs synchronously
// and must copy anything it keeps past its return: its payload is a window of
// the buffer. Only a frame too large for the buffer is read into a slice of
// its own (after the MaxFrameBytes check).
func (t *TCPTransport) readLoop(c net.Conn, peer int, buf []byte) {
	defer t.wg.Done()
	defer c.Close()
	var big []byte // payload of a frame that outgrows buf, reused
	r, w := 0, 0   // buf[r:w] is read and not yet delivered
	for {
		m, err := c.Read(buf[w:])
		t.stats.ReadCalls.Add(1)
		w += m
		for w-r >= tcpFrameHeader {
			hdr := buf[r : r+tcpFrameHeader]
			if peer < 0 {
				// Learn the return route: replies to this sender can reuse the
				// inbound connection even when the sender (e.g. a client with
				// an ephemeral port) is not in the peers table.
				peer = int(hdr[2])
				t.noteRoute(hdr[2], c)
			}
			n := binary.LittleEndian.Uint32(hdr[5:9])
			if n > MaxFrameBytes {
				t.stats.OversizeFrames.Add(1)
				t.notePeerDown(uint8(peer), c, fmt.Errorf("fabric: frame of %d bytes exceeds MaxFrameBytes", n))
				return
			}
			body, end := r+tcpFrameHeader, r+tcpFrameHeader+int(n)
			if end <= w {
				t.deliver(hdr, buf[body:end])
				r = end
				continue
			}
			if end-r <= len(buf) {
				break // the rest of the frame fits behind what is here: read on
			}
			if uint32(cap(big)) < n {
				big = make([]byte, n)
			}
			big = big[:n]
			have := copy(big, buf[body:w])
			for have < len(big) && err == nil {
				m, err = c.Read(big[have:])
				t.stats.ReadCalls.Add(1)
				have += m
			}
			if have < len(big) {
				break // err is set; the truncated frame is dropped below
			}
			t.deliver(hdr, big)
			r, w = 0, 0
		}
		if err != nil {
			if peer >= 0 {
				t.notePeerDown(uint8(peer), c, err)
			}
			return
		}
		// Move the partial frame (if any) to the front, so it has the whole
		// buffer to complete in and the next read the most room.
		w = copy(buf, buf[r:w])
		r = 0
	}
}

// deliver hands one inbound frame to the handler registered for its
// destination; unknown destinations are dropped (datagram semantics).
func (t *TCPTransport) deliver(hdr, data []byte) {
	p := Packet{
		Dst:   Addr{Node: hdr[0], Thread: hdr[1]},
		Src:   Addr{Node: hdr[2], Thread: hdr[3]},
		Class: metrics.MsgClass(hdr[4]),
		Data:  data,
	}
	t.stats.RecvsTotal.Add(1)
	if h := (*t.handlers.Load())[p.Dst]; h != nil {
		h(p)
	}
	if raceBuild {
		for i := range data {
			data[i] = 0xDD
		}
	}
}

// Send frames p and writes it to the destination node's connection, dialing
// on first use: the one-packet case of SendBurst.
func (t *TCPTransport) Send(p Packet) error { return t.SendBurst([]Packet{p}) }

// SendBurst sends ps in order. Every run of adjacent packets for one
// destination node leaves in a single vectored write (writev) — per frame its
// 9-byte header, then the flat payload or the payload segments, each as its
// own element of the scatter list — so value memory (store leases on the get
// path) is handed to the kernel without ever being copied in user space, and
// a burst of replies costs one system call, not one each. All payload memory
// is consumed before return (net.Buffers.WriteTo drains the list), honoring
// the Packet.Segs contract. A failed run does not stop the ones after it
// (they may go elsewhere); the first error is returned.
func (t *TCPTransport) SendBurst(ps []Packet) error {
	if t.closed.Load() {
		return ErrClosed
	}
	var first error
	for len(ps) > 0 {
		k := 1
		for k < len(ps) && ps[k].Dst.Node == ps[0].Dst.Node {
			k++
		}
		if err := t.writeFrames(ps[:k]); err != nil && first == nil {
			first = err
		}
		ps = ps[k:]
	}
	return first
}

// writeFrames is the transport's one write path: ps, all for one node, in one
// vectored write. The counters move before the write starts: whoever observes
// a packet's effect (a reply to it, say) then also observes the counts.
func (t *TCPTransport) writeFrames(ps []Packet) error {
	node := ps[0].Dst.Node
	conn, err := t.connTo(node)
	if err != nil {
		return err
	}
	sb := sendBufPool.Get().(*sendBuf)
	if cap(sb.hdrs) < len(ps)*tcpFrameHeader {
		// Sized up front: the scatter list points into it, so it must not move.
		sb.hdrs = make([]byte, 0, len(ps)*tcpFrameHeader)
	}
	hdrs, bufs := sb.hdrs[:0], sb.v[:0]
	vectored := 0
	for i := range ps {
		p := &ps[i]
		t.stats.account(*p)
		n := p.payloadLen()
		hdrs = append(hdrs, p.Dst.Node, p.Dst.Thread, t.self, p.Src.Thread, byte(p.Class))
		hdrs = binary.LittleEndian.AppendUint32(hdrs, uint32(n))
		bufs = append(bufs, hdrs[len(hdrs)-tcpFrameHeader:])
		if p.Segs != nil {
			bufs = append(bufs, p.Segs...)
			vectored += n
		} else if n > 0 {
			bufs = append(bufs, p.Data)
		}
	}
	if vectored > 0 {
		t.stats.VectoredBytes.Add(uint64(vectored))
	}
	t.stats.WriteCalls.Add(1)
	sb.w = bufs // WriteTo consumes sb.w in place; bufs keeps the full backing array
	conn.mu.Lock()
	_, werr := sb.w.WriteTo(conn.c)
	conn.mu.Unlock()
	clear(bufs)
	sb.hdrs, sb.v, sb.w = hdrs[:0], bufs[:0], nil
	sendBufPool.Put(sb)
	if werr != nil {
		// Frames already written may never be answered; report the peer down
		// so their pending calls fail (whichever of the read and write sides
		// notices first wins; the other finds the route already gone).
		t.notePeerDown(node, conn.c, werr)
		return fmt.Errorf("fabric: send to node %d: %w", node, werr)
	}
	return nil
}

// noteRoute records an inbound connection as the way back to node, unless
// a connection already routes there.
func (t *TCPTransport) noteRoute(node uint8, c net.Conn) {
	t.mu.Lock()
	if t.conns[node].Load() == nil {
		t.conns[node].Store(&tcpConn{c: c})
	}
	t.mu.Unlock()
}

func (t *TCPTransport) connTo(node uint8) (*tcpConn, error) {
	if c := t.conns[node].Load(); c != nil {
		return c, nil
	}
	t.mu.Lock()
	addr, ok := t.peers[node]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fabric: unknown peer node %d", node)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fabric: dial node %d (%s): %w", node, addr, err)
	}
	t.mu.Lock()
	if prev := t.conns[node].Load(); prev != nil {
		// Lost a dial race; keep the existing connection.
		t.mu.Unlock()
		c.Close()
		return prev, nil
	}
	if !t.adoptLocked(c) {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	tc := &tcpConn{c: c}
	t.conns[node].Store(tc)
	t.mu.Unlock()
	// Outbound connections are full duplex: the peer replies on the same
	// socket, so it needs a read loop just like accepted connections. The
	// peer id is known from the dial.
	go t.readLoop(c, int(node), make([]byte, tcpReadBuf))
	return tc, nil
}

// Close shuts the listener and all connections down.
func (t *TCPTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	t.ln.Close()
	t.mu.Lock()
	// Every connection — accepted or dialed, routed over or not — is in inbound.
	for _, c := range t.inbound {
		c.Close()
	}
	t.inbound = nil
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
