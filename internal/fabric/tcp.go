package fabric

import (
	"encoding/binary"
	"fmt"
	"maps"
	"net"
	"runtime"
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
// (readLoop), and one write carries every frame staged on it since the last
// — whichever sender staged it: Send only stages, and each connection's one
// writer (flusher) writes.
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

	mu    sync.Mutex
	peers map[uint8]string
	open  []*tcpConn // every connection, accepted or dialed, for Close
	wg    sync.WaitGroup

	// onPeerDown, when set, is invoked once per broken connection with the
	// node id the connection served (see SetPeerDownHandler).
	onPeerDown func(node uint8, cause error)
}

// tcpConn is one connection and its one writer. Senders never write: Send
// appends the frame to buf under mu and wakes the connection's flusher, which
// writes everything staged by then in one system call. Every plane's packets
// to a peer — rpc requests, consistency messages, replies sent from a read
// loop, session reply bursts, client calls — meet in buf, so the frames of
// all of them that are ready together share the write.
type tcpConn struct {
	c    net.Conn
	node uint8 // the peer it routes to; set before the route is published

	done chan struct{} // closed when the read loop ends: the flusher exits
	wake chan struct{} // holds a token while the flusher is awake and unserved

	mu    sync.Mutex
	buf   []byte // staged frames, in staging order
	awake bool   // the flusher was woken and has not yet found buf empty
	err   error  // why the connection ended; set once, staging refuses from then

	wmu   sync.Mutex // one socket write at a time, and the swap that feeds it
	spare []byte     // the other buffer: written while buf fills
}

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{c: c, done: make(chan struct{}), wake: make(chan struct{}, 1)}
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

// TCPStageBytes bounds a connection's staging buffer. A sender that finds
// this much staged writes it out itself before staging its own frame —
// blocking as a full socket blocked a direct write — so a connection to a
// peer that stops reading holds at most the bound plus one frame staged, plus
// the write in flight.
const TCPStageBytes = 256 << 10

// SendCopiesData reports that Send copies every byte of the packet — flat
// payload or segments — into the connection's staging buffer before
// returning: callers may reuse p.Data and p.Segs memory — e.g. release store
// leases — as soon as Send returns.
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
func (t *TCPTransport) notePeerDown(node uint8, tc *tcpConn, cause error) {
	if t.closed.Load() {
		return
	}
	t.mu.Lock()
	active := t.conns[node].Load() == tc
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
		tc := t.adoptLocked(c)
		t.mu.Unlock()
		if tc == nil {
			return
		}
		t.serve(tc, -1)
	}
}

// adoptLocked wraps c for teardown by Close and accounts for the read loop and
// the flusher its caller is about to start (serve); it refuses (closes c and
// returns nil) once Close has begun, so no connection or goroutine slips past
// Close's sweep. Callers hold t.mu.
func (t *TCPTransport) adoptLocked(c net.Conn) *tcpConn {
	if t.closed.Load() {
		c.Close()
		return nil
	}
	tc := newTCPConn(c)
	t.open = append(t.open, tc)
	t.wg.Add(2)
	return tc
}

// serve starts an adopted connection's read loop and its writer. peer is the
// node it serves when known (dialed), -1 when the first frame will say.
func (t *TCPTransport) serve(tc *tcpConn, peer int) {
	go t.readLoop(tc, peer, make([]byte, tcpReadBuf))
	go t.flusher(tc)
}

// readLoop drains one connection through buf, its receive buffer (tcpReadBuf
// bytes; at least a frame header). peer is the node id the connection serves
// when known at start (outbound dials); inbound connections learn it from
// the first frame. A broken connection whose peer is known reports it down.
// The read loop's end is the connection's: it shuts the connection, which
// stops its flusher.
//
// One read fills the buffer with whatever the socket has queued — usually
// several frames — and every complete frame in it is parsed in place and
// handed to its handler before the next read. A Handler runs synchronously
// and must copy anything it keeps past its return: its payload is a window of
// the buffer. Only a frame too large for the buffer is read into a slice of
// its own (after the MaxFrameBytes check).
func (t *TCPTransport) readLoop(tc *tcpConn, peer int, buf []byte) {
	defer t.wg.Done()
	defer tc.shut()
	c := tc.c
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
				t.noteRoute(hdr[2], tc)
			}
			n := binary.LittleEndian.Uint32(hdr[5:9])
			if n > MaxFrameBytes {
				t.stats.OversizeFrames.Add(1)
				t.notePeerDown(uint8(peer), tc, fmt.Errorf("fabric: frame of %d bytes exceeds MaxFrameBytes", n))
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
				t.notePeerDown(uint8(peer), tc, err)
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

// Send stages p's frame on the destination node's connection, dialing on
// first use, and returns: the connection's flusher writes it, together with
// whatever else is staged there by then. Every byte of the payload — Data,
// or each of Segs in order — is copied into the staging buffer before Send
// returns, honoring the Packet.Segs contract. The counters move before the
// frame is staged: whoever observes a packet's effect (a reply to it, say)
// then also observes the counts. A nil error means staged, not written: a
// write that fails later reports the peer down (SetPeerDownHandler), which
// is how calls waiting on the frame learn of it.
func (t *TCPTransport) Send(p Packet) error {
	if t.closed.Load() {
		return ErrClosed
	}
	tc, err := t.connTo(p.Dst.Node)
	if err != nil {
		return err
	}
	t.stats.account(p)
	if p.Segs != nil {
		t.stats.VectoredBytes.Add(uint64(p.payloadLen()))
	}
	return t.stage(tc, &p)
}

// stage appends p's frame — the 9-byte header, then the payload — to tc's
// staging buffer and wakes the flusher if it sleeps. A sender that finds
// TCPStageBytes or more staged writes them itself first (backpressure).
func (t *TCPTransport) stage(tc *tcpConn, p *Packet) error {
	tc.mu.Lock()
	for tc.err == nil && len(tc.buf) >= TCPStageBytes {
		tc.mu.Unlock()
		t.write(tc)
		tc.mu.Lock()
	}
	if err := tc.err; err != nil {
		tc.mu.Unlock()
		return fmt.Errorf("fabric: send to node %d: %w", p.Dst.Node, err)
	}
	b := append(tc.buf, p.Dst.Node, p.Dst.Thread, t.self, p.Src.Thread, byte(p.Class))
	b = binary.LittleEndian.AppendUint32(b, uint32(p.payloadLen()))
	if p.Segs == nil {
		b = append(b, p.Data...)
	}
	for _, s := range p.Segs {
		b = append(b, s...)
	}
	tc.buf = b
	wake := !tc.awake
	tc.awake = true
	tc.mu.Unlock()
	if wake {
		tc.wake <- struct{}{} // never blocks: the last token was taken before awake cleared
	}
	return nil
}

// flusher is tc's one writer. Woken by the first frame staged on an idle
// connection, it yields once before writing: on one processor that lets every
// goroutine runnable right now — a lane draining its queue, a read loop
// answering the frames of its last read, a session lane finishing a burst —
// stage its frames first, so they all leave in the same write. One shot, not
// a wait: there is no event to park on. It then writes until it finds nothing
// staged, and sleeps again. It exits when the connection ends.
func (t *TCPTransport) flusher(tc *tcpConn) {
	defer t.wg.Done()
	for {
		select {
		case <-tc.wake:
		case <-tc.done:
			return
		}
		runtime.Gosched()
		for more := true; more; {
			t.write(tc)
			tc.mu.Lock()
			more = len(tc.buf) > 0 && tc.err == nil
			tc.awake = more
			tc.mu.Unlock()
		}
	}
}

// write moves everything staged on tc to the socket in one write: it swaps
// the staging buffer with the spare under the write mutex, so frames staged
// meanwhile fill the other one. A failed write ends the connection — what is
// staged is dropped and staging refuses from then on — and reports the peer
// down, which fails the calls waiting on frames already sent.
func (t *TCPTransport) write(tc *tcpConn) {
	tc.wmu.Lock()
	tc.mu.Lock()
	b := tc.buf
	if len(b) == 0 || tc.err != nil {
		tc.mu.Unlock()
		tc.wmu.Unlock()
		return
	}
	tc.buf = tc.spare[:0]
	tc.mu.Unlock()
	t.stats.WriteCalls.Add(1)
	_, err := tc.c.Write(b)
	if cap(b) > 2*TCPStageBytes {
		b = nil // an outsized frame's buffer is not kept for the next write
	}
	tc.spare = b
	if err != nil {
		tc.fail(err)
	}
	tc.wmu.Unlock()
	if err != nil {
		t.notePeerDown(tc.node, tc, err)
	}
}

// fail ends tc with err unless it already ended: staged frames are dropped
// and later stages refuse.
func (tc *tcpConn) fail(err error) {
	tc.mu.Lock()
	if tc.err == nil {
		tc.err = err
	}
	tc.buf = nil
	tc.mu.Unlock()
}

// shut closes tc when its read loop ends (a broken connection or Close):
// staging refuses, bytes still staged are dropped — like a frame inside an
// interrupted write — and the flusher exits.
func (tc *tcpConn) shut() {
	tc.c.Close()
	tc.fail(net.ErrClosed)
	close(tc.done)
}

// noteRoute records an inbound connection as the way back to node, unless
// a connection already routes there.
func (t *TCPTransport) noteRoute(node uint8, tc *tcpConn) {
	t.mu.Lock()
	if t.conns[node].Load() == nil {
		tc.node = node
		t.conns[node].Store(tc)
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
	tc := t.adoptLocked(c)
	if tc == nil {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	tc.node = node
	t.conns[node].Store(tc)
	t.mu.Unlock()
	// Outbound connections are full duplex: the peer replies on the same
	// socket, so it needs a read loop just like accepted connections. The
	// peer id is known from the dial.
	t.serve(tc, int(node))
	return tc, nil
}

// Close shuts the listener and all connections down, which ends every read
// loop and with it every flusher, and waits for them. Frames still staged are
// dropped; a Send blocked writing returns an error.
func (t *TCPTransport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	t.ln.Close()
	t.mu.Lock()
	// Every connection — accepted or dialed, routed over or not — is in open.
	for _, tc := range t.open {
		tc.c.Close()
	}
	t.open = nil
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
