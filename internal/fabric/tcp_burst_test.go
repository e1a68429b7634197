package fabric

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// A system call moves a burst: these tests count reads through a scripted
// net.Conn and writes through Stats.WriteCalls, with no sleeps and no timing.

// scriptConn is a net.Conn whose Read serves scripted chunks — one chunk per
// call, cut to the caller's buffer with the rest kept for the next call — then
// io.EOF, and counts the calls. Writes vanish.
type scriptConn struct {
	net.Conn // nil: only Read, Write and Close are ever called on it
	chunks   [][]byte
	reads    int
	closed   bool
}

func (c *scriptConn) Read(p []byte) (int, error) {
	c.reads++
	if len(p) == 0 {
		panic("read into an empty buffer")
	}
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *scriptConn) Close() error                { c.closed = true; return nil }

// frame encodes one wire frame addressed to dst.
func frame(dst, src Addr, class metrics.MsgClass, payload []byte) []byte {
	f := []byte{dst.Node, dst.Thread, src.Node, src.Thread, byte(class)}
	f = binary.LittleEndian.AppendUint32(f, uint32(len(payload)))
	return append(f, payload...)
}

// feed runs readLoop over a scripted connection with a bufSize-byte receive
// buffer until the script ends, and returns every packet the handler for dst
// saw (payloads copied out) plus the connection and the transport's stats.
func feed(dst Addr, bufSize int, chunks ...[]byte) ([]Packet, *scriptConn, *Stats) {
	stats := NewStats()
	tr := newTCPTransport(dst.Node, nil, stats)
	var got []Packet
	tr.Register(dst, func(p Packet) { got = append(got, keep(p)) })
	c := &scriptConn{chunks: chunks}
	tr.wg.Add(1)
	tr.readLoop(newTCPConn(c), -1, make([]byte, bufSize))
	return got, c, stats
}

// payloadOf is a recognizable payload: n bytes that depend on the frame index.
func payloadOf(i, n int) []byte {
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(i*31 + j)
	}
	return p
}

// k frames queued on the socket reach their handlers in order and intact with
// one read (plus the one that finds the stream ended). The parent's two
// ReadFulls per frame took 2k+1.
func TestTCPReadBurstOneRead(t *testing.T) {
	dst, src := Addr{Node: 1, Thread: 3}, Addr{Node: 9, Thread: 2}
	const k = 16
	var stream []byte
	for i := 0; i < k; i++ {
		stream = append(stream, frame(dst, src, metrics.ClassUpdate, payloadOf(i, 10+i))...)
	}
	got, c, stats := feed(dst, tcpReadBuf, stream)
	if len(got) != k {
		t.Fatalf("delivered %d frames, want %d", len(got), k)
	}
	for i, p := range got {
		if p.Src != src || p.Dst != dst || p.Class != metrics.ClassUpdate || !bytes.Equal(p.Data, payloadOf(i, 10+i)) {
			t.Fatalf("frame %d mangled or out of order: %+v", i, p)
		}
	}
	if c.reads > 2 {
		t.Fatalf("%d frames took %d reads, want <= 2", k, c.reads)
	}
	if r, f := stats.ReadCalls.Load(), stats.RecvsTotal.Load(); r != uint64(c.reads) || f != k {
		t.Fatalf("Stats: ReadCalls=%d RecvsTotal=%d, want %d and %d", r, f, c.reads, k)
	}
	if !c.closed {
		t.Fatal("connection not closed at end of stream")
	}
}

// Frames and reads need not line up: a frame straddling the end of the
// buffer, a frame larger than the whole buffer, a header split across two
// reads, a stream fed a byte at a time — the same frames come out.
func TestTCPReadFramesAcrossReads(t *testing.T) {
	dst, src := Addr{Node: 1, Thread: 3}, Addr{Node: 9}
	sizes := []int{0, 1, 40, 55, 300, 7, 64, 1000, 0, 23}
	var stream []byte
	for i, n := range sizes {
		stream = append(stream, frame(dst, src, metrics.ClassCacheMiss, payloadOf(i, n))...)
	}
	check := func(t *testing.T, got []Packet) {
		t.Helper()
		if len(got) != len(sizes) {
			t.Fatalf("delivered %d frames, want %d", len(got), len(sizes))
		}
		for i, p := range got {
			if !bytes.Equal(p.Data, payloadOf(i, sizes[i])) {
				t.Fatalf("frame %d: %d bytes delivered, not the %d framed", i, len(p.Data), sizes[i])
			}
		}
	}
	t.Run("straddle and outgrow a 64-byte buffer", func(t *testing.T) {
		got, _, _ := feed(dst, 64, stream)
		check(t, got)
	})
	t.Run("header split across two reads", func(t *testing.T) {
		got, c, _ := feed(dst, tcpReadBuf, stream[:4], stream[4:])
		check(t, got)
		if c.reads != 3 {
			t.Fatalf("%d reads, want 3 (two chunks and the end)", c.reads)
		}
	})
	t.Run("a byte at a time", func(t *testing.T) {
		chunks := make([][]byte, len(stream))
		for i := range stream {
			chunks[i] = stream[i : i+1]
		}
		got, _, _ := feed(dst, 32, chunks...)
		check(t, got)
	})
	t.Run("larger than the real buffer", func(t *testing.T) {
		big := payloadOf(1, 3*tcpReadBuf+17)
		s := append(frame(dst, src, 0, []byte("before")), frame(dst, src, 0, big)...)
		s = append(s, frame(dst, src, 0, []byte("after"))...)
		got, _, _ := feed(dst, tcpReadBuf, s)
		if len(got) != 3 || string(got[0].Data) != "before" || !bytes.Equal(got[1].Data, big) || string(got[2].Data) != "after" {
			t.Fatalf("delivered %d frames around a %d-byte one", len(got), len(big))
		}
	})
	t.Run("truncated frame is dropped", func(t *testing.T) {
		got, _, _ := feed(dst, 64, stream[:len(stream)-1])
		check(t, append(got, Packet{Data: payloadOf(len(sizes)-1, sizes[len(sizes)-1])}))
	})
}

// Frames staged on one connection while its writer is held leave in one
// write when it is released, whoever staged them: three goroutines standing in
// for a node's request lane, consistency lane and session lane send to three
// threads of one peer, flat and segmented payloads side by side. Each sender's
// frames arrive in its order, and only the segmented bytes count as vectored.
// Before the connection had one writer, each Send was its own write.
func TestTCPStagedFramesOneWrite(t *testing.T) {
	sa := NewStats()
	a, err := NewTCPTransport(0, "127.0.0.1:0", sa)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPTransport(1, "127.0.0.1:0", nil)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	a.AddPeer(1, b.ListenAddr())
	threads := []uint8{1, 2, 3} // request, consistency, session
	got := make(chan Packet, 64)
	for _, th := range threads {
		b.Register(Addr{Node: 1, Thread: th}, func(p Packet) { got <- keep(p) })
	}
	recv := func() Packet {
		t.Helper()
		select {
		case p := <-got:
			return p
		case <-time.After(5 * time.Second):
			t.Fatal("a staged frame never arrived")
			return Packet{}
		}
	}
	// Dial, and let the first write settle.
	if err := a.Send(Packet{Dst: Addr{Node: 1, Thread: threads[0]}, Data: []byte("dial")}); err != nil {
		t.Fatal(err)
	}
	recv()
	tc := a.conns[1].Load()
	writes, vectored := sa.WriteCalls.Load(), sa.VectoredBytes.Load()

	const perSender = 4
	payload := func(th uint8, i int) string { return fmt.Sprintf("t%d-frame-%d", th, i) }
	tc.wmu.Lock()
	var wg sync.WaitGroup
	for _, th := range threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				p := Packet{Src: Addr{Node: 0, Thread: th}, Dst: Addr{Node: 1, Thread: th}, Data: []byte(payload(th, i))}
				if i%2 == 1 {
					w := payload(th, i)
					p.Data, p.Segs = nil, [][]byte{[]byte(w[:3]), []byte(w[3:])}
				}
				if err := a.Send(p); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait() // every Send returned with the writer held: all are staged
	tc.wmu.Unlock()

	next := map[uint8]int{}
	for range len(threads) * perSender {
		p := recv()
		th := p.Dst.Thread
		if want := payload(th, next[th]); string(p.Data) != want || p.Src != (Addr{Node: 0, Thread: th}) {
			t.Fatalf("thread %d got %q from %v, want %q from n0/t%d", th, p.Data, p.Src, want, th)
		}
		next[th]++
	}
	if w := sa.WriteCalls.Load() - writes; w != 1 {
		t.Fatalf("%d frames staged by %d senders left in %d writes, want 1", len(threads)*perSender, len(threads), w)
	}
	var wantVectored int
	for _, th := range threads {
		for i := 1; i < perSender; i += 2 {
			wantVectored += len(payload(th, i))
		}
	}
	if v := sa.VectoredBytes.Load() - vectored; v != uint64(wantVectored) {
		t.Fatalf("VectoredBytes grew by %d, want %d (the segmented payloads alone)", v, wantVectored)
	}
}

// A peer that never reads holds a connection's writer in its write forever.
// Senders keep staging until the bound, then block in Send — the staged bytes
// stay within the bound plus one frame — and Close fails the blocked Send and
// returns.
func TestTCPStagingBoundedForPeerThatNeverReads(t *testing.T) {
	stats := NewStats()
	a, err := NewTCPTransport(0, "127.0.0.1:0", stats)
	if err != nil {
		t.Fatal(err)
	}
	near, far := net.Pipe() // far is never read: a write to near blocks for good
	defer far.Close()
	a.mu.Lock()
	tc := a.adoptLocked(near)
	tc.node = 1
	a.conns[1].Store(tc)
	a.mu.Unlock()
	a.serve(tc, 1)

	frame := make([]byte, 1000)
	p := Packet{Src: Addr{Node: 0, Thread: 1}, Dst: Addr{Node: 1, Thread: 1}, Data: frame}
	if err := a.Send(p); err != nil {
		t.Fatal(err)
	}
	for stats.WriteCalls.Load() == 0 {
		runtime.Gosched() // until the flusher took the frame into its write
	}
	// From here the flusher holds the write mutex in a write that never ends:
	// nothing can empty the staging buffer.
	// The sender reports what is staged after each Send that returned; once
	// that reaches the bound, its next Send waits for the write mutex.
	sent := make(chan int)
	failed := make(chan error, 1)
	go func() {
		for {
			if err := a.Send(p); err != nil {
				failed <- err
				return
			}
			tc.mu.Lock()
			staged := len(tc.buf)
			tc.mu.Unlock()
			sent <- staged
		}
	}()
	staged := 0
	for staged < TCPStageBytes {
		staged = <-sent
	}
	if limit := TCPStageBytes + tcpFrameHeader + len(frame); staged > limit {
		t.Fatalf("%d bytes staged, above the bound plus one frame (%d)", staged, limit)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-failed: // the blocked Send returned its error
	case n := <-sent:
		t.Fatalf("a Send returned with %d bytes staged: the bound did not block it", n)
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if len(tc.buf) != 0 {
		t.Fatalf("%d bytes still staged on a closed connection", len(tc.buf))
	}
}

// No frame and no send takes the transport's lock, so the snapshots they read
// must stay coherent while everything that writes them runs: handlers being
// registered, a sender dialing and redialing, inbound traffic, and a peer that
// dies and comes back on another port. Run under -race.
func TestTCPConcurrentRegisterSendReceiveDrop(t *testing.T) {
	a, err := NewTCPTransport(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetPeerDownHandler(func(uint8, error) {})
	var inbound atomic.Uint64
	var heard atomic.Int32 // the last life a reply came from
	arrived := make(chan struct{}, 1)
	a.Register(Addr{Node: 0}, func(p Packet) {
		inbound.Add(1)
		heard.Store(int32(p.Data[0]))
		select {
		case arrived <- struct{}{}:
		default:
		}
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // registrations racing the handler lookups
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				a.Register(Addr{Node: 0, Thread: uint8(1 + i%8)}, func(Packet) {})
			}
		}
	}()
	go func() { // sends racing the route changes; failures are the dead peer
		defer wg.Done()
		p := Packet{Src: Addr{Node: 0}, Dst: Addr{Node: 1}, Data: []byte("q")}
		for {
			select {
			case <-stop:
				return
			default:
				for range 4 {
					_ = a.Send(p)
				}
			}
		}
	}()
	// Node 1 lives five lives: each answers what it is sent (a's inbound
	// traffic) until a heard from it, then closes — a's read loop reports it
	// down and drops the route; the next send dials the next life. A life may
	// not close sooner: its answers are staged, and Close drops what its
	// connection's writer has not written yet.
	for life := 1; life <= 5; life++ {
		b, err := NewTCPTransport(1, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		b.AddPeer(0, a.ListenAddr())
		answered := make(chan struct{}, 1)
		n := 0
		b.Register(Addr{Node: 1}, func(p Packet) {
			_ = b.Send(Packet{Src: Addr{Node: 1}, Dst: Addr{Node: 0}, Data: []byte{byte(life)}})
			if n++; n == 50 {
				answered <- struct{}{}
			}
		})
		a.AddPeer(1, b.ListenAddr())
		<-answered
		for heard.Load() != int32(life) {
			<-arrived
		}
		b.Close()
	}
	close(stop)
	wg.Wait()
	if inbound.Load() == 0 {
		t.Fatal("no inbound traffic reached the transport under test")
	}
}

// loopbackSenders wires a loopback pair and returns both ends' stats and a
// function that has each of k sender goroutines send one frame a→b at once and
// waits until all k were handled. It has run once on return (dialed, buffers
// grown).
func loopbackSenders(tb testing.TB, k int) (sa, sb *Stats, round func()) {
	tb.Helper()
	sa, sb = NewStats(), NewStats()
	a, err := NewTCPTransport(0, "127.0.0.1:0", sa)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := NewTCPTransport(1, "127.0.0.1:0", sb)
	if err != nil {
		a.Close()
		tb.Fatal(err)
	}
	a.AddPeer(1, b.ListenAddr())
	dst := Addr{Node: 1, Thread: 3}
	done := make(chan struct{}, 1)
	seen := 0
	b.Register(dst, func(Packet) {
		if seen++; seen == k {
			seen = 0
			done <- struct{}{}
		}
	})
	payload := make([]byte, 48)
	goes := make([]chan struct{}, k)
	var wg sync.WaitGroup
	for i := range goes {
		goes[i] = make(chan struct{})
		wg.Add(1)
		go func(p Packet) {
			defer wg.Done()
			for range goes[i] {
				if err := a.Send(p); err != nil {
					panic(err)
				}
			}
		}(Packet{Src: Addr{Node: 0, Thread: uint8(i)}, Dst: dst, Class: metrics.ClassCacheMiss, Data: payload})
	}
	tb.Cleanup(func() {
		for _, g := range goes {
			close(g)
		}
		wg.Wait()
		a.Close()
		b.Close()
	})
	round = func() {
		for _, g := range goes {
			g <- struct{}{}
		}
		<-done
	}
	round()
	return sa, sb, round
}

// The send and receive paths allocate nothing per frame in steady state.
func TestTCPFrameBurstZeroAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, k := range []int{1, 4} { // one sender, and several at once
		_, _, round := loopbackSenders(t, k)
		if avg := testing.AllocsPerRun(200, round); avg >= 1 {
			t.Fatalf("%.2f allocs per round of %d frames, want 0", avg, k)
		}
	}
}

// BenchmarkTCPFrameBurst is the layer's own microbenchmark: what a frame
// costs through a loopback pair when 1, 4 or 16 goroutines send one frame each
// to the same peer at once — ns/frame, frames per write at the sender (the
// connection's one writer at work), frames per read at the receiver,
// allocations per round.
func BenchmarkTCPFrameBurst(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("senders=%d", k), func(b *testing.B) {
			sa, sb, round := loopbackSenders(b, k)
			sent0, writes0 := sa.SendsTotal.Load(), sa.WriteCalls.Load()
			frames0, reads0 := sb.RecvsTotal.Load(), sb.ReadCalls.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.StopTimer()
			frames := float64(sb.RecvsTotal.Load() - frames0)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/frames, "ns/frame")
			b.ReportMetric(float64(sa.SendsTotal.Load()-sent0)/float64(sa.WriteCalls.Load()-writes0), "frames/write")
			b.ReportMetric(frames/float64(sb.ReadCalls.Load()-reads0), "frames/read")
		})
	}
}
