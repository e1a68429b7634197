package fabric

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// A system call moves a burst: these tests count reads through a scripted
// net.Conn and writes through Stats.WriteCalls (a wrapped conn would hide the
// vectored write — net.Buffers only takes the writev path on the real socket
// types), with no sleeps and no timing.

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
	tr.readLoop(c, -1, make([]byte, bufSize))
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

// A burst is one vectored write per run of packets for one node: flat and
// segmented payloads side by side, in order, with only the segmented bytes
// counted as vectored. The parent wrote once per packet.
func TestTCPSendBurstOneWrite(t *testing.T) {
	sa := NewStats()
	trs := make([]*TCPTransport, 3) // node 0 sends to nodes 1 and 2
	for i := range trs {
		stats := NewStats()
		if i == 0 {
			stats = sa
		}
		tr, err := NewTCPTransport(uint8(i), "127.0.0.1:0", stats)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		trs[i] = tr
	}
	a := trs[0]
	to1, to2 := Addr{Node: 1, Thread: 3}, Addr{Node: 2, Thread: 3}
	a.AddPeer(1, trs[1].ListenAddr())
	a.AddPeer(2, trs[2].ListenAddr())
	got := make(chan Packet, 16)
	trs[1].Register(to1, func(p Packet) { got <- keep(p) })
	other := make(chan Packet, 16)
	trs[2].Register(to2, func(p Packet) { other <- keep(p) })

	burst := []Packet{
		{Dst: to1, Data: []byte("flat-0")},
		{Dst: to1, Segs: [][]byte{[]byte("meta|"), []byte("leased"), []byte("|tail")}},
		{Dst: to1}, // empty payload
		{Dst: to1, Data: []byte("flat-3")},
	}
	want := []string{"flat-0", "meta|leased|tail", "", "flat-3"}
	if err := a.SendBurst(burst); err != nil {
		t.Fatal(err)
	}
	if w, s := sa.WriteCalls.Load(), sa.SendsTotal.Load(); w != 1 || s != 4 {
		t.Fatalf("a burst of 4 to one node: WriteCalls=%d SendsTotal=%d, want 1 and 4", w, s)
	}
	if v := sa.VectoredBytes.Load(); v != uint64(len(want[1])) {
		t.Fatalf("VectoredBytes = %d, want %d (the segmented packet alone)", v, len(want[1]))
	}
	recv := func(ch chan Packet, want string) {
		t.Helper()
		select {
		case p := <-ch:
			if string(p.Data) != want || p.Src.Node != 0 {
				t.Fatalf("got %q from node %d, want %q from node 0", p.Data, p.Src.Node, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%q never arrived", want)
		}
	}
	for _, w := range want {
		recv(got, w)
	}

	// Runs split where the destination node changes, and only there.
	before := sa.WriteCalls.Load()
	mixed := []Packet{{Dst: to1, Data: []byte("x")}, {Dst: to1, Data: []byte("y")}, {Dst: to2, Data: []byte("z")}, {Dst: to1, Data: []byte("w")}}
	if err := a.SendBurst(mixed); err != nil {
		t.Fatal(err)
	}
	if w := sa.WriteCalls.Load() - before; w != 3 {
		t.Fatalf("runs 1,1 | 2 | 1 took %d writes, want 3", w)
	}
	for _, w := range []string{"x", "y", "w"} {
		recv(got, w)
	}
	recv(other, "z")

	// An unreachable run does not stop the ones after it.
	if err := a.SendBurst([]Packet{{Dst: Addr{Node: 42}}, {Dst: to1, Data: []byte("still")}}); err == nil {
		t.Fatal("burst with an unknown peer reported no error")
	}
	recv(got, "still")
}

// On a transport without a burst path the helper is a loop of Sends: same
// packets, same order, vectored payloads flattened as Send does.
func TestSendBurstLoopsOnByReferenceTransports(t *testing.T) {
	stats := NewStats()
	tr := NewChanTransport(0, stats)
	defer tr.Close()
	dst := Addr{Node: 1}
	got := make(chan Packet, 4)
	tr.Register(dst, func(p Packet) { got <- p })
	err := SendBurst(tr, []Packet{{Dst: dst, Data: []byte("a")}, {Dst: dst, Segs: [][]byte{[]byte("b"), []byte("c")}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"a", "bc"} {
		if p := <-got; string(p.Data) != w {
			t.Fatalf("got %q, want %q", p.Data, w)
		}
	}
	if s := stats.SendsTotal.Load(); s != 2 {
		t.Fatalf("SendsTotal = %d, want 2", s)
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
	a.Register(Addr{Node: 0}, func(Packet) { inbound.Add(1) })

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
				_ = a.Send(p)
				_ = a.SendBurst([]Packet{p, p, p})
			}
		}
	}()
	// Node 1 lives five lives: each answers what it is sent (a's inbound
	// traffic), then closes — a's read loop reports it down and drops the
	// route; the next send dials the next life.
	for life := 0; life < 5; life++ {
		b, err := NewTCPTransport(1, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		b.AddPeer(0, a.ListenAddr())
		answered := make(chan struct{}, 1)
		n := 0
		b.Register(Addr{Node: 1}, func(p Packet) {
			_ = b.Send(Packet{Src: Addr{Node: 1}, Dst: Addr{Node: 0}, Data: []byte("r")})
			if n++; n == 50 {
				answered <- struct{}{}
			}
		})
		a.AddPeer(1, b.ListenAddr())
		<-answered
		b.Close()
	}
	close(stop)
	wg.Wait()
	if inbound.Load() == 0 {
		t.Fatal("no inbound traffic reached the transport under test")
	}
}

// loopbackBurst wires a loopback pair and returns the receiver's stats and a
// function that sends one burst of k frames a→b (a lone frame through Send)
// and waits until the last of them was handled. It has run once on return
// (dialed, pools grown).
func loopbackBurst(tb testing.TB, k int) (sb *Stats, send func()) {
	tb.Helper()
	sb = NewStats()
	a, err := NewTCPTransport(0, "127.0.0.1:0", nil)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := NewTCPTransport(1, "127.0.0.1:0", sb)
	if err != nil {
		a.Close()
		tb.Fatal(err)
	}
	a.AddPeer(1, b.ListenAddr())
	tb.Cleanup(func() { a.Close(); b.Close() })
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
	burst := make([]Packet, k)
	for i := range burst {
		burst[i] = Packet{Src: Addr{Node: 0, Thread: 3}, Dst: dst, Class: metrics.ClassCacheMiss, Data: payload}
	}
	send = func() {
		var err error
		if k == 1 {
			err = a.Send(burst[0])
		} else {
			err = a.SendBurst(burst)
		}
		if err != nil {
			tb.Fatal(err)
		}
		<-done
	}
	send()
	return sb, send
}

// The send and receive paths allocate nothing per frame in steady state.
func TestTCPFrameBurstZeroAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, k := range []int{1, 4} { // Send, and a burst
		_, send := loopbackBurst(t, k)
		if avg := testing.AllocsPerRun(200, send); avg >= 1 {
			t.Fatalf("%.2f allocs per burst of %d frames, want 0", avg, k)
		}
	}
}

// BenchmarkTCPFrameBurst is the layer's own microbenchmark: what a frame
// costs through a loopback pair when it travels alone and in bursts of 4 and
// 16 — ns/frame, frames per read at the receiver, allocations per burst.
func BenchmarkTCPFrameBurst(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("burst=%d", k), func(b *testing.B) {
			sb, send := loopbackBurst(b, k)
			frames0, reads0 := sb.RecvsTotal.Load(), sb.ReadCalls.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				send()
			}
			b.StopTimer()
			frames := float64(sb.RecvsTotal.Load() - frames0)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/frames, "ns/frame")
			b.ReportMetric(frames/float64(sb.ReadCalls.Load()-reads0), "frames/read")
		})
	}
}
