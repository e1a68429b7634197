package fabric

import (
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// newTCPPair starts two TCP transports on loopback and wires them together.
func newTCPPair(t *testing.T) (*TCPTransport, *TCPTransport) {
	t.Helper()
	a, err := NewTCPTransport(0, "127.0.0.1:0", NewStats())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPTransport(1, "127.0.0.1:0", NewStats())
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	a.AddPeer(1, b.ListenAddr())
	b.AddPeer(0, a.ListenAddr())
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// keep detaches a delivered packet from the connection's receive buffer: what
// a handler must do with anything it retains past its return.
func keep(p Packet) Packet {
	p.Data = append([]byte(nil), p.Data...)
	return p
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := newTCPPair(t)

	got := make(chan Packet, 1)
	b.Register(Addr{Node: 1, Thread: 3}, func(p Packet) { got <- keep(p) })

	p := Packet{
		Src:   Addr{Node: 0, Thread: 2},
		Dst:   Addr{Node: 1, Thread: 3},
		Class: metrics.ClassUpdate,
		Data:  []byte("over tcp"),
	}
	if err := a.Send(p); err != nil {
		t.Fatal(err)
	}
	select {
	case rp := <-got:
		if string(rp.Data) != "over tcp" {
			t.Fatalf("data = %q", rp.Data)
		}
		if rp.Src != p.Src || rp.Dst != p.Dst || rp.Class != p.Class {
			t.Fatalf("envelope mangled: %+v", rp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("packet never arrived")
	}
}

func TestTCPBidirectional(t *testing.T) {
	a, b := newTCPPair(t)
	fromA := make(chan struct{}, 1)
	fromB := make(chan struct{}, 1)
	a.Register(Addr{Node: 0}, func(Packet) { fromB <- struct{}{} })
	b.Register(Addr{Node: 1}, func(Packet) { fromA <- struct{}{} })

	if err := a.Send(Packet{Src: Addr{Node: 0}, Dst: Addr{Node: 1}, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(Packet{Src: Addr{Node: 1}, Dst: Addr{Node: 0}, Data: []byte("y")}); err != nil {
		t.Fatal(err)
	}
	for i, ch := range []chan struct{}{fromA, fromB} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("direction %d starved", i)
		}
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, _ := newTCPPair(t)
	if err := a.Send(Packet{Dst: Addr{Node: 42}}); err == nil {
		t.Fatal("send to unknown peer must error")
	}
}

func TestTCPUnknownThreadDropped(t *testing.T) {
	a, b := newTCPPair(t)
	got := make(chan Packet, 1)
	b.Register(Addr{Node: 1, Thread: 0}, func(p Packet) { got <- keep(p) })
	// Thread 9 is not registered: frame is read and silently dropped.
	if err := a.Send(Packet{Src: Addr{Node: 0}, Dst: Addr{Node: 1, Thread: 9}, Data: []byte("z")}); err != nil {
		t.Fatal(err)
	}
	// A follow-up to a registered thread still arrives (stream intact).
	if err := a.Send(Packet{Src: Addr{Node: 0}, Dst: Addr{Node: 1, Thread: 0}, Data: []byte("ok")}); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if string(p.Data) != "ok" {
			t.Fatalf("data = %q", p.Data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream broken after dropped frame")
	}
}

func TestTCPManyMessagesInOrderPerConnection(t *testing.T) {
	a, b := newTCPPair(t)
	var mu sync.Mutex
	var seq []byte
	done := make(chan struct{})
	b.Register(Addr{Node: 1}, func(p Packet) {
		mu.Lock()
		seq = append(seq, p.Data[0])
		n := len(seq)
		mu.Unlock()
		if n == 100 {
			close(done)
		}
	})
	for i := 0; i < 100; i++ {
		if err := a.Send(Packet{Src: Addr{Node: 0}, Dst: Addr{Node: 1}, Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d/100 arrived", len(seq))
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range seq {
		if int(v) != i {
			t.Fatalf("reordered at %d: %d", i, v)
		}
	}
}

// The peer-down handler must fire when an established peer's transport goes
// away — and must NOT fire on local Close.
func TestTCPPeerDownHandlerFiresOnPeerClose(t *testing.T) {
	a, b := newTCPPair(t)
	down := make(chan uint8, 4)
	a.SetPeerDownHandler(func(node uint8, cause error) {
		if cause == nil {
			t.Error("peer-down fired with nil cause")
		}
		down <- node
	})
	b.Register(Addr{Node: 1}, func(Packet) {})
	// Establish the route a→b.
	if err := a.Send(Packet{Src: Addr{Node: 0}, Dst: Addr{Node: 1}, Data: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	select {
	case node := <-down:
		if node != 1 {
			t.Fatalf("peer-down for node %d, want 1", node)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer-down handler never fired")
	}
}

func TestTCPPeerDownHandlerSilentOnLocalClose(t *testing.T) {
	a, b := newTCPPair(t)
	fired := make(chan uint8, 4)
	a.SetPeerDownHandler(func(node uint8, _ error) { fired <- node })
	b.Register(Addr{Node: 1}, func(Packet) {})
	if err := a.Send(Packet{Src: Addr{Node: 0}, Dst: Addr{Node: 1}, Data: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	select {
	case node := <-fired:
		t.Fatalf("peer-down fired for node %d on local close", node)
	case <-time.After(200 * time.Millisecond):
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	a, _ := newTCPPair(t)
	a.Close()
	if err := a.Send(Packet{Dst: Addr{Node: 1}}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// The copy contract the zero-copy value path rests on: a vectored payload
// (Packet.Segs) reaches the peer as the in-order concatenation of its
// segments, counted as VectoredBytes and never flattened into a buffer of
// the sender's own (FlattenedBytes stays 0), and every payload byte — flat
// Data or segments — is copied by the time Send returns. The sender scribbles
// over both the moment Send returns, before the connection's writer has run,
// and the peer still receives the original bytes: this is what lets a
// session lane release its store leases right after Send.
func TestTCPVectoredSendZeroCopy(t *testing.T) {
	sa := NewStats()
	a, err := NewTCPTransport(0, "127.0.0.1:0", sa)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPTransport(1, "127.0.0.1:0", NewStats())
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	a.AddPeer(1, b.ListenAddr())
	t.Cleanup(func() { a.Close(); b.Close() })

	got := make(chan Packet, 2)
	b.Register(Addr{Node: 1, Thread: 3}, func(p Packet) {
		got <- keep(p)
	})
	// Dial first, so the connection's writer is settled and idle.
	if err := a.Send(Packet{Dst: Addr{Node: 1, Thread: 3}}); err != nil {
		t.Fatal(err)
	}
	<-got

	flat := []byte("flat-payload")
	segs := [][]byte{[]byte("meta|"), []byte("leased-value-bytes"), []byte("|tail")}
	want := []string{"flat-payload", "meta|leased-value-bytes|tail"}
	tc := a.conns[1].Load()
	tc.wmu.Lock() // the writer cannot run until both payloads are scribbled over
	for _, p := range []Packet{{Data: flat}, {Segs: segs}} {
		p.Src, p.Dst = Addr{Node: 0, Thread: 2}, Addr{Node: 1, Thread: 3}
		if err := a.Send(p); err != nil {
			tc.wmu.Unlock()
			t.Fatal(err)
		}
	}
	for _, s := range append(segs, flat) {
		for i := range s {
			s[i] = 0xEE
		}
	}
	tc.wmu.Unlock()
	for _, w := range want {
		select {
		case p := <-got:
			if string(p.Data) != w {
				t.Fatalf("payload = %q, want %q", p.Data, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%q never arrived", w)
		}
	}
	if v := sa.VectoredBytes.Load(); v != uint64(len(want[1])) {
		t.Fatalf("VectoredBytes = %d, want %d", v, len(want[1]))
	}
	if f := sa.FlattenedBytes.Load(); f != 0 {
		t.Fatalf("FlattenedBytes = %d, want 0 — the TCP path copies segments only into its staging buffer", f)
	}
}

func TestTCPLargePayload(t *testing.T) {
	a, b := newTCPPair(t)
	got := make(chan Packet, 1)
	b.Register(Addr{Node: 1}, func(p Packet) { got <- keep(p) })
	big := make([]byte, 1<<16)
	for i := range big {
		big[i] = byte(i)
	}
	if err := a.Send(Packet{Src: Addr{Node: 0}, Dst: Addr{Node: 1}, Data: big}); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if len(p.Data) != len(big) || p.Data[12345] != big[12345] {
			t.Fatalf("large payload corrupted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("large payload never arrived")
	}
}

// The frame length is untrusted: a header claiming 4 GiB must be refused
// before anything is allocated for it, the connection closed, and the refusal
// counted.
func TestTCPOversizeFrameRefused(t *testing.T) {
	stats := NewStats()
	tr, err := NewTCPTransport(0, "127.0.0.1:0", stats)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c, err := net.Dial("tcp", tr.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hdr := []byte{0, 3, 9, 3, byte(metrics.ClassCacheMiss), 0xff, 0xff, 0xff, 0xff}
	if _, err := c.Write(hdr); err != nil {
		t.Fatal(err)
	}
	// The transport hangs up instead of waiting for 4 GiB of payload.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after oversize header = %v, want EOF (connection closed)", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxFrameBytes {
		t.Fatalf("allocated %d bytes while refusing the frame", grew)
	}
	if got := stats.OversizeFrames.Load(); got != 1 {
		t.Fatalf("OversizeFrames = %d, want 1", got)
	}

	// A frame at the ceiling's legal side still flows.
	a, b := newTCPPair(t)
	got := make(chan int, 1)
	b.Register(Addr{Node: 1, Thread: 3}, func(p Packet) { got <- len(p.Data) })
	if err := a.Send(Packet{Dst: Addr{Node: 1, Thread: 3}, Data: make([]byte, 1<<20)}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-got:
		if n != 1<<20 {
			t.Fatalf("1 MiB frame arrived as %d bytes", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("1 MiB frame never arrived")
	}
}
