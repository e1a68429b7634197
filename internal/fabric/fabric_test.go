package fabric

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestAddrString(t *testing.T) {
	if (Addr{Node: 2, Thread: 5}).String() != "n2/t5" {
		t.Fatalf("addr rendering wrong")
	}
}

func TestChanTransportDelivery(t *testing.T) {
	stats := NewStats()
	tr := NewChanTransport(8, stats)
	defer tr.Close()

	got := make(chan Packet, 1)
	dst := Addr{Node: 1, Thread: 0}
	tr.Register(dst, func(p Packet) { got <- p })

	want := Packet{Src: Addr{Node: 0}, Dst: dst, Class: metrics.ClassCacheMiss, Data: []byte("hi")}
	if err := tr.Send(want); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if string(p.Data) != "hi" || p.Src != want.Src {
			t.Fatalf("got %+v", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("packet not delivered")
	}
	if stats.SendsTotal.Load() != 1 || stats.RecvsTotal.Load() != 1 {
		t.Fatalf("stats: sends=%d recvs=%d", stats.SendsTotal.Load(), stats.RecvsTotal.Load())
	}
}

// An in-process transport passes payloads by reference, so it must break a
// vectored payload's aliases at Send time (the sender releases segment
// memory the moment Send returns) — counted as FlattenedBytes, the copy the
// TCP path proves it never makes.
func TestChanTransportFlattensVectoredPayloads(t *testing.T) {
	stats := NewStats()
	tr := NewChanTransport(8, stats)
	defer tr.Close()

	got := make(chan Packet, 1)
	dst := Addr{Node: 1, Thread: 0}
	tr.Register(dst, func(p Packet) { got <- p })

	segs := [][]byte{[]byte("abc"), []byte("def")}
	if err := tr.Send(Packet{Src: Addr{Node: 0}, Dst: dst, Segs: segs}); err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		for i := range s {
			s[i] = 0xEE
		}
	}
	select {
	case p := <-got:
		if string(p.Data) != "abcdef" {
			t.Fatalf("flattened payload = %q, want %q (aliases not broken?)", p.Data, "abcdef")
		}
		if p.Segs != nil {
			t.Fatalf("delivered packet still carries Segs")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("vectored packet never delivered")
	}
	if f := stats.FlattenedBytes.Load(); f != 6 {
		t.Fatalf("FlattenedBytes = %d, want 6", f)
	}
}

func TestChanTransportUnknownDstDropped(t *testing.T) {
	tr := NewChanTransport(8, NewStats())
	defer tr.Close()
	// UD semantics: no error, silently dropped.
	if err := tr.Send(Packet{Dst: Addr{Node: 9}}); err != nil {
		t.Fatalf("drop must not error: %v", err)
	}
}

func TestChanTransportClose(t *testing.T) {
	tr := NewChanTransport(8, NewStats())
	tr.Register(Addr{Node: 1}, func(Packet) {})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(Packet{Dst: Addr{Node: 1}}); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestChanTransportDuplicateRegistrationPanics(t *testing.T) {
	tr := NewChanTransport(8, NewStats())
	defer tr.Close()
	tr.Register(Addr{Node: 1}, func(Packet) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Register(Addr{Node: 1}, func(Packet) {})
}

func TestChanTransportBackpressure(t *testing.T) {
	stats := NewStats()
	tr := NewChanTransport(1, stats)
	defer tr.Close()

	release := make(chan struct{})
	var delivered atomic.Int32
	dst := Addr{Node: 1}
	tr.Register(dst, func(Packet) {
		<-release
		delivered.Add(1)
	})

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Send(Packet{Dst: dst, Class: metrics.ClassUpdate})
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	for delivered.Load() < 4 {
		time.Sleep(time.Millisecond)
	}
	if stats.SendBlocked.Load() == 0 {
		t.Fatalf("expected at least one blocked send under backpressure")
	}
}

func TestStatsAccounting(t *testing.T) {
	stats := NewStats()
	tr := NewChanTransport(8, stats)
	defer tr.Close()
	tr.Register(Addr{Node: 1}, func(Packet) {})

	data := make([]byte, 100)
	tr.Send(Packet{Dst: Addr{Node: 1}, Class: metrics.ClassUpdate, Data: data})
	if got := stats.Traffic.Bytes(metrics.ClassUpdate); got != 100+WireOverhead {
		t.Fatalf("bytes = %d, want %d", got, 100+WireOverhead)
	}
	if stats.Inlined.Load() != 1 {
		t.Fatalf("100B payload must count as inlined")
	}
	big := make([]byte, InlineThreshold+1)
	tr.Send(Packet{Dst: Addr{Node: 1}, Class: metrics.ClassUpdate, Data: big})
	if stats.Inlined.Load() != 1 {
		t.Fatalf("big payload must not count as inlined")
	}
}

func TestCreditsAcquireGrant(t *testing.T) {
	c := NewCredits()
	peer := Addr{Node: 1}
	c.SetBudget(peer, 2)
	if c.Available(peer) != 2 {
		t.Fatalf("budget not set")
	}
	c.Acquire(peer)
	c.Acquire(peer)
	if c.TryAcquire(peer) {
		t.Fatalf("third acquire must fail")
	}
	c.Grant(peer, 1)
	if !c.TryAcquire(peer) {
		t.Fatalf("granted credit not usable")
	}
}

func TestCreditsGrantClampedToBudget(t *testing.T) {
	c := NewCredits()
	peer := Addr{Node: 1}
	c.SetBudget(peer, 3)
	c.Grant(peer, 100)
	if got := c.Available(peer); got != 3 {
		t.Fatalf("credits overflowed budget: %d", got)
	}
}

func TestCreditsBlockingAcquire(t *testing.T) {
	c := NewCredits()
	peer := Addr{Node: 1}
	c.SetBudget(peer, 1)
	c.Acquire(peer) // drain the budget

	done := make(chan struct{})
	go func() {
		c.Acquire(peer) // must block until the grant below
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("acquire returned without credits")
	case <-time.After(20 * time.Millisecond):
	}
	c.Grant(peer, 1)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("acquire never woke up")
	}
}

func TestCreditBatcherEmitsEveryN(t *testing.T) {
	var mu sync.Mutex
	emitted := map[Addr]int{}
	b := NewCreditBatcher(3, func(p Addr, n int) {
		mu.Lock()
		emitted[p] += n
		mu.Unlock()
	})
	peer := Addr{Node: 2}
	for i := 0; i < 7; i++ {
		b.Note(peer)
	}
	mu.Lock()
	if emitted[peer] != 6 {
		t.Fatalf("emitted %d, want 6 (two batches of 3)", emitted[peer])
	}
	mu.Unlock()
	b.Flush()
	mu.Lock()
	if emitted[peer] != 7 {
		t.Fatalf("flush must drain the remainder: %d", emitted[peer])
	}
	mu.Unlock()
}

func TestCreditBatcherZeroEvery(t *testing.T) {
	n := 0
	b := NewCreditBatcher(0, func(Addr, int) { n++ })
	b.Note(Addr{})
	if n != 1 {
		t.Fatalf("every<=0 must emit per message")
	}
}
