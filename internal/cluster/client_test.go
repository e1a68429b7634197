package cluster

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// Client failure paths: every way a server can vanish must surface a typed
// error the caller can branch on — never a hang, never an untyped string.

// A dial failure (nothing listening at the peer address) must surface
// ErrNodeUnreachable on the first call, not a timeout.
func TestClientDialFailureIsTyped(t *testing.T) {
	// Grab an address that is certainly not listening: bind, note, close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cl, err := DialTCP(200, []string{addr}, WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	start := time.Now()
	_, gerr := cl.Get(0, 1)
	if !errors.Is(gerr, ErrNodeUnreachable) {
		t.Fatalf("dial failure: err = %v, want ErrNodeUnreachable", gerr)
	}
	if errors.Is(gerr, ErrSessionTimeout) || time.Since(start) > 3*time.Second {
		t.Fatalf("dial failure burned the timeout instead of failing fast (%v after %v)", gerr, time.Since(start))
	}
}

// A server that closes the connection mid-request must fail the pending call
// through the peer-down path with ErrNodeUnreachable — the client must not
// sit out its full timeout waiting for a response that can never arrive.
func TestClientServerClosesConnectionMidRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan struct{})
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		// Swallow the request frame, then slam the connection shut without
		// answering.
		buf := make([]byte, 64)
		_, _ = c.Read(buf)
		c.Close()
		close(accepted)
	}()

	cl, err := DialTCP(201, []string{ln.Addr().String()}, WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	start := time.Now()
	_, gerr := cl.Get(0, 7)
	if !errors.Is(gerr, ErrNodeUnreachable) {
		t.Fatalf("mid-request close: err = %v, want ErrNodeUnreachable", gerr)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("mid-request close took %v (timeout-bound, not event-bound)", time.Since(start))
	}
	<-accepted
}

// A server that accepts and reads but never answers must trip the
// per-request timeout with ErrSessionTimeout.
func TestClientTimeoutOnSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		go func() { _, _ = io.Copy(io.Discard, c) }() // keep reading, never answer
		<-stop
	}()

	cl, err := DialTCP(202, []string{ln.Addr().String()}, WithTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	if _, gerr := cl.Get(0, 7); !errors.Is(gerr, ErrSessionTimeout) {
		t.Fatalf("silent server: err = %v, want ErrSessionTimeout", gerr)
	}
	// The client stays usable after a timed-out call (the pending entry was
	// dropped, not leaked).
	if _, gerr := cl.Get(0, 8); !errors.Is(gerr, ErrSessionTimeout) {
		t.Fatalf("second call after timeout: err = %v, want ErrSessionTimeout", gerr)
	}
}

// A server death after connect fails calls to that node and keeps the
// client usable against the survivors ("reconnect" at the orchestration
// level: the caller reroutes).
func TestClientReroutesAfterServerDeath(t *testing.T) {
	cfg := Config{Nodes: 2, System: Base, NumKeys: 256}
	members, addrs := newTCPMembers(t, cfg)
	cl, err := DialTCP(203, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if err := cl.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	if err := members[1].Close(); err != nil {
		t.Fatal(err)
	}
	// Node 1 now fails (typed, eventually without consuming the timeout);
	// node 0 keeps serving survivor-homed keys.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, gerr := cl.Get(1, 1)
		if errors.Is(gerr, ErrNodeUnreachable) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("death of node 1 never surfaced as ErrNodeUnreachable (last err %v)", gerr)
		}
		time.Sleep(10 * time.Millisecond)
	}
	k := coldKeyHomedOn(t, members[0], 0, cfg.NumKeys)
	if err := cl.Put(0, k, []byte("still-serving")); err != nil {
		t.Fatalf("survivor put: %v", err)
	}
	if v, err := cl.Get(0, k); err != nil || string(v) != "still-serving" {
		t.Fatalf("survivor get: %q %v", v, err)
	}
}
