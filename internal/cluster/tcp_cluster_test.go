package cluster

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
)

// The full ccKVS protocol stack over real sockets: one member per
// TCPTransport on loopback — the same deployment shape as three cckvs-node
// processes, minus the process boundary.

// newTCPMembers builds cfg.Nodes members, each with its own TCP transport on
// an ephemeral loopback port, wires the peer tables and peer-down handlers,
// and populates the shards. It returns the members and their listen
// addresses (for session clients).
func newTCPMembers(t *testing.T, cfg Config) ([]*Cluster, []string) {
	t.Helper()
	members, addrs, _ := newTCPMembersStats(t, cfg)
	return members, addrs
}

// newTCPMembersStats is newTCPMembers exposing each node's transport stats
// (the zero-copy assertions read the vectored/flattened counters).
func newTCPMembersStats(t *testing.T, cfg Config) ([]*Cluster, []string, []*fabric.Stats) {
	t.Helper()
	n := cfg.Nodes
	trs := make([]*fabric.TCPTransport, n)
	addrs := make([]string, n)
	allStats := make([]*fabric.Stats, n)
	for i := 0; i < n; i++ {
		stats := fabric.NewStats()
		allStats[i] = stats
		tr, err := fabric.NewTCPTransport(uint8(i), "127.0.0.1:0", stats)
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		addrs[i] = tr.ListenAddr()
	}
	members := make([]*Cluster, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j != i {
				trs[i].AddPeer(uint8(j), addrs[j])
			}
		}
		m, err := NewMember(cfg, i, trs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		trs[i].SetPeerDownHandler(m.PeerDown)
		m.Populate()
		members[i] = m
	}
	t.Cleanup(func() {
		for _, m := range members {
			m.Close()
		}
	})
	return members, addrs, allStats
}

// The end-to-end check of the session get path over TCP: a reply's value
// reaches the transport as a segment aliasing store memory under a lease
// (VectoredBytes) — never flattened into a buffer of the node's own — is
// copied once, into the connection's staging buffer, and its lease is
// released: the quiesced node holds no leased buffer. Both the single-op and
// the batched reply shapes are exercised.
func TestTCPSessionGetZeroCopyVectored(t *testing.T) {
	cfg := Config{Nodes: 2, System: Base, NumKeys: 1024}
	members, addrs, stats := newTCPMembersStats(t, cfg)
	cl, err := DialTCP(203, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	key := coldKeyHomedOn(t, members[0], 0, cfg.NumKeys)
	v, err := cl.Get(0, key)
	if err != nil || len(v) == 0 {
		t.Fatalf("get over TCP: (%q, %v)", v, err)
	}
	single := stats[0].VectoredBytes.Load()
	if single == 0 {
		t.Fatal("single-op get reply was not vectored: VectoredBytes = 0")
	}

	keys := make([]uint64, 0, 16)
	for k := uint64(0); len(keys) < 16; k++ {
		if HomeOf(k, cfg.Nodes) == 0 {
			keys = append(keys, k)
		}
	}
	out, err := cl.MultiGet(0, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, val := range out {
		if len(val) == 0 {
			t.Fatalf("batched get %d: empty value", i)
		}
	}
	if grew := stats[0].VectoredBytes.Load(); grew <= single {
		t.Fatalf("batched get reply was not vectored: VectoredBytes %d -> %d", single, grew)
	}
	if f := stats[0].FlattenedBytes.Load(); f != 0 {
		t.Fatalf("FlattenedBytes = %d, want 0 — some reply flattened its value segments", f)
	}
	awaitNoLeases(t, members)
}

// awaitNoLeases fails unless every member's shard comes to hold no leased
// value buffer. A lane releases its leases right after Send returns, which
// may be after the reply was already delivered, so a quiesced cluster gets a
// moment to reach zero.
func awaitNoLeases(t *testing.T, members []*Cluster) {
	t.Helper()
	for i, m := range members {
		kvs := m.Node(i).kvs
		for deadline := time.Now().Add(5 * time.Second); kvs.LeasedBuffers() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("node %d holds %d leased value buffers with no traffic left", i, kvs.LeasedBuffers())
			}
		}
	}
}

// No lease outlives its reply: after a mix of point and batched gets and puts
// from two clients to every member of a caching TCP deployment, each shard
// holds no leased value buffer once the traffic has quiesced, and none after
// Cluster.Close.
func TestTCPNoLeasedBuffersLeft(t *testing.T) {
	for _, proto := range []core.Protocol{core.SC, core.Lin} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := Config{Nodes: 3, System: CCKVS, Protocol: proto, NumKeys: 512, CacheItems: 16, ValueSize: 32}
			members, addrs := newTCPMembers(t, cfg)
			for _, id := range []uint8{211, 212} {
				cl, err := DialTCP(id, addrs)
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				if err := cl.WaitReady(10 * time.Second); err != nil {
					t.Fatal(err)
				}
				keys := make([]uint64, 64)
				for i := range keys {
					keys[i] = uint64(i * 7 % int(cfg.NumKeys))
				}
				for node := 0; node < cfg.Nodes; node++ {
					if _, err := cl.MultiGet(node, keys); err != nil {
						t.Fatal(err)
					}
					for _, key := range keys[:8] {
						if err := cl.Put(node, key, bytes.Repeat([]byte{id}, cfg.ValueSize)); err != nil {
							t.Fatal(err)
						}
						if _, err := cl.Get(node, key); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			awaitNoLeases(t, members)
			for i, m := range members {
				m.Close()
				if n := m.Node(i).kvs.LeasedBuffers(); n != 0 {
					t.Fatalf("node %d holds %d leased value buffers after Close", i, n)
				}
			}
		})
	}
}

func TestTCPMemberFullProtocol(t *testing.T) {
	for _, proto := range []core.Protocol{core.SC, core.Lin} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := Config{
				Nodes: 3, System: CCKVS, Protocol: proto,
				NumKeys: 1024, CacheItems: 16, ValueSize: 16,
			}
			members, addrs := newTCPMembers(t, cfg)

			cl, err := DialTCP(200, addrs)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			if err := cl.WaitReady(10 * time.Second); err != nil {
				t.Fatal(err)
			}

			// Bootstrap the hot set over sockets.
			hot := DefaultHotSet(cfg.CacheItems)
			if p, _, err := cl.Refresh(0, hot); err != nil || p != cfg.CacheItems {
				t.Fatalf("refresh: promoted=%d err=%v", p, err)
			}

			// Hot write through one node, read through the others.
			want := bytes.Repeat([]byte{0x7}, 16)
			if err := cl.Put(1, hot[2], want); err != nil {
				t.Fatal(err)
			}
			for node := 0; node < cfg.Nodes; node++ {
				node := node
				waitForValue(t, "tcp node", want, func() ([]byte, error) {
					return cl.Get(node, hot[2])
				})
			}

			// Cold keys cross the socket fabric between members.
			cold := coldKeyHomedOn(t, members[0], 2, cfg.NumKeys)
			if err := cl.Put(0, cold, []byte("tcp-cold")); err != nil {
				t.Fatal(err)
			}
			got, err := cl.Get(1, cold)
			if err != nil || !bytes.Equal(got, []byte("tcp-cold")) {
				t.Fatalf("cold read: %q, %v", got, err)
			}

			// Online refresh while clients keep issuing traffic.
			stop := make(chan struct{})
			trafficErr := make(chan error, 1)
			go func() {
				defer close(trafficErr)
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					k := hot[i%len(hot)]
					if err := cl.Put(i%cfg.Nodes, k, want); err != nil {
						trafficErr <- err
						return
					}
					if _, err := cl.Get((i+1)%cfg.Nodes, k); err != nil {
						trafficErr <- err
						return
					}
				}
			}()
			shifted := make([]uint64, cfg.CacheItems)
			for i := range shifted {
				shifted[i] = uint64(cfg.CacheItems/2 + i)
			}
			_, _, rerr := cl.Refresh(2, shifted)
			close(stop)
			if err := <-trafficErr; err != nil {
				t.Fatalf("traffic during refresh: %v", err)
			}
			if rerr != nil {
				t.Fatalf("refresh under load: %v", rerr)
			}

			// Hits must have accrued on the symmetric caches.
			var hits uint64
			for node := 0; node < cfg.Nodes; node++ {
				st, err := cl.Stats(node)
				if err != nil {
					t.Fatal(err)
				}
				hits += st.CacheHits
			}
			if hits == 0 {
				t.Fatal("no cache hits over TCP deployment")
			}
		})
	}
}

// Killing a member must fail the RPCs other members have pending toward it —
// the cluster-shutdown guarantee extended to peer failure. Without the
// peer-down hook, callers blocked on a response from the dead node would
// hang forever.
func TestTCPPeerDisconnectFailsPendingRPCs(t *testing.T) {
	cfg := Config{Nodes: 3, System: Base, NumKeys: 1024}
	members, _ := newTCPMembers(t, cfg)

	// Warm the connection so the failure path is a broken established
	// stream, not a refused dial.
	k := coldKeyHomedOn(t, members[0], 2, cfg.NumKeys)
	if _, err := members[0].Node(0).Get(k); err != nil {
		t.Fatalf("warm-up remote get: %v", err)
	}

	// Kill member 2 abruptly (transport teardown, not a graceful protocol
	// exit), then hammer it with remote accesses. Every call must complete
	// with an error — whether it raced onto the broken stream (failed by the
	// peer-down handler), found the connection gone (failed at send), or
	// arrived after the view flip (failed fast with ErrHomeDown).
	if err := members[2].Close(); err != nil {
		t.Fatal(err)
	}
	const calls = 16
	done := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := members[0].Node(0).Get(k)
			done <- err
		}()
	}
	for i := 0; i < calls; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("remote get to killed node succeeded")
			}
		case <-time.After(15 * time.Second):
			t.Fatal("remote get to killed node hung (peer-down never failed the pending call)")
		}
	}

	// The two survivors keep serving each other.
	k01 := coldKeyHomedOn(t, members[0], 1, cfg.NumKeys)
	if _, err := members[0].Node(0).Get(k01); err != nil {
		t.Fatalf("survivor remote get: %v", err)
	}
}

// A session client must also fail fast when its server dies mid-call.
func TestTCPClientFailsOnServerDeath(t *testing.T) {
	cfg := Config{Nodes: 2, System: Base, NumKeys: 256}
	members, addrs := newTCPMembers(t, cfg)
	cl, err := DialTCP(200, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if err := cl.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(1, 1); err != nil && !errors.Is(err, ErrSessionTimeout) {
		// Key 1 may be homed anywhere; only transport-level failure matters.
		t.Fatalf("warm-up get: %v", err)
	}
	if err := members[1].Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := cl.Get(1, 1)
		if err != nil && !errors.Is(err, ErrSessionTimeout) {
			break // failed fast with a transport error, as required
		}
		if time.Now().After(deadline) {
			t.Fatal("client never observed the server death")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
