package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// newTestCluster builds, populates and (for ccKVS) warms a small cluster.
func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.Populate()
	if cfg.System == CCKVS {
		c.InstallHotSet(DefaultHotSet(cfg.CacheItems))
	}
	return c
}

// drive runs one closed-loop goroutine per client against the in-process
// nodes. Each client starts at its own node and moves round-robin over
// c.Node(i) per call; batch > 1 issues each batch of ops as one MultiPut plus
// one MultiGet, otherwise each op is one Put or Get. The first error fails
// the test.
func drive(t *testing.T, c *Cluster, clients, opsPerClient, batch int, wl workload.Config) {
	t.Helper()
	gen := workload.MustNew(wl)
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		go func(g *workload.Generator, node int) {
			var err error
			for i := 0; i < opsPerClient && err == nil; node++ {
				n := c.Node(node % c.NumNodes())
				var gets, puts []uint64
				var vals [][]byte
				for ; i < opsPerClient && len(gets)+len(puts) < max(batch, 1); i++ {
					if op := g.Next(); op.Type == workload.Put {
						puts = append(puts, op.Key)
						vals = append(vals, append([]byte(nil), op.Value...))
					} else {
						gets = append(gets, op.Key)
					}
				}
				switch {
				case batch > 1:
					if len(puts) > 0 {
						err = n.MultiPut(puts, vals)
					}
					if err == nil && len(gets) > 0 {
						_, err = n.MultiGet(gets)
					}
				case len(puts) > 0:
					err = n.Put(puts[0], vals[0])
				default:
					_, err = n.Get(gets[0])
				}
			}
			errs <- err
		}(gen.Clone(uint64(id)), id)
	}
	for id := 0; id < clients; id++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// verifyShardIntegrity checks that every key is present on its home shard.
// In member form only locally-homed keys are checked.
func (c *Cluster) verifyShardIntegrity() error {
	for k := uint64(0); k < c.cfg.NumKeys; k++ {
		home := c.HomeNode(k)
		if c.nodes[home] == nil {
			continue
		}
		if _, _, err := c.nodes[home].kvs.Get(k, nil); err != nil {
			return fmt.Errorf("key %d missing from home node %d: %w", k, home, err)
		}
	}
	return nil
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0, System: CCKVS}); err == nil {
		t.Fatal("ccKVS without cache must be rejected")
	}
	if _, err := New(Config{Nodes: 3, System: Base, CacheItems: 10}); err == nil {
		t.Fatal("baseline with cache must be rejected")
	}
	if _, err := New(Config{Nodes: 9999}); err == nil {
		t.Fatal("absurd node count must be rejected")
	}
	// A negative depth, bound or budget is refused up front: it would panic in
	// make(chan) or block every sender for good.
	for name, cfg := range map[string]Config{
		"QueueDepth":     {Nodes: 2, QueueDepth: -1},
		"BatchMaxMsgs":   {Nodes: 2, BatchMaxMsgs: -1},
		"BatchMaxBytes":  {Nodes: 2, BatchMaxBytes: -1},
		"CreditsPerPeer": {Nodes: 2, CreditsPerPeer: -1},
	} {
		if c, err := New(cfg); err == nil {
			c.Close()
			t.Errorf("negative %s must be rejected", name)
		}
	}
}

func TestSystemString(t *testing.T) {
	if BaseEREW.String() != "Base-EREW" || Base.String() != "Base" || CCKVS.String() != "ccKVS" {
		t.Fatal("system names wrong")
	}
	if System(9).String() == "" {
		t.Fatal("unknown system must render")
	}
}

func TestPopulateAndShardIntegrity(t *testing.T) {
	c := newTestCluster(t, Config{Nodes: 3, System: Base, NumKeys: 2000})
	if err := c.verifyShardIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Keys must spread over all shards.
	for i := 0; i < 3; i++ {
		if c.Node(i).kvs.Len() == 0 {
			t.Fatalf("node %d owns no keys", i)
		}
	}
}

func TestBaseLocalAndRemoteGet(t *testing.T) {
	c := newTestCluster(t, Config{Nodes: 3, System: Base, NumKeys: 300})
	// Every key must be readable from every node (local or via RPC).
	for key := uint64(0); key < 300; key += 17 {
		for n := 0; n < 3; n++ {
			v, err := c.Node(n).Get(key)
			if err != nil {
				t.Fatalf("node %d key %d: %v", n, key, err)
			}
			if len(v) != 40 {
				t.Fatalf("value size %d", len(v))
			}
		}
	}
	// Both local and remote paths must have been exercised.
	var local, remote uint64
	for i := 0; i < 3; i++ {
		local += c.Node(i).LocalOps.Load()
		remote += c.Node(i).RemoteOps.Load()
	}
	if local == 0 || remote == 0 {
		t.Fatalf("local=%d remote=%d; both paths must be hit", local, remote)
	}
}

func TestBasePutVisibleEverywhere(t *testing.T) {
	c := newTestCluster(t, Config{Nodes: 3, System: Base, NumKeys: 100})
	want := bytes.Repeat([]byte{0xAB}, 40)
	if err := c.Node(1).Put(5, want); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		v, err := c.Node(n).Get(5)
		if err != nil || !bytes.Equal(v, want) {
			t.Fatalf("node %d: %v %v", n, v, err)
		}
	}
}

func TestBaseEREWPartitions(t *testing.T) {
	c := newTestCluster(t, Config{Nodes: 2, System: BaseEREW, NumKeys: 500})
	for i := 0; i < 2; i++ {
		if c.Node(i).kvs.NumPartitions() != erewPartitions {
			t.Fatalf("node %d partitions = %d", i, c.Node(i).kvs.NumPartitions())
		}
	}
	v, err := c.Node(0).Get(123)
	if err != nil || len(v) != 40 {
		t.Fatalf("get through EREW: %v %v", v, err)
	}
}

func TestCCKVSReadsHitCache(t *testing.T) {
	c := newTestCluster(t, Config{
		Nodes: 3, System: CCKVS, Protocol: core.SC,
		NumKeys: 1000, CacheItems: 50,
	})
	// Hot keys (rank < 50) must be cache hits on every node.
	for n := 0; n < 3; n++ {
		if _, err := c.Node(n).Get(7); err != nil {
			t.Fatal(err)
		}
		if c.Node(n).CacheHits.Load() == 0 {
			t.Fatalf("node %d: hot read did not hit the cache", n)
		}
	}
	// Cold keys miss.
	before := c.Node(0).CacheMisses.Load()
	if _, err := c.Node(0).Get(999); err != nil {
		t.Fatal(err)
	}
	if c.Node(0).CacheMisses.Load() != before+1 {
		t.Fatal("cold read did not miss")
	}
}

func TestCCKVSSCWritePropagates(t *testing.T) {
	c := newTestCluster(t, Config{
		Nodes: 3, System: CCKVS, Protocol: core.SC,
		NumKeys: 1000, CacheItems: 50,
	})
	want := bytes.Repeat([]byte{0x5C}, 40)
	if err := c.Node(2).Put(3, want); err != nil {
		t.Fatal(err)
	}
	// SC propagation is asynchronous: poll each replica until convergence.
	for n := 0; n < 3; n++ {
		deadline := time.Now().Add(5 * time.Second)
		for {
			v, err := c.Node(n).Get(3)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(v, want) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d never converged: %v", n, v)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Update traffic must have been generated (2 updates, one per peer).
	if got := c.FabricStats().Traffic.Packets(metrics.ClassUpdate); got != 2 {
		t.Fatalf("update packets = %d, want 2", got)
	}
}

func TestCCKVSLinWriteSynchronous(t *testing.T) {
	c := newTestCluster(t, Config{
		Nodes: 4, System: CCKVS, Protocol: core.Lin,
		NumKeys: 1000, CacheItems: 20,
	})
	want := bytes.Repeat([]byte{0x11}, 40)
	if err := c.Node(0).Put(2, want); err != nil {
		t.Fatal(err)
	}
	// Lin: the moment Put returns, no node may serve the old value; reads
	// either return the new value or stall internally until the update
	// lands — Get handles the stall, so every Get must return the new
	// value immediately.
	for n := 0; n < 4; n++ {
		v, err := c.Node(n).Get(2)
		if err != nil || !bytes.Equal(v, want) {
			t.Fatalf("node %d after Lin put: %v %v", n, v, err)
		}
	}
	st := c.FabricStats().Traffic
	if st.Packets(metrics.ClassInvalidate) != 3 {
		t.Fatalf("invalidations = %d, want 3", st.Packets(metrics.ClassInvalidate))
	}
	if st.Packets(metrics.ClassAck) != 3 {
		t.Fatalf("acks = %d, want 3", st.Packets(metrics.ClassAck))
	}
	if st.Packets(metrics.ClassUpdate) != 3 {
		t.Fatalf("updates = %d, want 3", st.Packets(metrics.ClassUpdate))
	}
}

func TestCCKVSWriteMissForwardsHome(t *testing.T) {
	for _, proto := range []core.Protocol{core.SC, core.Lin} {
		t.Run(proto.String(), func(t *testing.T) {
			c := newTestCluster(t, Config{
				Nodes: 3, System: CCKVS, Protocol: proto,
				NumKeys: 500, CacheItems: 10,
			})
			want := bytes.Repeat([]byte{0x77}, 40)
			cold := uint64(400) // rank 400 is not in the 10-item hot set
			if err := c.Node(0).Put(cold, want); err != nil {
				t.Fatal(err)
			}
			v, err := c.Node(1).Get(cold)
			if err != nil || !bytes.Equal(v, want) {
				t.Fatalf("cold write lost: %v %v", v, err)
			}
		})
	}
}

func TestCCKVSConcurrentWritersConverge(t *testing.T) {
	for _, proto := range []core.Protocol{core.SC, core.Lin} {
		t.Run(proto.String(), func(t *testing.T) {
			c := newTestCluster(t, Config{
				Nodes: 3, System: CCKVS, Protocol: proto,
				NumKeys: 500, CacheItems: 5,
			})
			const key = 1
			done := make(chan error, 3)
			for n := 0; n < 3; n++ {
				go func(n int) {
					var err error
					for i := 0; i < 20 && err == nil; i++ {
						val := bytes.Repeat([]byte{byte(n*32 + i)}, 40)
						err = c.Node(n).Put(key, val)
					}
					done <- err
				}(n)
			}
			for i := 0; i < 3; i++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			// After quiescence all replicas agree.
			deadline := time.Now().Add(5 * time.Second)
			for {
				v0, err := c.Node(0).Get(key)
				if err != nil {
					t.Fatal(err)
				}
				agree := true
				for n := 1; n < 3; n++ {
					v, err := c.Node(n).Get(key)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(v, v0) {
						agree = false
					}
				}
				if agree {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("replicas never converged")
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

func TestMixedWorkload(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"Base", Config{Nodes: 3, System: Base, NumKeys: 2000}},
		{"BaseEREW", Config{Nodes: 3, System: BaseEREW, NumKeys: 2000}},
		{"ccKVS-SC", Config{Nodes: 3, System: CCKVS, Protocol: core.SC, NumKeys: 2000, CacheItems: 64}},
		{"ccKVS-Lin", Config{Nodes: 3, System: CCKVS, Protocol: core.Lin, NumKeys: 2000, CacheItems: 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, tc.cfg)
			drive(t, c, 6, 400, 1, workload.Config{
				NumKeys: 2000, Alpha: 0.99, WriteRatio: 0.05, ValueSize: 40, Seed: 42,
			})
			var hits, misses uint64
			for i := 0; i < c.NumNodes(); i++ {
				hits += c.Node(i).CacheHits.Load()
				misses += c.Node(i).CacheMisses.Load()
			}
			rate := float64(hits) / float64(hits+misses)
			switch {
			case tc.cfg.System != CCKVS && hits != 0:
				t.Fatalf("%d cache hits on a cache-less system", hits)
			case tc.cfg.System == CCKVS && rate < 0.3:
				// Top-64 of 2000 keys at alpha=.99 carries ~45% of accesses.
				t.Fatalf("hit rate %.3f implausibly low", rate)
			}
		})
	}
}

func TestLinTrafficHasAllClasses(t *testing.T) {
	c := newTestCluster(t, Config{
		Nodes: 3, System: CCKVS, Protocol: core.Lin,
		NumKeys: 1000, CacheItems: 32, CreditsPerPeer: 16, // a credit update every 2 packets
	})
	drive(t, c, 4, 300, 1, workload.Config{NumKeys: 1000, Alpha: 0.99, WriteRatio: 0.2, ValueSize: 40, Seed: 7})
	tr := c.FabricStats().Traffic
	for _, class := range []metrics.MsgClass{
		metrics.ClassCacheMiss, metrics.ClassUpdate,
		metrics.ClassInvalidate, metrics.ClassAck, metrics.ClassFlowControl,
	} {
		if tr.Bytes(class) == 0 {
			t.Fatalf("no traffic recorded for %v", class)
		}
	}
	// The Figure 11 sanity: invalidations and acks are header-only and
	// must cost less than the value-carrying updates.
	if tr.Bytes(metrics.ClassAck) >= tr.Bytes(metrics.ClassUpdate) {
		t.Fatalf("acks (%d B) should be cheaper than updates (%d B)",
			tr.Bytes(metrics.ClassAck), tr.Bytes(metrics.ClassUpdate))
	}
}

func TestEpochChangeWritesBackDirtyItems(t *testing.T) {
	c := newTestCluster(t, Config{
		Nodes: 3, System: CCKVS, Protocol: core.SC,
		NumKeys: 500, CacheItems: 8,
	})
	want := bytes.Repeat([]byte{0xEE}, 40)
	if err := c.Node(0).Put(3, want); err != nil {
		t.Fatal(err)
	}
	// New epoch evicts key 3 (hot set shifts to ranks 100..107).
	newHot := make([]uint64, 8)
	for i := range newHot {
		newHot[i] = uint64(100 + i)
	}
	c.InstallHotSet(newHot)
	// The dirty value must have been flushed to the home shard.
	home := c.Node(c.HomeNode(3))
	v, _, err := home.kvs.Get(3, nil)
	if err != nil || !bytes.Equal(v, want) {
		t.Fatalf("write-back lost: %v %v", v, err)
	}
	// And the key now misses in every cache.
	if c.Node(0).cache.Contains(3) {
		t.Fatal("evicted key still cached")
	}
}

func TestHomeNodeStableAndSpread(t *testing.T) {
	c := newTestCluster(t, Config{Nodes: 5, System: Base, NumKeys: 100})
	counts := make([]int, 5)
	for k := uint64(0); k < 1000; k++ {
		h := c.HomeNode(k)
		if h != c.HomeNode(k) {
			t.Fatal("home assignment unstable")
		}
		counts[h]++
	}
	for n, cnt := range counts {
		if cnt < 100 {
			t.Fatalf("node %d owns only %d/1000 keys", n, cnt)
		}
	}
}

func TestClusterCloseIdempotent(t *testing.T) {
	c := newTestCluster(t, Config{Nodes: 2, System: Base, NumKeys: 50})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultHotSet(t *testing.T) {
	hs := DefaultHotSet(4)
	for i, k := range hs {
		if k != uint64(i) {
			t.Fatalf("hot set = %v", hs)
		}
	}
}

// Session-order smoke test at cluster level: a session's own writes must be
// immediately visible to itself under both protocols (read-your-writes
// within the per-key session order of §5.1).
func TestReadYourWrites(t *testing.T) {
	for _, proto := range []core.Protocol{core.SC, core.Lin} {
		t.Run(proto.String(), func(t *testing.T) {
			c := newTestCluster(t, Config{
				Nodes: 3, System: CCKVS, Protocol: proto,
				NumKeys: 200, CacheItems: 16,
			})
			for i := 0; i < 10; i++ {
				want := bytes.Repeat([]byte{byte(0x40 + i)}, 40)
				if err := c.Node(1).Put(0, want); err != nil {
					t.Fatal(err)
				}
				v, err := c.Node(1).Get(0)
				if err != nil || !bytes.Equal(v, want) {
					t.Fatalf("iteration %d: read-your-write failed: %v %v", i, v, err)
				}
			}
		})
	}
}

func BenchmarkClusterGetHot(b *testing.B) {
	c, err := New(Config{Nodes: 3, System: CCKVS, Protocol: core.SC, NumKeys: 10000, CacheItems: 100})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.Populate()
	c.InstallHotSet(DefaultHotSet(100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Node(i % 3).Get(uint64(i % 100)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterPutLin(b *testing.B) {
	c, err := New(Config{Nodes: 3, System: CCKVS, Protocol: core.Lin, NumKeys: 10000, CacheItems: 100})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	c.Populate()
	c.InstallHotSet(DefaultHotSet(100))
	val := make([]byte, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Node(i%3).Put(uint64(i%100), val); err != nil {
			b.Fatal(err)
		}
	}
}

// UD datagrams are unordered; the protocols must tolerate arbitrary message
// reordering on real executions, not just in the model checker. These runs
// route every packet through an adversarial shuffle buffer.
func TestProtocolsTolerateReordering(t *testing.T) {
	for _, proto := range []core.Protocol{core.SC, core.Lin} {
		t.Run(proto.String(), func(t *testing.T) {
			c := newTestCluster(t, Config{
				Nodes: 3, System: CCKVS, Protocol: proto,
				NumKeys: 1000, CacheItems: 32,
				ReorderDepth: 12, ReorderSeed: 99,
			})
			drive(t, c, 6, 300, 1, workload.Config{
				NumKeys: 1000, Alpha: 0.99, WriteRatio: 0.1, ValueSize: 40, Seed: 5,
			})
			// After quiescence all replicas must converge on hot keys.
			deadline := time.Now().Add(10 * time.Second)
			for key := uint64(0); key < 8; key++ {
				for {
					ref, err := c.Node(0).Get(key)
					if err != nil {
						t.Fatal(err)
					}
					agree := true
					for n := 1; n < 3; n++ {
						v, err := c.Node(n).Get(key)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(v, ref) {
							agree = false
						}
					}
					if agree {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("key %d never converged under reordering", key)
					}
					time.Sleep(time.Millisecond)
				}
			}
		})
	}
}

// Lin's guarantee must hold even with the adversarial transport: after Put
// returns, no node serves the old value.
func TestLinSynchronousUnderReordering(t *testing.T) {
	c := newTestCluster(t, Config{
		Nodes: 4, System: CCKVS, Protocol: core.Lin,
		NumKeys: 500, CacheItems: 16,
		ReorderDepth: 8, ReorderSeed: 3,
	})
	for i := 0; i < 30; i++ {
		want := bytes.Repeat([]byte{byte(0x80 + i)}, 40)
		if err := c.Node(i%4).Put(2, want); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 4; n++ {
			v, err := c.Node(n).Get(2)
			if err != nil || !bytes.Equal(v, want) {
				t.Fatalf("round %d node %d: %v %v", i, n, v, err)
			}
		}
	}
}

// MultiGet must agree with per-key Get across cached, local and remote
// paths, under both protocols.
func TestMultiGetMatchesGet(t *testing.T) {
	for _, proto := range []core.Protocol{core.SC, core.Lin} {
		t.Run(proto.String(), func(t *testing.T) {
			c := newTestCluster(t, Config{
				Nodes: 3, System: CCKVS, Protocol: proto,
				NumKeys: 600, CacheItems: 16,
			})
			// Mix of hot (cached), and cold keys scattered over all homes.
			keys := []uint64{0, 1, 7, 15, 100, 101, 250, 333, 420, 599}
			for n := 0; n < 3; n++ {
				got, err := c.Node(n).MultiGet(keys)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(keys) {
					t.Fatalf("got %d values for %d keys", len(got), len(keys))
				}
				for i, key := range keys {
					want, err := c.Node(n).Get(key)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got[i], want) {
						t.Fatalf("node %d key %d: MultiGet=%v Get=%v", n, key, got[i], want)
					}
				}
			}
		})
	}
}

// A batch spanning hot and cold keys must write through the protocol for the
// hot ones and through coalesced home-shard forwards for the cold ones, and
// every value must be visible cluster-wide afterwards.
func TestMultiPutVisibleEverywhere(t *testing.T) {
	for _, proto := range []core.Protocol{core.SC, core.Lin} {
		t.Run(proto.String(), func(t *testing.T) {
			c := newTestCluster(t, Config{
				Nodes: 3, System: CCKVS, Protocol: proto,
				NumKeys: 600, CacheItems: 16,
			})
			keys := []uint64{2, 5, 150, 300, 450, 599} // 2,5 hot; rest cold
			values := make([][]byte, len(keys))
			for i := range keys {
				values[i] = bytes.Repeat([]byte{byte(0xC0 + i)}, 40)
			}
			if err := c.Node(1).MultiPut(keys, values); err != nil {
				t.Fatal(err)
			}
			for i, key := range keys {
				for n := 0; n < 3; n++ {
					// SC propagates hot writes asynchronously; poll briefly.
					deadline := time.Now().Add(5 * time.Second)
					for {
						v, err := c.Node(n).Get(key)
						if err != nil {
							t.Fatal(err)
						}
						if bytes.Equal(v, values[i]) {
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("node %d key %d never saw batch value", n, key)
						}
						time.Sleep(time.Millisecond)
					}
				}
			}
		})
	}
}

// MultiGet on a missing key yields a nil value, not an error.
func TestMultiGetMissingKeyIsNil(t *testing.T) {
	c := newTestCluster(t, Config{Nodes: 2, System: Base, NumKeys: 100})
	got, err := c.Node(0).MultiGet([]uint64{5, 5000, 7, 6000})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] == nil || got[2] == nil {
		t.Fatal("present keys came back nil")
	}
	if got[1] != nil || got[3] != nil {
		t.Fatal("absent keys came back non-nil")
	}
}

// Large uniform MultiGet/MultiPut batches must coalesce remote requests into
// visibly fewer packets.
func TestBatchedWorkload(t *testing.T) {
	c := newTestCluster(t, Config{Nodes: 3, System: Base, NumKeys: 2000})
	drive(t, c, 4, 400, 32, workload.Config{
		NumKeys: 2000, Alpha: 0, WriteRatio: 0.05, ValueSize: 40, Seed: 11,
	})
	var msgs, pkts uint64
	for i := 0; i < 3; i++ {
		msgs += c.Node(i).RemoteReqMsgs.Load()
		pkts += c.Node(i).RemoteReqPackets.Load()
	}
	if msgs == 0 || pkts == 0 {
		t.Fatalf("no remote traffic recorded (msgs=%d pkts=%d)", msgs, pkts)
	}
	if float64(msgs)/float64(pkts) < 2 {
		t.Fatalf("uniform batched run coalesced only %.2f reqs/packet (msgs=%d pkts=%d)",
			float64(msgs)/float64(pkts), msgs, pkts)
	}
	t.Logf("coalescing factor: %.1f reqs/packet", float64(msgs)/float64(pkts))
}
