package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/timestamp"
)

// TestApplyHotSetDeltaMovesKeysEverywhere checks the basic contract: the
// demoted key leaves every cache with its dirty value flushed home, the
// promoted key is installed on every cache with its home value, and the
// stats account for exactly that.
func TestApplyHotSetDeltaMovesKeysEverywhere(t *testing.T) {
	for _, proto := range []core.Protocol{core.SC, core.Lin} {
		t.Run(proto.String(), func(t *testing.T) {
			c := newTestCluster(t, Config{
				Nodes: 3, System: CCKVS, Protocol: proto,
				NumKeys: 2000, CacheItems: 8,
			})
			dirty := bytes.Repeat([]byte{0xD1}, 40)
			if err := c.Node(1).Put(3, dirty); err != nil {
				t.Fatal(err)
			}
			st, err := c.ApplyHotSetDelta(0, []uint64{100}, []uint64{3})
			if err != nil {
				t.Fatal(err)
			}
			if st.Promoted != 1 || st.Demoted != 1 || st.WriteBacks != 1 {
				t.Fatalf("stats %+v, want 1 promoted / 1 demoted / 1 write-back", st)
			}
			if st.HomeFetches != 1 {
				t.Fatalf("stats %+v: promotion must fetch exactly the delta", st)
			}
			for i := 0; i < c.NumNodes(); i++ {
				if c.Node(i).cache.Contains(3) {
					t.Fatalf("node %d still caches demoted key", i)
				}
				if !c.Node(i).cache.Contains(100) {
					t.Fatalf("node %d missing promoted key", i)
				}
			}
			// The dirty value survived the demotion at its home shard...
			home := c.Node(c.HomeNode(3))
			v, _, err := home.kvs.Get(3, nil)
			if err != nil || !bytes.Equal(v, dirty) {
				t.Fatalf("write-back lost: %v %v", v, err)
			}
			// ...and the promoted key now hits in the cache.
			before := c.Node(2).CacheHits.Load()
			if _, err := c.Node(2).Get(100); err != nil {
				t.Fatal(err)
			}
			if c.Node(2).CacheHits.Load() != before+1 {
				t.Fatal("promoted key still misses")
			}
		})
	}
}

// TestDeltaCostIsODeltaNotOK is the acceptance check for the incremental
// scheme: reconfiguration cost must scale with the number of keys that
// move (Δ), not with the hot-set size (k). It pins both the promotion
// fetch count (== Δ) and the total reconfiguration RPC traffic (a small
// constant times Δ, well under k).
func TestDeltaCostIsODeltaNotOK(t *testing.T) {
	const cacheItems = 64 // k
	c := newTestCluster(t, Config{
		Nodes: 3, System: CCKVS, Protocol: core.SC,
		NumKeys: 4000, CacheItems: cacheItems,
	})
	promote := []uint64{1000, 1001, 1002, 1003}
	demote := []uint64{0, 1, 2, 3}
	delta := len(promote) + len(demote)

	msgsBefore := uint64(0)
	for i := 0; i < c.NumNodes(); i++ {
		msgsBefore += c.Node(i).RemoteReqMsgs.Load()
	}
	st, err := c.ApplyHotSetDelta(0, promote, demote)
	if err != nil {
		t.Fatal(err)
	}
	msgsAfter := uint64(0)
	for i := 0; i < c.NumNodes(); i++ {
		msgsAfter += c.Node(i).RemoteReqMsgs.Load()
	}

	if st.HomeFetches != len(promote) {
		t.Fatalf("HomeFetches = %d, want %d (the promotion delta)", st.HomeFetches, len(promote))
	}
	spent := int(msgsAfter - msgsBefore)
	// Freeze/collect/commit visit every peer per demoted key, promotions
	// install on every peer, write-backs and fetches are per key: all of it
	// O(Δ) with a small constant. A full reinstall would fetch O(k).
	if budget := 12 * delta; spent > budget {
		t.Fatalf("reconfiguration sent %d request messages for Δ=%d (budget %d): not O(Δ)",
			spent, delta, budget)
	}
	if spent >= cacheItems {
		t.Fatalf("reconfiguration sent %d messages, k is only %d: not better than a reinstall",
			spent, cacheItems)
	}
	if st.CollectRetries != 0 {
		t.Fatalf("quiescent cluster needed %d collect retries", st.CollectRetries)
	}
}

// TestSequentialWritesAcrossDemotionNeverLost hammers one hot key from a
// single sequential writer while the key is demoted mid-stream: every write
// observes the previous one, so whatever path each write took (cache write,
// frozen retry, miss to home) the final value must be the last one written.
func TestSequentialWritesAcrossDemotionNeverLost(t *testing.T) {
	for _, proto := range []core.Protocol{core.SC, core.Lin} {
		t.Run(proto.String(), func(t *testing.T) {
			c := newTestCluster(t, Config{
				Nodes: 3, System: CCKVS, Protocol: proto,
				NumKeys: 500, CacheItems: 4,
			})
			const key = uint64(2)
			const writes = 400
			var last atomic.Uint32
			done := make(chan error, 1)
			go func() {
				val := make([]byte, 8)
				for i := 1; i <= writes; i++ {
					val[0], val[1], val[2] = byte(i), byte(i>>8), 0xAB
					// The session sticks to one node: SC propagates
					// updates asynchronously, so only same-replica writes
					// carry monotonic timestamps (Lin writes are
					// synchronous and would allow rotating).
					if err := c.Node(0).Put(key, val); err != nil {
						done <- fmt.Errorf("write %d: %w", i, err)
						return
					}
					last.Store(uint32(i))
				}
				done <- nil
			}()
			// Demote the key mid-stream, then promote it back, repeatedly.
			for round := 0; round < 6; round++ {
				if _, err := c.ApplyHotSetDelta(round%3, nil, []uint64{key}); err != nil {
					t.Fatal(err)
				}
				if _, err := c.ApplyHotSetDelta(round%3, []uint64{key}, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			// Final demotion flushes whatever the cache holds; the home
			// shard must then hold the last write.
			if _, err := c.ApplyHotSetDelta(0, nil, []uint64{key}); err != nil {
				t.Fatal(err)
			}
			v, err := c.Node(0).Get(key)
			if err != nil {
				t.Fatal(err)
			}
			n := last.Load()
			if v[0] != byte(n) || v[1] != byte(n>>8) || v[2] != 0xAB {
				t.Fatalf("home holds write %d, want last write %d", uint32(v[0])|uint32(v[1])<<8, n)
			}
		})
	}
}

// TestApplyHotSetDeltaUnderLiveTraffic rolls the hot set across the
// keyspace while client goroutines keep reading and writing — the epoch
// loop and the clients race by design, which is exactly what `go test
// -race` must stay clean on. Reads and writes must never error, and after
// the last epoch every cache must hold exactly the final window.
func TestApplyHotSetDeltaUnderLiveTraffic(t *testing.T) {
	for _, proto := range []core.Protocol{core.SC, core.Lin} {
		t.Run(proto.String(), func(t *testing.T) {
			const (
				cacheItems = 32
				epochs     = 8
				shift      = 8 // keys moved per epoch
				clients    = 6
			)
			c := newTestCluster(t, Config{
				Nodes: 3, System: CCKVS, Protocol: proto,
				NumKeys: 4000, CacheItems: cacheItems,
			})
			stop := make(chan struct{})
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for cl := 0; cl < clients; cl++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					val := make([]byte, 16)
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						// Mix of keys inside, entering, and leaving the
						// rolling hot window, plus cold traffic.
						key := uint64((id*31 + i) % (cacheItems + epochs*shift + 100))
						n := c.Node((id + i) % c.NumNodes())
						if i%4 == 0 {
							val[0], val[1] = byte(i), byte(id)
							if err := n.Put(key, val); err != nil {
								errs <- fmt.Errorf("client %d put %d: %w", id, key, err)
								return
							}
						} else if _, err := n.Get(key); err != nil {
							errs <- fmt.Errorf("client %d get %d: %w", id, key, err)
							return
						}
					}
				}(cl)
			}
			// Roll the hot window [e*shift, e*shift+cacheItems) while the
			// clients hammer away.
			for e := 1; e <= epochs; e++ {
				promote := make([]uint64, 0, shift)
				demote := make([]uint64, 0, shift)
				for i := 0; i < shift; i++ {
					demote = append(demote, uint64((e-1)*shift+i))
					promote = append(promote, uint64((e-1)*shift+cacheItems+i))
				}
				if _, err := c.ApplyHotSetDelta(e%3, promote, demote); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			select {
			case err := <-errs:
				t.Fatal(err)
			default:
			}
			// Every cache converged to the final window.
			want := make(map[uint64]bool, cacheItems)
			for i := 0; i < cacheItems; i++ {
				want[uint64(epochs*shift+i)] = true
			}
			for i := 0; i < c.NumNodes(); i++ {
				keys := c.Node(i).cache.Keys()
				if len(keys) != cacheItems {
					t.Fatalf("node %d holds %d keys, want %d", i, len(keys), cacheItems)
				}
				for _, k := range keys {
					if !want[k] {
						t.Fatalf("node %d caches stray key %d", i, k)
					}
				}
			}
			if err := c.VerifyShardIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A promotion fetch served by the node that drives the promotion honours the
// rejoin re-sync gate exactly like one served to a peer: a rejoined, still
// seeding member that drives a refresh must not install its pre-crash value
// in every cache. The gated member is the acting primary of k and drives
// ApplyHotSet itself; the stand-in holds a newer k; the fetch has to wait for
// the seed (Retry rounds) and install the post-seed value.
func TestPromotionFetchHonoursResyncGate(t *testing.T) {
	// The long hold outlasts any count of in-place rounds a fan-out could
	// mistake for a hang (ten million of them spin by in about three seconds):
	// a slow re-seed is not an error.
	for _, hold := range []time.Duration{100 * time.Millisecond, 4 * time.Second} {
		t.Run(hold.String(), func(t *testing.T) {
			if hold > time.Second && testing.Short() {
				t.Skip("long re-seed")
			}
			t.Parallel()
			promotionFetchUnderGate(t, hold)
		})
	}
}

func promotionFetchUnderGate(t *testing.T, hold time.Duration) {
	cfg := Config{
		Nodes: 3, System: CCKVS, Protocol: core.SC, ReplicasPerShard: 2,
		NumKeys: 2048, CacheItems: 32, ValueSize: 16, WorkersPerNode: 2,
	}
	const rejoined, standIn = 2, 0 // ReplicasOf(k) = {2, 0}
	members := newChanMembers(t, cfg)
	k := coldKeyHomedOnCfg(t, cfg, rejoined)
	postSeed, ts := bytes.Repeat([]byte{0xC7}, cfg.ValueSize), timestamp.TS{Clock: 9, Writer: standIn}

	// The stand-in served k while the member was away; the member is back,
	// its seed stream announced (gate armed) but not yet landed.
	members[standIn].LocalNode().kvs.Put(k, postSeed, ts)
	members[rejoined].addSyncSource(standIn)

	done := make(chan error, 1)
	go func() {
		_, err := members[rejoined].ApplyHotSet(rejoined, []uint64{k})
		done <- err
	}()
	// The seed lands (a write-back: PutIfNewer), then seed-done.
	seed := func() {
		if err := members[rejoined].LocalNode().kvs.PutIfNewer(k, postSeed, ts); err != nil {
			t.Fatal(err)
		}
		members[rejoined].removeSyncSource(standIn)
	}
	// Nothing can complete while the gate is armed; the wait only gives a
	// fetch that ignores the gate the time to show it.
	var err error
	select {
	case err = <-done:
		t.Errorf("ApplyHotSet returned while the driving member's re-sync gate was armed")
		seed()
	case <-time.After(hold):
		seed()
		err = <-done
	}
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		if v, _, err := m.LocalNode().cache.Read(k, nil); err != nil || !bytes.Equal(v, postSeed) {
			t.Errorf("node %d caches %x (err=%v), want the post-seed value %x", i, v, err, postSeed)
		}
	}
}
