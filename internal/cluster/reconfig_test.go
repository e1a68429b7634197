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
			if err := c.verifyShardIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// gateSeed is the value a rejoined member's seed stream brings for the key
// the gate tests read, write and promote: a counter, so FAA can add to it.
var gateSeed = EncodeCounter(41)

// The ops a gated member runs itself (gated is that member), what each
// returns once the seed landed, and what both replicas of k then hold; hot
// marks the op that leaves k cached everywhere.
var gatedOps = []struct {
	name   string
	run    func(gated *Cluster, k uint64) ([]byte, error)
	got    []byte
	stored []byte
	hot    bool
}{
	{"promotion fetch", func(m *Cluster, k uint64) ([]byte, error) {
		_, err := m.ApplyHotSet(m.self, []uint64{k})
		return nil, err
	}, nil, gateSeed, true},
	{"get", func(m *Cluster, k uint64) ([]byte, error) { return m.LocalNode().Get(k) }, gateSeed, gateSeed, false},
	{"put", func(m *Cluster, k uint64) ([]byte, error) {
		return nil, m.LocalNode().Put(k, EncodeCounter(77))
	}, nil, EncodeCounter(77), false},
	{"fetch-and-add", func(m *Cluster, k uint64) ([]byte, error) {
		old, err := m.LocalNode().FetchAndAdd(k, 1)
		return EncodeCounter(old), err
	}, gateSeed, EncodeCounter(42), false},
}

// An op the member runs itself honours its rejoin re-sync gate exactly like
// one a peer sends it, and waits the gate out instead of failing or spinning:
// a rejoined, still seeding member must neither serve its pre-crash value nor,
// driving a refresh, install it in every cache. The gated member is the acting
// primary of k; the stand-in holds a newer k; each op parks on the gate — at
// most twice, however long the gate holds — and finishes on the post-seed
// state.
func TestResyncGateHoldsLocalOps(t *testing.T) {
	// The long hold outlasts what ten million spun rounds take (about three
	// seconds): a slow re-seed is not an error.
	for _, hold := range []time.Duration{100 * time.Millisecond, 4 * time.Second} {
		t.Run(hold.String(), func(t *testing.T) {
			if hold > time.Second && testing.Short() {
				t.Skip("long re-seed")
			}
			t.Parallel()
			for _, op := range gatedOps {
				t.Run(op.name, func(t *testing.T) {
					t.Parallel()
					cfg := Config{
						Nodes: 3, System: CCKVS, Protocol: core.SC, ReplicasPerShard: 2,
						NumKeys: 2048, CacheItems: 32, ValueSize: 8, WorkersPerNode: 2,
					}
					const rejoined, standIn = 2, 0 // ReplicasOf(k) = {2, 0}
					members := newChanMembers(t, cfg)
					gated, n := members[rejoined], members[rejoined].LocalNode()
					k := coldKeyHomedOnCfg(t, cfg, rejoined)
					ts := timestamp.TS{Clock: 9, Writer: standIn}

					// The stand-in served k while the member was away; the member is
					// back, its seed stream announced (gate armed) but not yet landed.
					members[standIn].LocalNode().kvs.Put(k, gateSeed, ts)
					gated.addSyncSource(standIn)
					parked := parks(n)

					type outcome struct {
						val []byte
						err error
					}
					done := make(chan outcome, 1)
					go func() {
						v, err := op.run(gated, k)
						done <- outcome{v, err}
					}()
					// The seed lands (a write-back: PutIfNewer), then seed-done.
					seed := func() {
						if err := n.kvs.PutIfNewer(k, gateSeed, ts); err != nil {
							t.Error(err)
						}
						gated.removeSyncSource(standIn)
					}
					// Nothing can complete while the gate is armed; the wait only
					// gives an op that ignores the gate the time to show it.
					var o outcome
					select {
					case o = <-done:
						t.Errorf("%s returned (%x, %v) while the member's re-sync gate was armed", op.name, o.val, o.err)
						seed()
					case <-time.After(hold):
						seed()
						o = <-done
					}
					if o.err != nil || !bytes.Equal(o.val, op.got) {
						t.Fatalf("%s returned (%x, %v) after the seed, want (%x, nil)", op.name, o.val, o.err, op.got)
					}
					if grew := parks(n) - parked; grew > 2 {
						t.Errorf("%s raised the retry counters by %d while the gate held, want at most 2", op.name, grew)
					}
					for _, i := range []int{rejoined, standIn} {
						if v, _, err := members[i].LocalNode().kvs.Get(k, nil); err != nil || !bytes.Equal(v, op.stored) {
							t.Errorf("replica %d stores %x (err=%v), want %x", i, v, err, op.stored)
						}
					}
					for i, m := range members {
						if v, _, err := m.LocalNode().cache.Read(k, nil); op.hot && (err != nil || !bytes.Equal(v, op.stored)) {
							t.Errorf("node %d caches %x (err=%v), want the post-seed value %x", i, v, err, op.stored)
						}
					}
				})
			}
		})
	}
}
