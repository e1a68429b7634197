package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// Atomic RMWs: the counter codec, CAS/FAA semantics on the node API and
// through the session layer (single-op and batched frames), exact-count
// linearizability under contention for both protocols, and the replicated
// chaos criterion — an acked RMW is applied exactly once across the acting
// primary's death.

func TestCounterCodec(t *testing.T) {
	if v, err := DecodeCounter(nil); err != nil || v != 0 {
		t.Fatalf("nil: (%d, %v), want (0, nil)", v, err)
	}
	for _, want := range []uint64{0, 1, 1<<63 + 7} {
		got, err := DecodeCounter(EncodeCounter(want))
		if err != nil || got != want {
			t.Fatalf("roundtrip %d: (%d, %v)", want, got, err)
		}
	}
	if _, err := DecodeCounter([]byte("short")); err == nil {
		t.Fatal("5-byte value decoded as a counter")
	}
}

// rmwTestMembers builds a member deployment with an installed hot set and a
// zeroed hot counter plus a zeroed cold key, returning both keys.
func rmwTestMembers(t *testing.T, proto core.Protocol) (members []*Cluster, hotKey, coldKey uint64) {
	t.Helper()
	cfg := Config{
		Nodes: 3, System: CCKVS, Protocol: proto,
		NumKeys: 2048, CacheItems: 32, ValueSize: 8, WorkersPerNode: 2,
	}
	members = newChanMembers(t, cfg)
	hot := DefaultHotSet(cfg.CacheItems)
	if _, err := members[0].ApplyHotSet(0, hot); err != nil {
		t.Fatal(err)
	}
	hotKey = hot[0]
	coldKey = coldKeyHomedOnCfg(t, cfg, 1)
	for _, k := range []uint64{hotKey, coldKey} {
		if err := members[0].LocalNode().Put(k, EncodeCounter(0)); err != nil {
			t.Fatal(err)
		}
		for i, m := range members {
			m := m
			waitForValue(t, fmt.Sprintf("member %d key %d", i, k), EncodeCounter(0), func() ([]byte, error) {
				return m.LocalNode().Get(k)
			})
		}
	}
	return members, hotKey, coldKey
}

func TestCASWitnessAndFAASemantics(t *testing.T) {
	for _, proto := range []core.Protocol{core.SC, core.Lin} {
		t.Run(proto.String(), func(t *testing.T) {
			members, hotKey, coldKey := rmwTestMembers(t, proto)
			for name, key := range map[string]uint64{"hot": hotKey, "cold": coldKey} {
				// Failed CAS: not applied, and the witness carries the value
				// the comparison saw — no re-read round trip needed.
				n := members[2].LocalNode() // remote origin for both keys
				w, swapped, err := n.CompareAndSwap(key, []byte("never-stored"), EncodeCounter(9))
				if err != nil || swapped {
					t.Fatalf("%s mismatched CAS: swapped=%v err=%v", name, swapped, err)
				}
				if !bytes.Equal(w, EncodeCounter(0)) {
					t.Fatalf("%s witness = %x, want the stored counter 0", name, w)
				}
				// CAS from the witness succeeds.
				w, swapped, err = n.CompareAndSwap(key, w, EncodeCounter(7))
				if err != nil || !swapped {
					t.Fatalf("%s CAS from witness: swapped=%v err=%v (witness %x)", name, swapped, err, w)
				}
				// FAA returns the pre-add value and adds server-side.
				old, err := n.FetchAndAdd(key, 3)
				if err != nil || old != 7 {
					t.Fatalf("%s FAA: (%d, %v), want (7, nil)", name, old, err)
				}
				old, err = n.FetchAndAdd(key, 1)
				if err != nil || old != 10 {
					t.Fatalf("%s second FAA: (%d, %v), want (10, nil)", name, old, err)
				}
			}
			// FAA against a non-counter value is refused, not mangled —
			// whether the origin is local or remote to the serialization
			// point (the remote decline travels back as a witness).
			junk := []byte("forty-byte-ish non counter value")
			// Let the last RMW's update land at member 0 first: a blind SC put
			// stamped before that would lose to the RMW by timestamp (the
			// documented blind-put residual) and the junk would never stick.
			waitForValue(t, "member 0 pre-junk", EncodeCounter(11), func() ([]byte, error) {
				return members[0].LocalNode().Get(hotKey)
			})
			if err := members[0].LocalNode().Put(hotKey, junk); err != nil {
				t.Fatal(err)
			}
			// SC updates land asynchronously; the refusal is only guaranteed
			// once the serialization point has seen the junk value.
			for i, m := range members {
				m := m
				waitForValue(t, fmt.Sprintf("member %d junk", i), junk, func() ([]byte, error) {
					return m.LocalNode().Get(hotKey)
				})
			}
			for i, m := range members {
				if _, err := m.LocalNode().FetchAndAdd(hotKey, 1); err == nil {
					t.Fatalf("member %d: FAA on a non-counter value succeeded", i)
				}
			}
		})
	}
}

// TestRMWContentionExactCount is the linearizability criterion: goroutines
// hammering ONE hot key with increments must land exactly all of them —
// under both protocols, for both the client-side CAS loop and the
// server-side FAA. Runs under -race in CI.
func TestRMWContentionExactCount(t *testing.T) {
	const (
		workers = 6
		perW    = 150
	)
	for _, proto := range []core.Protocol{core.SC, core.Lin} {
		for _, method := range []string{"cas", "faa"} {
			t.Run(proto.String()+"/"+method, func(t *testing.T) {
				members, hotKey, _ := rmwTestMembers(t, proto)
				var wg sync.WaitGroup
				errCh := make(chan error, workers)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						n := members[w%len(members)].LocalNode()
						if method == "faa" {
							for i := 0; i < perW; i++ {
								if _, err := n.FetchAndAdd(hotKey, 1); err != nil {
									errCh <- err
									return
								}
							}
							errCh <- nil
							return
						}
						cur, err := n.Get(hotKey)
						if err != nil {
							errCh <- err
							return
						}
						for i := 0; i < perW; i++ {
							for {
								v, err := DecodeCounter(cur)
								if err != nil {
									errCh <- err
									return
								}
								next := EncodeCounter(v + 1)
								wit, swapped, err := n.CompareAndSwap(hotKey, cur, next)
								if err != nil {
									errCh <- err
									return
								}
								if swapped {
									cur = next
									break
								}
								cur = wit // retry from the witnessed value
							}
						}
						errCh <- nil
					}(w)
				}
				wg.Wait()
				close(errCh)
				for err := range errCh {
					if err != nil {
						t.Fatal(err)
					}
				}
				// Exactly workers x perW increments, on every member. Updates
				// propagate asynchronously under SC; overshoot at any point is
				// a doubled RMW and fails immediately.
				want := uint64(workers * perW)
				for i, m := range members {
					m := m
					deadline := time.Now().Add(5 * time.Second)
					for {
						buf, err := m.LocalNode().Get(hotKey)
						if err != nil {
							t.Fatal(err)
						}
						got, err := DecodeCounter(buf)
						if err != nil {
							t.Fatal(err)
						}
						if got > want {
							t.Fatalf("member %d: counter %d exceeds %d increments (doubled RMW)", i, got, want)
						}
						if got == want {
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("member %d: counter stuck at %d, want %d (lost RMW)", i, got, want)
						}
						time.Sleep(time.Millisecond)
					}
				}
			})
		}
	}
}

// The session layer end to end: point RMW calls on frames of their own, the
// same calls routed through the auto-batcher, and batch frames carrying
// CAS/FAA alongside gets and puts with mixed statuses.
func TestClientRMWSingleOpAndAutoBatch(t *testing.T) {
	for _, auto := range []bool{false, true} {
		t.Run(map[bool]string{false: "own-frame", true: "auto-batch"}[auto], func(t *testing.T) {
			cfg := Config{Nodes: 3, System: Base, NumKeys: 1024, ValueSize: 8}
			var opts []ClientOption
			if auto {
				opts = append(opts, WithAutoBatch(8, 100*time.Microsecond))
			}
			_, cl := newChanClient(t, cfg, opts...)
			const key = 77
			if err := cl.Put(0, key, EncodeCounter(5)); err != nil {
				t.Fatal(err)
			}
			w, swapped, err := cl.CompareAndSwap(1, key, []byte("wrong"), EncodeCounter(1))
			if err != nil || swapped || !bytes.Equal(w, EncodeCounter(5)) {
				t.Fatalf("mismatched CAS: (%x, %v, %v), want witness 5, false, nil", w, swapped, err)
			}
			w, swapped, err = cl.CompareAndSwap(2, key, EncodeCounter(5), EncodeCounter(6))
			if err != nil || !swapped {
				t.Fatalf("matched CAS: (%x, %v, %v)", w, swapped, err)
			}
			old, err := cl.FetchAndAdd(0, key, 4)
			if err != nil || old != 6 {
				t.Fatalf("FAA: (%d, %v), want (6, nil)", old, err)
			}
			got, err := cl.Get(1, key)
			if err != nil || !bytes.Equal(got, EncodeCounter(10)) {
				t.Fatalf("final value %x, %v, want counter 10", got, err)
			}
		})
	}
}

func TestClientBatchRMWMixedStatuses(t *testing.T) {
	cfg := Config{Nodes: 3, System: Base, NumKeys: 1024, ValueSize: 8}
	_, cl := newChanClient(t, cfg)

	if err := cl.Put(0, 10, EncodeCounter(3)); err != nil {
		t.Fatal(err)
	}
	ops := []Op{
		{Kind: OpGet, Key: 10},
		{Kind: OpCAS, Key: 10, Expect: EncodeCounter(3), Value: EncodeCounter(4)}, // succeeds
		{Kind: OpCAS, Key: 10, Expect: EncodeCounter(3), Value: EncodeCounter(9)}, // loses: value is 4 now
		{Kind: OpFAA, Key: 10, Delta: 5},                                          // 4 -> 9, returns 4
		{Kind: OpPut, Key: 11, Value: EncodeCounter(42)},
		{Kind: OpGet, Key: cfg.NumKeys + 99},           // absent (populate covers [0, NumKeys))
		{Kind: OpFAA, Key: cfg.NumKeys + 50, Delta: 7}, // absent key: counts from 0
	}
	rs, err := cl.Batch(1, ops)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if rs[0].Err != nil || !bytes.Equal(rs[0].Value, EncodeCounter(3)) {
		t.Fatalf("op0 get: %x, %v", rs[0].Value, rs[0].Err)
	}
	if rs[1].Err != nil || !bytes.Equal(rs[1].Value, EncodeCounter(3)) {
		t.Fatalf("op1 winning CAS: %x, %v, want witness 3", rs[1].Value, rs[1].Err)
	}
	if !errors.Is(rs[2].Err, ErrCASMismatch) || !bytes.Equal(rs[2].Value, EncodeCounter(4)) {
		t.Fatalf("op2 losing CAS: %x, %v, want witness 4 with ErrCASMismatch", rs[2].Value, rs[2].Err)
	}
	if rs[3].Err != nil || !bytes.Equal(rs[3].Value, EncodeCounter(4)) {
		t.Fatalf("op3 FAA: %x, %v, want old value 4", rs[3].Value, rs[3].Err)
	}
	if rs[4].Err != nil {
		t.Fatalf("op4 put: %v", rs[4].Err)
	}
	if !errors.Is(rs[5].Err, store.ErrNotFound) {
		t.Fatalf("op5 absent get: %v, want ErrNotFound", rs[5].Err)
	}
	if rs[6].Err != nil || !bytes.Equal(rs[6].Value, EncodeCounter(0)) {
		t.Fatalf("op6 FAA on absent key: %x, %v, want old value 0", rs[6].Value, rs[6].Err)
	}
	if v, err := cl.Get(2, 10); err != nil || !bytes.Equal(v, EncodeCounter(9)) {
		t.Fatalf("final counter: %x, %v, want 9", v, err)
	}
}

// TestChaosReplicatedKillPrimaryMidRMW is the replicated RMW chaos
// criterion: a storm of CAS-loop and FAA increments against a cold key homed
// at the doomed node, the acting primary SIGKILL-equivalent mid-storm. An
// increment whose outcome the origin could not learn surfaces as
// ErrRMWUnknown and is abandoned, never retried — so the final counter must
// land in [acked, acked+unknown]: below is a LOST acked RMW, above a
// DOUBLED one. Service must resume definitively via the promoted backup.
func TestChaosReplicatedKillPrimaryMidRMW(t *testing.T) {
	for _, proto := range []core.Protocol{core.SC, core.Lin} {
		t.Run(proto.String(), func(t *testing.T) {
			const doomed = 2
			cfg := Config{
				Nodes: 3, System: CCKVS, Protocol: proto,
				NumKeys: 2048, CacheItems: 32, ValueSize: 8, WorkersPerNode: 2,
				ReplicasPerShard: 2,
				PingInterval:     5 * time.Millisecond, PingTimeout: chaosSuspicion(60 * time.Millisecond),
			}
			members := newChanMembers(t, cfg)
			key := coldKeyHomedOnCfg(t, cfg, doomed)
			survivors := []*Cluster{members[0], members[1]}
			if err := members[0].LocalNode().Put(key, EncodeCounter(0)); err != nil {
				t.Fatal(err)
			}

			var (
				acked   atomic.Uint64
				unknown atomic.Uint64
				stop    = make(chan struct{})
				wg      sync.WaitGroup
			)
			errCh := make(chan error, 4)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					n := survivors[w%2].LocalNode()
					useCAS := w >= 2
					var cur []byte
					for {
						select {
						case <-stop:
							errCh <- nil
							return
						default:
						}
						if !useCAS {
							_, err := n.FetchAndAdd(key, 1)
							switch {
							case err == nil:
								acked.Add(1)
							case errors.Is(err, ErrRMWUnknown):
								unknown.Add(1) // may or may not have landed; never retried
							default:
								errCh <- fmt.Errorf("faa worker %d: %w", w, err)
								return
							}
							continue
						}
						if cur == nil {
							v, err := n.Get(key)
							if err != nil {
								errCh <- fmt.Errorf("cas worker %d read: %w", w, err)
								return
							}
							cur = v
						}
						v, err := DecodeCounter(cur)
						if err != nil {
							errCh <- fmt.Errorf("cas worker %d: %w", w, err)
							return
						}
						witness, swapped, err := n.CompareAndSwap(key, cur, EncodeCounter(v+1))
						switch {
						case errors.Is(err, ErrRMWUnknown):
							unknown.Add(1)
							cur = nil // abandon the attempt, re-read fresh
						case err != nil:
							errCh <- fmt.Errorf("cas worker %d: %w", w, err)
							return
						case swapped:
							acked.Add(1)
							cur = EncodeCounter(v + 1)
						default:
							cur = witness
						}
					}
				}(w)
			}

			time.Sleep(50 * time.Millisecond)
			members[doomed].Kill() // the acting primary dies mid-storm
			waitViewDown(t, survivors, doomed, 5*time.Second)
			time.Sleep(100 * time.Millisecond) // RMWs through the promoted backup
			close(stop)
			wg.Wait()
			close(errCh)
			for err := range errCh {
				if err != nil {
					t.Fatal(err)
				}
			}

			// Post-kill the outcome must be definite again: the promoted
			// backup serializes, no unknown window remains.
			if _, err := survivors[0].LocalNode().FetchAndAdd(key, 1); err != nil {
				t.Fatalf("post-kill FAA via promoted backup: %v", err)
			}
			acked.Add(1)

			lo, hi := acked.Load(), acked.Load()+unknown.Load()
			if lo == 0 {
				t.Fatal("no RMW was ever acked; the storm never ran")
			}
			for i, m := range survivors {
				buf, err := m.LocalNode().Get(key)
				if err != nil {
					t.Fatalf("survivor %d read: %v", i, err)
				}
				got, err := DecodeCounter(buf)
				if err != nil {
					t.Fatalf("survivor %d: %v", i, err)
				}
				if got < lo || got > hi {
					t.Fatalf("survivor %d: counter %d outside [acked=%d, acked+unknown=%d] — lost or doubled RMW", i, got, lo, hi)
				}
			}
		})
	}
}

// The construction surface: each functional option configures what it names,
// and the optioned client is live.
func TestClientOptions(t *testing.T) {
	cfg := Config{Nodes: 2, System: Base, NumKeys: 256}
	_, cl := newChanClient(t, cfg,
		WithPipelineWindow(7), WithAutoBatch(16, time.Millisecond), WithTimeout(3*time.Second))
	if got := cap(cl.winCh[0]); got != 7 {
		t.Fatalf("pipeline window %d, want 7", got)
	}
	if len(cl.ab) != cfg.Nodes {
		t.Fatalf("auto-batcher not armed: %d batchers, want %d", len(cl.ab), cfg.Nodes)
	}
	if cl.timeout != 3*time.Second {
		t.Fatalf("timeout %v", cl.timeout)
	}
	if err := cl.Put(0, 9, []byte("via-options")); err != nil {
		t.Fatal(err)
	}
	if v, err := cl.Get(1, 9); err != nil || string(v) != "via-options" {
		t.Fatalf("get through optioned client: %q %v", v, err)
	}
}

// Every typed client error must be matchable with errors.Is, including
// through wrapping.
func TestTypedErrorsSupportErrorsIs(t *testing.T) {
	if !errors.Is(ErrHomeDown, ErrNodeDown) {
		t.Fatal("ErrHomeDown must wrap ErrNodeDown")
	}
	wrapped := fmt.Errorf("context: %w", ErrCASMismatch)
	if !errors.Is(wrapped, ErrCASMismatch) {
		t.Fatal("wrapped ErrCASMismatch not matchable")
	}
	if !errors.Is(fmt.Errorf("op: %w", ErrRMWUnknown), ErrRMWUnknown) {
		t.Fatal("wrapped ErrRMWUnknown not matchable")
	}
	for _, err := range []error{ErrNodeDown, ErrHomeDown, ErrClientClosed, ErrSessionTimeout, ErrNodeUnreachable, ErrCASMismatch, ErrRMWUnknown} {
		if err.Error() == "" {
			t.Fatal("typed error with empty message")
		}
	}
}
