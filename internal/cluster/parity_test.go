package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/timestamp"
)

// Path parity: the op executor is the single serving path, so the same op
// list must produce the same per-op values and error classes whichever door
// it comes through — Node.Batch, the one-op Node calls, Client.Batch, the
// single-op Client calls — and whichever node it arrives at, under both
// protocols, with and without shard replication, before and after a member
// dies. The origin axis is what holds the home-shard steps (home.go) to one
// behaviour on both sides of the wire: every cold put, CAS and FAA runs once
// with the origin being its serialization point (the step runs in place) and
// twice with a peer being it (the step serves the peer's request).
//
// Every (origin, path) pair gets a fresh, identically populated deployment and
// issues its ops at the origin. Within a phase every op touches its own key: a batch scans
// all its ops before it collects any, so ops of one batch on different keys
// are concurrent by contract and only independent ops can be compared
// against a sequential path (ops on one key keep their order —
// TestLinBatchPerKeyOrder). Written keys are read back by the following
// phase; under SC a hot write returns before its update reached the other
// replicas, so a phase first waits for the replicas of the hot keys it reads
// to agree.

// parityOutcome is what is compared across paths: the value and the
// errors.Is class of the error.
type parityOutcome struct {
	val   []byte
	class string
}

func parityClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, store.ErrNotFound):
		return "not-found"
	case errors.Is(err, ErrHomeDown):
		return "home-down"
	case errors.Is(err, ErrCASMismatch):
		return "cas-mismatch"
	}
	return "other: " + err.Error()
}

// parityPath issues one list of ops at node n (the client paths by its id)
// and reports their outcomes.
type parityPath func(n *Node, cl *Client, ops []Op) ([]parityOutcome, error)

// paritySingle adapts the one-op calls of a Node or a Client (they differ
// only in the Client's leading node argument).
func paritySingle(get func(uint64) ([]byte, error), put func(uint64, []byte) error,
	cas func(uint64, []byte, []byte) ([]byte, bool, error), faa func(uint64, uint64) (uint64, error), ops []Op) []parityOutcome {
	out := make([]parityOutcome, len(ops))
	for i, op := range ops {
		var v []byte
		var err error
		switch op.Kind {
		case OpGet:
			v, err = get(op.Key)
		case OpPut:
			err = put(op.Key, op.Value)
		case OpCAS:
			var swapped bool
			if v, swapped, err = cas(op.Key, op.Expect, op.Value); err == nil && !swapped {
				err = ErrCASMismatch
			}
		case OpFAA:
			var old uint64
			if old, err = faa(op.Key, op.Delta); err == nil {
				v = EncodeCounter(old)
			}
		}
		out[i] = parityOutcome{val: v, class: parityClass(err)}
	}
	return out
}

func parityResults(rs []Result) []parityOutcome {
	out := make([]parityOutcome, len(rs))
	for i := range rs {
		out[i] = parityOutcome{val: rs[i].ValueCopy(), class: parityClass(rs[i].Err)}
		rs[i].Release()
	}
	return out
}

var parityPaths = []struct {
	name string
	run  parityPath
}{
	{"Node.Batch", func(n *Node, _ *Client, ops []Op) ([]parityOutcome, error) {
		rs := make([]Result, len(ops))
		n.Batch(ops, rs)
		return parityResults(rs), nil
	}},
	{"Node single-op", func(n *Node, _ *Client, ops []Op) ([]parityOutcome, error) {
		return paritySingle(n.Get, n.Put, n.CompareAndSwap, n.FetchAndAdd, ops), nil
	}},
	{"Client.Batch", func(n *Node, cl *Client, ops []Op) ([]parityOutcome, error) {
		rs, err := cl.Batch(int(n.id), ops)
		if err != nil {
			return nil, fmt.Errorf("Client.Batch frame: %w", err)
		}
		return parityResults(rs), nil
	}},
	{"Client single-op", func(n *Node, cl *Client, ops []Op) ([]parityOutcome, error) {
		at := int(n.id)
		return paritySingle(
			func(k uint64) ([]byte, error) { return cl.Get(at, k) },
			func(k uint64, v []byte) error { return cl.Put(at, k, v) },
			func(k uint64, e, v []byte) ([]byte, bool, error) { return cl.CompareAndSwap(at, k, e, v) },
			func(k, d uint64) (uint64, error) { return cl.FetchAndAdd(at, k, d) }, ops), nil
	}},
}

func TestPathParity(t *testing.T) {
	const doomed = 2
	for _, proto := range []core.Protocol{core.SC, core.Lin} {
		for _, replicas := range []int{1, 2} {
			t.Run(fmt.Sprintf("%v/replicas=%d", proto, replicas), func(t *testing.T) {
				cfg := Config{
					Nodes: 3, System: CCKVS, Protocol: proto, ReplicasPerShard: replicas,
					NumKeys: 2048, CacheItems: 32, ValueSize: 8, WorkersPerNode: 2,
				}
				// populated(k) is what Populate stored under k.
				populated := func(k uint64) []byte {
					v := make([]byte, cfg.ValueSize)
					for j := range v {
						v[j] = byte(k) ^ byte(j)
					}
					return v
				}
				// cold(home, i) is the i-th cold key homed on home; absent(home)
				// a key beyond the populated range homed there.
				pick := func(from uint64, home, i int) uint64 {
					for k := from; ; k++ {
						if HomeOf(k, cfg.Nodes) == home {
							if i == 0 {
								return k
							}
							i--
						}
					}
				}
				cold := func(home, i int) uint64 { return pick(cfg.NumKeys/2, home, i) }
				hotOn := func(home, i int) uint64 { return pick(0, home, i) } // hot set = keys [0, CacheItems)
				absent := func(home int) uint64 { return pick(cfg.NumKeys, home, 0) }
				val := func(b byte) []byte { return bytes.Repeat([]byte{b}, cfg.ValueSize) }

				phases := []struct {
					name string
					kill bool // kill the doomed member before this phase
					ops  []Op
				}{
					{name: "mixed", ops: []Op{
						{Key: hotOn(2, 1)},
						{Kind: OpPut, Key: hotOn(2, 0), Value: val(0xA1)},
						{Key: cold(0, 0)},
						{Kind: OpPut, Key: cold(0, 1), Value: val(0xA2)},
						{Key: cold(1, 0)},
						{Kind: OpPut, Key: cold(1, 1), Value: val(0xA3)},
						{Key: absent(0)},
						{Key: absent(1)},
						{Kind: OpCAS, Key: cold(1, 2), Expect: populated(cold(1, 2)), Value: val(0xA4)},
						{Kind: OpCAS, Key: cold(1, 3), Expect: val(0xEE), Value: val(0xA5)},
						{Kind: OpFAA, Key: cold(1, 4), Delta: 5},
						{Kind: OpFAA, Key: cold(0, 2), Delta: 1},
						// Hot RMWs: node 0 is the coordinator of its own hot keys
						// (applied locally, so readable back at once), node 1 of its.
						{Kind: OpCAS, Key: hotOn(0, 0), Expect: populated(hotOn(0, 0)), Value: val(0xA6)},
						{Kind: OpCAS, Key: hotOn(0, 1), Expect: val(0xEE), Value: val(0xA7)},
						{Kind: OpFAA, Key: hotOn(0, 2), Delta: 7},
						{Kind: OpCAS, Key: hotOn(1, 0), Expect: populated(hotOn(1, 0)), Value: val(0xA8)},
						{Kind: OpFAA, Key: hotOn(1, 1), Delta: 9},
					}},
					{name: "read-back", ops: []Op{
						{Key: hotOn(2, 0)}, {Key: cold(0, 1)}, {Key: cold(1, 1)}, {Key: cold(1, 2)}, {Key: cold(1, 3)},
						{Key: cold(1, 4)}, {Key: cold(0, 2)}, {Key: hotOn(0, 0)}, {Key: hotOn(0, 1)}, {Key: hotOn(0, 2)},
					}},
					{name: "dead-homed", kill: true, ops: []Op{
						{Key: cold(doomed, 0)},
						{Kind: OpPut, Key: cold(doomed, 1), Value: val(0xB1)},
						{Kind: OpCAS, Key: cold(doomed, 2), Expect: populated(cold(doomed, 2)), Value: val(0xB2)},
						{Kind: OpFAA, Key: cold(doomed, 3), Delta: 3},
						{Key: absent(doomed)},
						// Hot keys keep serving whoever their home was.
						{Key: hotOn(doomed, 1)},
						{Kind: OpPut, Key: hotOn(doomed, 2), Value: val(0xB3)},
					}},
					{name: "dead-homed read-back", ops: []Op{
						{Key: cold(doomed, 1)}, {Key: cold(doomed, 2)}, {Key: cold(doomed, 3)}, {Key: hotOn(doomed, 2)},
					}},
				}

				// converged waits until every live member caches the same value
				// for each hot key ops reads.
				converged := func(members []*Cluster, ops []Op) {
					for _, op := range ops {
						if op.Kind != OpGet || op.Key >= uint64(cfg.CacheItems) {
							continue
						}
						until(func() bool {
							var first []byte
							for i, m := range members {
								v, _, err := m.LocalNode().cache.Read(op.Key, nil)
								if err != nil || (i > 0 && !bytes.Equal(v, first)) {
									return false
								}
								first = v
							}
							return true
						})
					}
				}

				var want [][]parityOutcome // the first deployment's outcomes, per phase
				for origin := 0; origin < cfg.Nodes; origin++ {
					for _, path := range parityPaths {
						members, cl := newChanClient(t, cfg)
						if _, err := members[0].ApplyHotSet(0, DefaultHotSet(cfg.CacheItems)); err != nil {
							t.Fatal(err)
						}
						n, live := members[origin].LocalNode(), members
						for phi, ph := range phases {
							if ph.kill {
								if origin == doomed {
									break // the doomed member issues nothing from the grave
								}
								// No prober: twelve deployments per config under -race
								// would each be one starved pong away from a false
								// suspicion. The chaos tests own detection; here the
								// survivors are told.
								members[doomed].Kill()
								live = members[:doomed]
								live[0].PeerDown(doomed, errors.New("test: killed"))
								waitViewDown(t, live, doomed, 10*time.Second)
							}
							converged(live, ph.ops)
							got, err := path.run(n, cl, ph.ops)
							if err != nil {
								t.Fatal(err)
							}
							if len(want) == phi {
								want = append(want, got)
								continue
							}
							for i := range got {
								if got[i].class != want[phi][i].class || !bytes.Equal(got[i].val, want[phi][i].val) {
									t.Errorf("%s at node %d, phase %q, op %d (%+v): got (%x, %s), %s at node 0 got (%x, %s)",
										path.name, origin, ph.name, i, ph.ops[i], got[i].val, got[i].class,
										parityPaths[0].name, want[phi][i].val, want[phi][i].class)
								}
							}
						}
					}
				}

				// The shared outcome is also the right one (spot checks; the
				// per-feature tests own the details).
				expect := func(phase, op int, class string, v []byte) {
					t.Helper()
					if o := want[phase][op]; o.class != class || (v != nil && !bytes.Equal(o.val, v)) {
						t.Errorf("phase %q op %d: (%x, %s), want (%x, %s)", phases[phase].name, op, o.val, o.class, v, class)
					}
				}
				expect(0, 0, "ok", populated(hotOn(2, 1)))
				expect(0, 6, "not-found", nil)
				expect(0, 7, "not-found", nil)
				expect(0, 9, "cas-mismatch", populated(cold(1, 3)))
				expect(0, 10, "ok", populated(cold(1, 4)))
				expect(0, 13, "cas-mismatch", populated(hotOn(0, 1)))
				expect(0, 16, "ok", populated(hotOn(1, 1)))
				expect(1, 0, "ok", val(0xA1))
				expect(1, 2, "ok", val(0xA3))
				expect(1, 3, "ok", val(0xA4))
				expect(1, 4, "ok", populated(cold(1, 3)))
				expect(1, 7, "ok", val(0xA6))
				// Dead-homed cold keys: ErrHomeDown unreplicated, served by the
				// promoted backup under replication.
				deadClass, deadPut := "home-down", []byte(nil)
				if replicas > 1 {
					deadClass, deadPut = "ok", val(0xB1)
				}
				for op := 0; op < 4; op++ {
					expect(2, op, deadClass, nil)
				}
				expect(2, 5, "ok", populated(hotOn(doomed, 1)))
				expect(2, 6, "ok", nil)
				expect(3, 0, deadClass, deadPut)
				expect(3, 3, "ok", val(0xB3))

				// The three refusals that prove an op did not run — the key went
				// hot since the sender's probe, the key is RMW-pinned, the node is
				// re-syncing — are answers of the same step whether the request
				// came off the wire or was run in place (startAt at its own node).
				members := newChanMembers(t, cfg)
				if _, err := members[0].ApplyHotSet(0, DefaultHotSet(cfg.CacheItems)); err != nil {
					t.Fatal(err)
				}
				home := members[0].LocalNode()
				hotKey, pinned, plain := hotOn(0, 3), cold(0, 5), cold(0, 6)
				for _, row := range []struct {
					name    string
					arrange func() (undo func())
					reqs    []wireReq
				}{
					{"key went hot", func() func() { return func() {} }, []wireReq{
						{op: rpcOpPut, key: hotKey, value: val(1)},
						{op: rpcOpPutStamp, key: hotKey},
						{op: rpcOpPutCommit, key: hotKey, ts: timestamp.TS{Clock: 99}, value: val(1)},
					}},
					{"key pinned", func() func() {
						wk := home.workerFor(pinned)
						wk.homeMu.Lock()
						wk.rmwPins[pinned] = rmwPin{origin: 1, ts: timestamp.TS{Clock: 7, Writer: 0}}
						wk.homeMu.Unlock()
						return func() { home.homeClearPin(1, pinned, timestamp.TS{Clock: 7, Writer: 0}) }
					}, []wireReq{
						{op: rpcOpCAS, key: pinned, expect: populated(pinned), value: val(2)},
						{op: rpcOpFAA, key: pinned, delta: 1},
					}},
					// A seed-begin from node 2 arms the gate — on a replicated
					// deployment only, which is also the only one that stamps
					// instead of sending op 1.
					{"node syncing", func() func() {
						members[0].addSyncSource(2)
						return func() { members[0].removeSyncSource(2) }
					}, []wireReq{
						{op: rpcOpPutStamp, key: plain},
						{op: rpcOpPromoteFetch, key: plain},
						{op: rpcOpCAS, key: plain, expect: populated(plain), value: val(3)},
						{op: rpcOpFAA, key: plain, delta: 1},
					}},
				} {
					if row.name == "node syncing" && replicas == 1 {
						continue // unreplicated: addSyncSource would arm nothing
					}
					undo := row.arrange()
					for _, q := range row.reqs {
						inPlace, err1 := awaitRPC(home.startAt(0, q))
						served, err2 := awaitRPC(members[1].LocalNode().startAt(0, q))
						if err1 != nil || err2 != nil || !inPlace.local || served.local ||
							inPlace.status != rpcStatusRetry || served.status != rpcStatusRetry {
							t.Errorf("%s, op %d: in place (status %d, local %v, err %v), served (status %d, local %v, err %v); want Retry from both",
								row.name, q.op, inPlace.status, inPlace.local, err1, served.status, served.local, err2)
						}
					}
					undo()
				}
				// Nothing ran: the three keys hold what Populate stored.
				for _, k := range []uint64{hotKey, pinned, plain} {
					if v, err := home.Get(k); err != nil || !bytes.Equal(v, populated(k)) {
						t.Errorf("key %d reads (%x, %v) after refused requests, want the populated value", k, v, err)
					}
				}
			})
		}
	}
}

// The benchmark's own correctness rule as a unit test, on all four surfaces:
// eight writers, each issuing frames with repeated keys at a random node, every
// value naming its writer and that writer's put sequence. A get of a key that
// returns its own writer's stamp must return exactly the writer's latest
// preceding put of that key — neither an older one nor a later put of the
// same frame — whether that put precedes it in the same frame (exec.go I2,
// which a put joining an earlier one's round must keep) or returned in an
// earlier frame issued at ANY node: a put that has
// returned is visible to every later get, wherever it lands (a concurrent
// foreign writer's value is legal). And once everyone is done every replica of
// every key holds some writer's LAST acknowledged put.
//
// The cross-node half is the real-time order mcheck checks as a state
// invariant; before core.Line.Invalidate learned to yield it failed here in
// most runs (a replica in the Write state kept serving the pre-write value
// after acking a lower-stamped write that had since returned elsewhere).
func TestLinBatchPerKeyOrder(t *testing.T) {
	cfg := Config{
		Nodes: 3, System: CCKVS, Protocol: core.Lin,
		NumKeys: 2048, CacheItems: 32, ValueSize: 8, WorkersPerNode: 2,
	}
	const writers, frames, frameOps = 8, 60, 16
	// Four hot keys take most of the traffic; two cold ones (homed on
	// different nodes) hold the rule on the pipeline-ordered path.
	keys := []uint64{0, 1, 2, 3, coldKeyHomedOnCfg(t, cfg, 0), coldKeyHomedOnCfg(t, cfg, 1)}
	stamp := func(w int, seq uint64) []byte { return EncodeCounter(uint64(w+1)<<48 | seq) }
	parse := func(v []byte) (w int, seq uint64, ok bool) {
		x, err := DecodeCounter(v)
		if err != nil || x>>48 == 0 || x>>48 > writers || x&(1<<48-1) > frames*frameOps {
			return 0, 0, false // the populated value, or garbage
		}
		return int(x>>48) - 1, x & (1<<48 - 1), true
	}
	for _, path := range parityPaths {
		t.Run(path.name, func(t *testing.T) {
			members, cl := newChanClient(t, cfg)
			if _, err := members[0].ApplyHotSet(0, DefaultHotSet(cfg.CacheItems)); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			fail := make(chan error, writers)
			lastPut := make([]map[uint64]uint64, writers) // per writer: key -> seq of its last put
			for w := 0; w < writers; w++ {
				lastPut[w] = map[uint64]uint64{}
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
					var seq uint64
					ops := make([]Op, frameOps)
					floor := make([]uint64, frameOps) // per get: the writer's latest preceding put of its key
					for f := 0; f < frames; f++ {
						for i := range ops {
							k := keys[rng.Intn(len(keys))]
							if rng.Intn(4) == 0 {
								k = keys[0] // long same-key chains within a frame
							}
							if rng.Intn(2) == 0 {
								seq++
								lastPut[w][k] = seq
								ops[i] = Op{Kind: OpPut, Key: k, Value: stamp(w, seq)}
							} else {
								ops[i], floor[i] = Op{Key: k}, lastPut[w][k]
							}
						}
						got, err := path.run(members[rng.Intn(cfg.Nodes)].LocalNode(), cl, ops)
						if err != nil {
							fail <- err
							return
						}
						for i, o := range got {
							if o.class != "ok" {
								fail <- fmt.Errorf("writer %d frame %d op %d (%+v): %s", w, f, i, ops[i], o.class)
								return
							}
							if ops[i].Kind != OpGet {
								continue
							}
							// Of its own writer's puts a get sees exactly the
							// latest preceding one: a later seq of the same
							// frame is a read from the future.
							gw, gseq, stamped := parse(o.val)
							if (floor[i] != 0 && !stamped) || (stamped && gw == w && gseq != floor[i]) {
								fail <- fmt.Errorf("writer %d frame %d op %d: get of key %d returned %x, the writer's latest put of it being seq %d",
									w, f, i, ops[i].Key, o.val, floor[i])
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(fail)
			for err := range fail {
				t.Fatal(err)
			}
			for _, k := range keys {
				var first []byte
				for i, m := range members {
					v, err := m.LocalNode().Get(k)
					if err != nil {
						t.Fatalf("key %d at node %d: %v", k, i, err)
					}
					if i == 0 {
						first = v
					} else if !bytes.Equal(v, first) {
						t.Fatalf("key %d did not converge: %x at node 0, %x at node %d", k, first, v, i)
					}
				}
				w, seq, stamped := parse(first)
				if !stamped || seq != lastPut[w][k] {
					t.Fatalf("key %d holds %x: not the last put (seq %d) of the writer it names", k, first, lastPut[w][k])
				}
			}
		})
	}
}
