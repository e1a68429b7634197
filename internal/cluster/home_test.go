package cluster

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/timestamp"
)

// fanRig is node 0 of four with no cluster behind it — no transport, no
// shard, no cache: its request lanes hand every call to a script that answers
// it on the spot, so a test states exactly what each peer says, call by call.
type fanRig struct {
	n      *Node
	mu     sync.Mutex
	script map[fanKey][]rpcResult // consumed front to back; a call past the script's end fails the test
	issued map[fanKey]int
}

// fanKey names a call by target and key.
type fanKey struct {
	node int
	key  uint64
}

func newFanRig(t *testing.T, script map[fanKey][]rpcResult, down ...uint8) *fanRig {
	t.Helper()
	const nodes = 4
	r := &fanRig{script: script, issued: map[fanKey]int{}}
	c := &Cluster{cfg: Config{Nodes: nodes, WorkersPerNode: 1}}
	live := core.FullNodeSet(nodes)
	for _, d := range down {
		live = live.Without(d)
	}
	c.view.Store(&View{live: live, n: nodes})
	r.n = &Node{cluster: c}
	wk := &worker{node: r.n}
	wk.rpc = newRPCClient(wk)
	bounds := laneBounds[wireReq]{maxMsgs: 16, maxBytes: 4096, size: wireReq.encodedSize}
	wk.pipe = newPeerLanes(0, nodes, 16, bounds, func(peer uint8) func([]wireReq, int) {
		return func(batch []wireReq, _ int) {
			for _, q := range batch {
				at := fanKey{int(peer), q.key}
				r.mu.Lock()
				r.issued[at]++
				var res rpcResult
				if len(r.script[at]) == 0 {
					t.Errorf("call %+v issued past the end of its script", at)
				} else {
					res, r.script[at] = r.script[at][0], r.script[at][1:]
				}
				r.mu.Unlock()
				wk.rpc.complete(q.id, res)
			}
		}
	})
	r.n.workers = []*worker{wk}
	t.Cleanup(wk.pipe.close)
	return r
}

func TestFanOut(t *testing.T) {
	ok, retry, notFound := rpcResult{}, rpcResult{status: rpcStatusRetry}, rpcResult{status: rpcStatusNotFound}
	boom := errors.New("boom")
	a, b, c := fanKey{1, 10}, fanKey{2, 20}, fanKey{3, 30}
	for _, tc := range []struct {
		name    string
		down    []uint8
		dead    bool
		calls   []fanKey
		script  map[fanKey][]rpcResult
		err     error
		issued  map[fanKey]int
		settled map[fanKey][]byte // the statuses settle saw, per call, in order
	}{
		{name: "all OK", calls: []fanKey{a, b, c},
			script:  map[fanKey][]rpcResult{a: {ok}, b: {ok}, c: {ok}},
			issued:  map[fanKey]int{a: 1, b: 1, c: 1},
			settled: map[fanKey][]byte{a: {rpcStatusOK}, b: {rpcStatusOK}, c: {rpcStatusOK}}},
		{name: "one Retry, then OK: one more round, of that call alone", calls: []fanKey{a, b, c},
			script:  map[fanKey][]rpcResult{a: {ok}, b: {retry, ok}, c: {ok}},
			issued:  map[fanKey]int{a: 1, b: 2, c: 1},
			settled: map[fanKey][]byte{a: {rpcStatusOK}, b: {rpcStatusRetry, rpcStatusOK}, c: {rpcStatusOK}}},
		{name: "NotFound is settle's to judge", calls: []fanKey{a, b},
			script:  map[fanKey][]rpcResult{a: {notFound}, b: {ok}},
			issued:  map[fanKey]int{a: 1, b: 1},
			settled: map[fanKey][]byte{a: {rpcStatusNotFound}, b: {rpcStatusOK}}},
		{name: "a failure from a peer that left the view is excused where the dead are", down: []uint8{3}, dead: deadExcused, calls: []fanKey{a, c},
			script:  map[fanKey][]rpcResult{a: {ok}, c: {{err: boom}}},
			issued:  map[fanKey]int{a: 1, c: 1},
			settled: map[fanKey][]byte{a: {rpcStatusOK}}},
		{name: "and an error where every peer is required", down: []uint8{3}, calls: []fanKey{a, c},
			script: map[fanKey][]rpcResult{a: {ok}, c: {{err: boom}}}, err: boom,
			issued:  map[fanKey]int{a: 1, c: 1},
			settled: map[fanKey][]byte{a: {rpcStatusOK}}},
		{name: "a failure from a live peer is returned, after every answer was awaited", dead: deadExcused, calls: []fanKey{a, b, c},
			script: map[fanKey][]rpcResult{a: {{err: boom}}, b: {retry}, c: {ok}}, err: boom,
			issued:  map[fanKey]int{a: 1, b: 1, c: 1}, // and no second round for b
			settled: map[fanKey][]byte{b: {rpcStatusRetry}, c: {rpcStatusOK}}},
		{name: "no calls", issued: map[fanKey]int{}, settled: map[fanKey][]byte{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newFanRig(t, tc.script, tc.down...)
			calls := make([]homeCall, len(tc.calls))
			for i, at := range tc.calls {
				calls[i] = homeCall{at.node, wireReq{op: rpcOpDemoteCollect, key: at.key}}
			}
			settled := map[fanKey][]byte{}
			err := r.n.fanOut(calls, tc.dead, func(c homeCall, res rpcResult) (bool, error) {
				at := fanKey{c.node, c.req.key}
				settled[at] = append(settled[at], res.status)
				return res.status == rpcStatusRetry, nil
			})
			if err != tc.err {
				t.Errorf("fanOut returned %v, want %v", err, tc.err)
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			if !reflect.DeepEqual(r.issued, tc.issued) {
				t.Errorf("issued %v, want %v", r.issued, tc.issued)
			}
			if !reflect.DeepEqual(settled, tc.settled) {
				t.Errorf("settle saw %v, want %v", settled, tc.settled)
			}
			if left := len(r.n.workers[0].rpc.pend); left != 0 {
				t.Errorf("%d calls still pending", left)
			}
		})
	}
}

// A "not yet" from this node itself crosses no wire: the fan-out parks on what
// refused the call in place — here the re-sync gate — and asks again once,
// when the gate opens, however long it stays armed; a Close ends the wait.
func TestFanOutInPlaceNotYetWaits(t *testing.T) {
	r := newFanRig(t, nil)
	c := r.n.cluster
	c.cfg.ReplicasPerShard = 2 // the gate is armed only on a replicated deployment
	c.stop, c.syncSources, c.nodes = make(chan struct{}), map[uint8]struct{}{}, []*Node{r.n}
	r.n.kvs = store.NewPartitioned(1, 16)
	gated := []homeCall{{int(r.n.id), wireReq{op: rpcOpPromoteFetch, key: 7}}}

	c.addSyncSource(1) // homeFetch answers Retry before it touches the shard
	var answers []rpcResult
	var calls atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- r.n.fanOut(gated, peersRequired, func(_ homeCall, res rpcResult) (bool, error) {
			answers = append(answers, res)
			calls.Add(1)
			return res.status == rpcStatusRetry, nil
		})
	}()
	// The gate holds until the fan-out parked on it, or asked again — the
	// failure this test exists for.
	until(func() bool { return r.n.FrozenRetries.Load() == 1 || calls.Load() > 1 })
	c.removeSyncSource(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 || !answers[0].local || answers[0].status != rpcStatusRetry || answers[1].status != rpcStatusNotFound {
		t.Fatalf("settle saw %+v, want one in-place Retry while the gate was armed, then the fetch's NotFound", answers)
	}

	close(c.stop)
	c.addSyncSource(1)
	err := r.n.fanOut(gated, peersRequired, func(homeCall, rpcResult) (bool, error) { return true, nil })
	if !errors.Is(err, ErrPipelineClosed) {
		t.Errorf("fanOut on a closed cluster with the gate armed: %v, want ErrPipelineClosed", err)
	}
}

// An RMW run in place on a pinned key parks on the pin — once, however long
// the pin holds — and each of the four sites that delete a pin releases it:
// the pinned RMW's own commit, its clear, its origin leaving the view and
// this member's re-seed. A Close releases it too, failed.
func TestPinnedRMWParksUntilReleased(t *testing.T) {
	cfg := Config{Nodes: 3, System: Base, ReplicasPerShard: 2, NumKeys: 256, ValueSize: 8, WorkersPerNode: 1}
	pin := rmwPin{origin: 1, ts: timestamp.TS{Clock: 1 << 20}}
	for _, tc := range []struct {
		name    string
		release func(c *Cluster, n *Node, key uint64)
		err     error
	}{
		{"commit", func(_ *Cluster, n *Node, key uint64) { n.homeCommit(key, EncodeCounter(5), pin.ts) }, nil},
		{"clear", func(_ *Cluster, n *Node, key uint64) { n.homeClearPin(pin.origin, key, pin.ts) }, nil},
		{"origin down", func(c *Cluster, _ *Node, _ uint64) { c.PeerDown(pin.origin, errors.New("test: down")) }, nil},
		{"re-seed", func(c *Cluster, _ *Node, _ uint64) { c.addSyncSource(2); c.removeSyncSource(2) }, nil},
		{"close", func(c *Cluster, _ *Node, _ uint64) { c.Close() }, ErrPipelineClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, cfg)
			n := c.Node(0)
			key := coldKeyHomedOnCfg(t, cfg, 0)
			wk := n.workerFor(key)
			wk.homeMu.Lock()
			wk.rmwPins[key] = pin
			wk.homeMu.Unlock()

			done := make(chan error, 1)
			go func() {
				_, err := n.FetchAndAdd(key, 1)
				done <- err
			}()
			until(func() bool { return n.WritePendingRetries.Load() >= 1 })
			// The pin holds across a thousand scheduler turns: a parked RMW sleeps
			// through them, one that polls would count each.
			for range 1000 {
				runtime.Gosched()
			}
			tc.release(c, n, key)
			if err := <-done; !errors.Is(err, tc.err) {
				t.Fatalf("FetchAndAdd returned %v, want %v", err, tc.err)
			}
			if parks := n.WritePendingRetries.Load(); parks != 1 {
				t.Errorf("the pinned FetchAndAdd parked %d times, want once", parks)
			}
		})
	}
}
