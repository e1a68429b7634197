package cluster

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/timestamp"
)

// The reply side of a lane burst over real sockets: every response the lane
// finishes is staged on the client's connection and leaves in one write,
// leased values reaching the transport as segments, and the leases come back
// whether or not anyone was left to write to. Deterministic: the lane is
// parked while the frames queue up, a ping on the same connection (answered by
// the dispatcher, behind them in the stream) proves they all did, and the
// burst is then served on the test's own goroutine with one processor.

// holdLane parks n's session lane (the node must run one worker): jobs queue
// up unserved until the returned function serves them all — synchronously, as
// one lane burst — and hands the lane back.
func holdLane(n *Node) (serve func()) {
	c, wk := n.cluster, n.workers[0]
	held := make(chan sessJob, sessLaneBurst)
	c.sessMu.Lock()
	lane := wk.sessQ
	wk.sessQ = held
	c.sessMu.Unlock()
	return func() {
		c.sessMu.Lock()
		wk.sessQ = lane
		c.sessMu.Unlock()
		close(held)
		n.sessionLane(held)
	}
}

// burstRig is a two-member TCP deployment with node 0's lane parked and a raw
// fabric endpoint standing in for a client.
type burstRig struct {
	n       *Node
	stats   *fabric.Stats // node 0's transport counters
	tr      *fabric.TCPTransport
	client  *fabric.TCPTransport
	replies chan []byte
	keys    []uint64 // homed on node 0: served from its own shard, leased
	serve   func()
}

const burstClientID = 203

func newBurstRig(t *testing.T, k int) *burstRig {
	t.Helper()
	cfg := Config{Nodes: 2, System: Base, NumKeys: 1024, WorkersPerNode: 1}
	members, addrs, stats := newTCPMembersStats(t, cfg)
	r := &burstRig{
		n:       members[0].Node(0),
		stats:   stats[0],
		tr:      members[0].transport.(*fabric.TCPTransport),
		replies: make(chan []byte, sessLaneBurst+1), // a whole burst and a ping: the handler never blocks
	}
	for key := uint64(0); len(r.keys) < k; key++ {
		if HomeOf(key, cfg.Nodes) == 0 {
			r.keys = append(r.keys, key)
		}
	}
	var err error
	if r.client, err = fabric.NewTCPTransport(burstClientID, "127.0.0.1:0", nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.client.Close() })
	r.client.AddPeer(0, addrs[0])
	r.client.Register(fabric.Addr{Node: burstClientID, Thread: threadSession}, func(p fabric.Packet) {
		r.replies <- append([]byte(nil), p.Data...)
	})
	r.serve = holdLane(r.n)
	return r
}

// serveOneP serves the parked burst with one processor, as a benchmark node
// runs, and calls then before handing the other processors back. The
// connection's writer, woken by the first staged reply, cannot run until this
// goroutine blocks: when then is called, every reply is staged and its leases
// released, and nothing is written yet.
func (r *burstRig) serveOneP(then func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r.serve()
	then()
}

func (r *burstRig) send(t *testing.T, frame []byte) {
	t.Helper()
	err := r.client.Send(fabric.Packet{
		Src:  fabric.Addr{Node: burstClientID, Thread: threadSession},
		Dst:  fabric.Addr{Node: 0, Thread: threadSession},
		Data: frame,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func (r *burstRig) reply(t *testing.T) []byte {
	t.Helper()
	select {
	case resp := <-r.replies:
		return resp
	case <-time.After(10 * time.Second):
		t.Fatal("no reply")
		return nil
	}
}

// queueGets sends one single-get frame per key (request ids 1..k) and returns
// once all of them are queued.
func (r *burstRig) queueGets(t *testing.T) {
	t.Helper()
	for i, key := range r.keys {
		r.send(t, sessFrame(sessOpBatch, uint64(i+1), batchBody(1, sessEntry(sessOpGet, key))...))
	}
	r.awaitQueued(t)
}

// awaitQueued returns once every frame sent so far sits in the parked lane's
// queue: a ping behind them on the same connection is answered by the
// dispatcher only after it enqueued them.
func (r *burstRig) awaitQueued(t *testing.T) {
	t.Helper()
	const pingID = 1 << 40
	r.send(t, sessFrame(sessOpPing, pingID))
	if resp := r.reply(t); binary.LittleEndian.Uint64(resp) != pingID {
		t.Fatalf("reply % x overtook the ping: the lane is not parked", resp)
	}
}

// k single-op frames queued to a lane before it runs are answered with ONE
// write to that client — each request id exactly once, each value intact. The
// values reach the transport as segments (VectoredBytes), nothing flattened,
// and are copied before Send returns: the test overwrites every served value
// in place, in store memory, after the replies are staged and before the
// connection's writer runs, and the client still reads the values served.
// Counted after delivery: the write happens after Send returns.
func TestSessionLaneBurstOneWrite(t *testing.T) {
	const k = 8
	r := newBurstRig(t, k)
	r.queueGets(t)
	want := make([][]byte, k)
	at := make([]*byte, k)
	for i, key := range r.keys {
		v, err := r.n.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		want[i], at[i] = v, valueAddr(t, r.n, key)
	}

	writes, sends := r.stats.WriteCalls.Load(), r.stats.SendsTotal.Load()
	vectored := r.stats.VectoredBytes.Load()
	r.serveOneP(func() {
		for i, key := range r.keys {
			r.n.kvs.Put(key, bytes.Repeat([]byte{0xEE}, len(want[i])), timestamp.TS{Clock: 1 << 20})
		}
	})
	for i, key := range r.keys {
		if valueAddr(t, r.n, key) != at[i] {
			t.Fatalf("key %d: the overwrite replaced the value buffer — the burst's lease still pinned it after Send", key)
		}
	}

	var valueBytes uint64
	answered := map[uint64]bool{}
	for i := 0; i < k; i++ {
		resp := r.reply(t)
		id := binary.LittleEndian.Uint64(resp)
		if id < 1 || id > k || answered[id] {
			t.Fatalf("reply %d answers request id %d (again, or never asked)", i, id)
		}
		answered[id] = true
		v := want[id-1]
		// reqID(8) ok(1) count(4)=1 | ok(1) vlen(4) value
		if resp[8] != sessStatusOK || binary.LittleEndian.Uint32(resp[9:]) != 1 || resp[13] != sessStatusOK ||
			!bytes.Equal(resp[18:], v) || int(binary.LittleEndian.Uint32(resp[14:])) != len(v) {
			t.Fatalf("reply to request %d: % x, want value %q", id, resp, v)
		}
		valueBytes += uint64(len(v))
	}
	if w, s := r.stats.WriteCalls.Load()-writes, r.stats.SendsTotal.Load()-sends; w != 1 || s != k {
		t.Fatalf("a lane burst of %d replies: %d writes carrying %d packets, want 1 and %d", k, w, s, k)
	}
	if v := r.stats.VectoredBytes.Load() - vectored; v < valueBytes {
		t.Fatalf("VectoredBytes grew by %d, below the %d value bytes the burst carried: a value was flattened first", v, valueBytes)
	}
	if f := r.stats.FlattenedBytes.Load(); f != 0 {
		t.Fatalf("FlattenedBytes = %d, want 0", f)
	}
}

// A burst larger than the connection's staging bound is written out as it is
// staged: a Send that finds fabric.TCPStageBytes staged writes them before
// staging its own frame, so the writes are exactly what that rule yields for
// these frames — the connection holds at most the bound plus one frame. The
// lane's own bound (sessReplyBurstBytes) caps what it keeps leased.
func TestSessionLaneBurstByteBound(t *testing.T) {
	const k = 8
	r := newBurstRig(t, k)
	entries := make([][]byte, sessBatchMaxOps)
	for i := range entries {
		entries[i] = sessEntry(sessOpGet, r.keys[i%k])
	}
	body := batchBody(sessBatchMaxOps, entries...)
	replyBytes := 13 + sessBatchMaxOps*(5+r.n.cluster.cfg.ValueSize)
	perBurst := (sessReplyBurstBytes + replyBytes - 1) / replyBytes
	frames := 2*perBurst + 1 // crosses the bounds twice and leaves one frame over
	for i := 0; i < frames; i++ {
		r.send(t, sessFrame(sessOpBatch, uint64(i+1), body...))
	}
	r.awaitQueued(t)

	const frameHeader = 9
	staged, want := 0, 1 // the writer's write at the end
	for i := 0; i < frames; i++ {
		if staged >= fabric.TCPStageBytes {
			want, staged = want+1, 0
		}
		staged += frameHeader + replyBytes
	}
	writes := r.stats.WriteCalls.Load()
	r.serveOneP(func() {})
	for i := 0; i < frames; i++ {
		r.reply(t)
	}
	if w := r.stats.WriteCalls.Load() - writes; w != uint64(want) || w < 3 {
		t.Fatalf("%d replies of %d bytes left in %d writes, want %d (the bound crossed twice, then the rest)", frames, replyBytes, w, want)
	}
}

// A burst whose client is gone — or whose own transport is — is dropped, and
// every lease its gets took on store values is released all the same: the next
// put to each key still writes in place (a pinned value is replaced instead).
func TestSessionLaneBurstDroppedReleasesLeases(t *testing.T) {
	const k = 4
	for name, lose := range map[string]func(t *testing.T, r *burstRig){
		"client closed": func(t *testing.T, r *burstRig) {
			down := make(chan struct{})
			r.tr.SetPeerDownHandler(func(node uint8, _ error) {
				if node == burstClientID {
					close(down)
				}
			})
			r.client.Close()
			select {
			case <-down: // the node dropped the route: the burst has nowhere to go
			case <-time.After(10 * time.Second):
				t.Fatal("node never noticed the client's connection closing")
			}
		},
		"node transport closed": func(t *testing.T, r *burstRig) { r.tr.Close() },
	} {
		t.Run(name, func(t *testing.T) {
			r := newBurstRig(t, k)
			r.queueGets(t)
			at := make([]*byte, k)
			for i, key := range r.keys {
				at[i] = valueAddr(t, r.n, key)
			}
			lose(t, r)
			writes := r.stats.WriteCalls.Load()
			r.serve()
			if w := r.stats.WriteCalls.Load() - writes; w != 0 {
				t.Fatalf("%d writes toward a client that is gone", w)
			}
			for i, key := range r.keys {
				r.n.kvs.Put(key, bytes.Repeat([]byte{0xAB}, r.n.cluster.cfg.ValueSize), timestamp.TS{Clock: 1 << 20})
				if valueAddr(t, r.n, key) != at[i] {
					t.Fatalf("key %d: the put replaced the value buffer — a lease from the dropped burst still pins it", key)
				}
			}
		})
	}
}

// valueAddr returns where key's value lives in n's shard right now.
func valueAddr(t *testing.T, n *Node, key uint64) *byte {
	t.Helper()
	l, _, err := n.kvs.GetLease(key)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	return &l.Value()[0]
}
