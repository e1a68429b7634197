package cluster

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/timestamp"
	"repro/internal/wire"
)

// Wire-format round trips for the coalesced RPC framing: multi-request and
// multi-response packets must decode back to what was encoded, and truncated
// or garbage inputs must fail the affected calls explicitly instead of
// silently dropping them (the pre-pipeline code path deadlocked the caller).

// multiRequestPacket is a four-entry request packet carrying val (40 bytes):
// the round-trip test's input and the fuzz corpus's well-formed seed.
func multiRequestPacket(val []byte) []byte {
	var pkt []byte
	pkt = wireReq{op: rpcOpGet, id: 1, key: 100}.appendTo(pkt)
	pkt = wireReq{op: rpcOpPut, id: 2, key: 200, value: val}.appendTo(pkt)
	pkt = wireReq{op: rpcOpPut, id: 3, key: 300, value: val[:7]}.appendTo(pkt)
	return wireReq{op: rpcOpPutStamp, id: 4, key: 400}.appendTo(pkt)
}

// putShaped encodes a request entry laid out as a put, H V, whatever op it
// names — what a buggy peer, or one still speaking a retired op, would send.
func putShaped(op byte, id, key uint64, value []byte) []byte {
	b := wireReq{op: rpcOpPut, id: id, key: key, value: value}.appendTo(nil)
	b[0] = op
	return b
}

// parseOne parses the entry at the head of buf as handleKVSRequest does and
// reports the bytes it took.
func parseOne(buf []byte) (req wireReq, consumed int, ok bool) {
	r := wire.NewReader(buf)
	req, ok = parseRequest(&r)
	if !ok {
		return req, 0, false
	}
	return req, len(buf) - r.Len(), true
}

func TestParseRequestRoundTripMulti(t *testing.T) {
	val := bytes.Repeat([]byte{0xAB}, 40)
	pkt := multiRequestPacket(val)

	want := []wireReq{
		{op: rpcOpGet, id: 1, key: 100},
		{op: rpcOpPut, id: 2, key: 200, value: val},
		{op: rpcOpPut, id: 3, key: 300, value: val[:7]},
		{op: rpcOpPutStamp, id: 4, key: 400},
	}
	for i, w := range want {
		req, consumed, ok := parseOne(pkt)
		if !ok {
			t.Fatalf("entry %d refused", i)
		}
		if req.op != w.op || req.id != w.id || req.key != w.key || !bytes.Equal(req.value, w.value) {
			t.Fatalf("entry %d: got %+v want %+v", i, req, w)
		}
		pkt = pkt[consumed:]
	}
	if len(pkt) != 0 {
		t.Fatalf("%d trailing bytes after last entry", len(pkt))
	}
}

func TestParseRequestRejectsMalformed(t *testing.T) {
	val := bytes.Repeat([]byte{1}, 16)
	full := wireReq{op: rpcOpPut, id: 7, key: 9, value: val}.appendTo(nil)
	cases := map[string][]byte{
		"empty":            nil,
		"header only":      full[:9],
		"no key":           full[:12],
		"no vlen":          full[:19],
		"truncated value":  full[:len(full)-3],
		"unknown op":       wireReq{op: 99, id: 7, key: 9}.appendTo(nil),
		"short get":        wireReq{op: rpcOpGet, id: 7, key: 9}.appendTo(nil)[:16],
		"garbage":          {0xde, 0xad, 0xbe, 0xef},
		"vlen past buffer": append(full[:17:17], 0xff, 0xff, 0xff, 0x7f),
	}
	for name, buf := range cases {
		if _, _, ok := parseOne(buf); ok {
			t.Errorf("%s: parse succeeded, want error", name)
		}
	}
	// Entries whose 9-byte header survived must surface the request id so
	// the server can refuse them explicitly.
	req, _, ok := parseOne(full[:12])
	if ok || req.id != 7 {
		t.Fatalf("truncated entry: id=%d parsed=%v, want id=7 and a refusal", req.id, ok)
	}
}

// Hostile bytes at a KVS thread: whatever a request packet holds, parseRequest
// either parses an entry cleanly — consuming at least its header and no more
// than the packet, its value and expectation lying inside the bytes it consumed
// — or refuses it; it never panics or reads past the packet. The walk is
// handleKVSRequest's.
func FuzzParseRequest(f *testing.F) {
	val := bytes.Repeat([]byte{0xAB}, 40)
	f.Add(multiRequestPacket(val))
	f.Add(wireReq{op: rpcOpCAS, id: 5, key: 6, expect: val[:3], value: val[:9]}.appendTo(nil))
	f.Add(wireReq{op: rpcOpFAA, id: 7, key: 8, delta: 9}.appendTo(nil))
	f.Add(wireReq{op: rpcOpPutCommit, id: 10, key: 11, ts: timestamp.TS{Clock: 3, Writer: 1}, value: val}.appendTo(nil))
	f.Add(wireReq{op: rpcOpRMWWait, id: 12, key: 13, ts: timestamp.TS{Clock: 4}}.appendTo(nil))
	for _, op := range []byte{2, 3, 255} { // the two retired op bytes and an unknown one
		f.Add(putShaped(op, 14, 15, val))
	}
	f.Add(append(putShaped(rpcOpPut, 16, 17, nil)[:17], 0xff, 0xff, 0xff, 0xff)) // negative as int32
	f.Fuzz(func(t *testing.T, data []byte) {
		// A private copy with no spare capacity: reading past the packet panics
		// instead of finding stale bytes, and the marking below is ours to do.
		buf := make([]byte, len(data))
		copy(buf, data)
		for len(buf) > 0 {
			req, consumed, ok := parseOne(buf)
			if !ok {
				return
			}
			if consumed < 17 || consumed > len(buf) {
				t.Fatalf("op %d consumed %d of %d bytes", req.op, consumed, len(buf))
			}
			// Mark the entry's bytes and everything behind it differently: a
			// slice that strays outside the entry shows the wrong mark.
			for i := range buf {
				buf[i] = 0x5A
			}
			for i := range buf[:consumed] {
				buf[i] = 0xA5
			}
			for _, b := range append(append([]byte(nil), req.value...), req.expect...) {
				if b != 0xA5 {
					t.Fatalf("op %d: value or expectation reaches outside its %d-byte entry", req.op, consumed)
				}
			}
			if len(req.value)+len(req.expect) > consumed-17 {
				t.Fatalf("op %d: %d payload bytes in a %d-byte entry", req.op, len(req.value)+len(req.expect), consumed)
			}
			buf = buf[consumed:]
		}
	})
}

// respTestClient builds a bare client whose worker has just enough state
// for handleResponse (credits only).
func respTestClient() *rpcClient {
	n := &Node{cluster: &Cluster{cfg: Config{WorkersPerNode: 1}}}
	wk := &worker{node: n, credits: fabric.NewCredits()}
	wk.rpc = newRPCClient(wk)
	n.workers = []*worker{wk}
	return wk.rpc
}

func TestHandleResponseMultiCompletesAll(t *testing.T) {
	r := respTestClient()
	ch1 := r.register(1, 1)
	ch2 := r.register(1, 2)
	ch3 := r.register(1, 3)

	val := bytes.Repeat([]byte{0x5A}, 24)
	var pkt []byte
	pkt = appendOKResponse(pkt, 1, timestamp.TS{Clock: 9, Writer: 2}, val)
	pkt = appendStatusOnly(pkt, 2, rpcStatusNotFound)
	pkt = appendOKResponse(pkt, 3, timestamp.TS{}, nil)
	r.handleResponse(fabric.Packet{Data: pkt})

	res1 := <-ch1
	if res1.err != nil || res1.status != rpcStatusOK || !bytes.Equal(res1.value, val) ||
		res1.ts != (timestamp.TS{Clock: 9, Writer: 2}) {
		t.Fatalf("res1 = %+v", res1)
	}
	if res2 := <-ch2; res2.err != nil || res2.status != rpcStatusNotFound {
		t.Fatalf("res2 = %+v", res2)
	}
	if res3 := <-ch3; res3.err != nil || res3.status != rpcStatusOK || len(res3.value) != 0 {
		t.Fatalf("res3 = %+v", res3)
	}
	if len(r.pend) != 0 {
		t.Fatalf("%d pending calls left", len(r.pend))
	}
}

// A truncated response must fail the pending call with an explicit error —
// this is the silent-drop deadlock fix.
func TestHandleResponseTruncatedFailsPending(t *testing.T) {
	val := bytes.Repeat([]byte{0x77}, 40)
	for _, tc := range []struct {
		name string
		cut  int // bytes to strip from the full entry
	}{
		{"value cut", 10},
		{"payload header cut", 41}, // leaves reqID+status+partial ts
	} {
		r := respTestClient()
		ch := r.register(1, 5)
		full := appendOKResponse(nil, 5, timestamp.TS{Clock: 1}, val)
		r.handleResponse(fabric.Packet{Data: full[:len(full)-tc.cut]})
		select {
		case res := <-ch:
			if res.err == nil {
				t.Fatalf("%s: completed without error: %+v", tc.name, res)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: pending call never completed (deadlock)", tc.name)
		}
		if r.w.node.RPCDecodeErrors.Load() == 0 {
			t.Fatalf("%s: decode error not counted", tc.name)
		}
	}
}

func TestHandleResponseGarbageTailIgnored(t *testing.T) {
	r := respTestClient()
	ch := r.register(1, 8)
	pkt := appendStatusOnly(nil, 8, rpcStatusNotFound) // valid entry...
	pkt = append(pkt, 0xBA, 0xD1)                      // ...plus a tail too short to name an id
	r.handleResponse(fabric.Packet{Data: pkt})
	if res := <-ch; res.err != nil || res.status != rpcStatusNotFound {
		t.Fatalf("res = %+v", res)
	}
	if r.w.node.RPCDecodeErrors.Load() != 1 {
		t.Fatal("garbage tail not counted")
	}
}

// Hostile bytes at a resp thread: whatever a response packet holds,
// handleResponse completes each registered call at most once — with the first
// entry naming it, decoded exactly — fails the call of a truncated entry with
// an error and counts it, and stops there; it never panics, never reads past
// the packet, never sizes an allocation by a length it has not checked against
// the packet, and hands out values that do not alias the packet (the
// transport reuses it). A reference walk over the same bytes says what each
// call must have received.
func FuzzRPCResponse(f *testing.F) {
	val := bytes.Repeat([]byte{0xE1}, 24)
	var all []byte // one entry per status
	for status := rpcStatusOK; status <= rpcStatusRMWStarted; status++ {
		var one []byte
		if rpcStatusHasPayload(status) {
			one = appendPayloadResponse(nil, uint64(status)+1, status, timestamp.TS{Clock: 9, Writer: 2}, val)
		} else {
			one = appendStatusOnly(nil, uint64(status)+1, status)
		}
		f.Add(one)
		all = append(all, one...)
	}
	for cut := 0; cut <= len(all); cut++ {
		f.Add(all[:cut])
	}
	f.Add(append(appendPayloadHeader(nil, 1, rpcStatusOK, timestamp.TS{}, 0)[:14], 0xff, 0xff, 0xff, 0xff)) // a 4 GiB value
	f.Add(append(appendStatusOnly(nil, 3, rpcStatusRetry), appendStatusOnly(nil, 3, rpcStatusOK)...))       // one id twice

	const ids = 8 // registered: 1..ids
	f.Fuzz(func(t *testing.T, data []byte) {
		// A private copy with no spare capacity: reading past the packet panics
		// instead of finding stale bytes.
		pkt := make([]byte, len(data))
		copy(pkt, data)
		r := respTestClient()
		chs := make([]chan rpcResult, ids+1)
		for id := uint64(1); id <= ids; id++ {
			chs[id] = r.register(1, id)
		}
		r.handleResponse(fabric.Packet{Data: pkt})
		for i := range pkt {
			pkt[i] = 0x5A // the transport reuses the buffer
		}

		// The reference walk.
		type expect struct {
			res       rpcResult
			truncated bool
		}
		want := map[uint64]expect{}
		var decodeErrors uint64
		buf := data
		for len(buf) >= 9 && decodeErrors == 0 {
			id, status := binary.LittleEndian.Uint64(buf), buf[8]
			buf = buf[9:]
			e := expect{res: rpcResult{status: status}}
			if rpcStatusHasPayload(status) {
				if len(buf) < 9 || uint64(len(buf)-9) < uint64(binary.LittleEndian.Uint32(buf[5:])) {
					e.truncated, decodeErrors = true, 1
				} else {
					vlen := int(binary.LittleEndian.Uint32(buf[5:]))
					e.res.ts = timestamp.TS{Clock: binary.LittleEndian.Uint32(buf), Writer: buf[4]}
					e.res.value = buf[9 : 9+vlen]
					buf = buf[9+vlen:]
				}
			}
			if _, seen := want[id]; !seen {
				want[id] = e
			}
		}
		if decodeErrors == 0 && len(buf) > 0 {
			decodeErrors = 1 // a tail too short to name a call
		}

		for id := uint64(1); id <= ids; id++ {
			e, named := want[id]
			if len(chs[id]) > 1 || named != (len(chs[id]) == 1) {
				t.Fatalf("call %d: %d completions, named by the packet: %v", id, len(chs[id]), named)
			}
			if !named {
				continue
			}
			got := <-chs[id]
			switch {
			case e.truncated:
				if got.err == nil {
					t.Fatalf("call %d: truncated entry completed without an error: %+v", id, got)
				}
			case got.err != nil || got.status != e.res.status || got.ts != e.res.ts || !bytes.Equal(got.value, e.res.value):
				t.Fatalf("call %d: got %+v, want %+v", id, got, e.res)
			}
		}
		if got := r.w.node.RPCDecodeErrors.Load(); got != decodeErrors {
			t.Fatalf("%d decode errors counted, want %d", got, decodeErrors)
		}
	})
}

// A malformed or unservable request must come back as an explicit rpc error
// through the live stack, not hang the caller. The encode-at-send pipeline
// can no longer emit malformed bytes itself, so the raw packets are injected
// straight into the transport, as a buggy or hostile peer would. The refusal
// is still the packet's one response, so it restores the credit the packet
// cost — checked for a retired op byte, which an old peer could still send.
func TestServerRefusesBadRequests(t *testing.T) {
	c := newTestCluster(t, Config{Nodes: 2, System: Base, NumKeys: 100})
	n := c.Node(0)
	cfg := c.Config()
	wk := n.workers[0]
	kvs := fabric.Addr{Node: 1, Thread: cfg.kvsThread(0)}
	for name, req := range map[string][]byte{
		"unknown op":    wireReq{op: 42, key: 5}.appendTo(nil),
		"truncated put": putShaped(rpcOpPut, 0, 5, bytes.Repeat([]byte{1}, 16))[:15],
		"retired op 2":  putShaped(2, 0, 5, []byte("v")),
	} {
		if !wk.credits.Acquire(kvs) {
			t.Fatal("no budget toward node 1")
		}
		id := wk.rpc.newReqID()
		// Stamp the fresh id into the encoded entry (offset 1, little endian).
		if len(req) >= 9 {
			binary.LittleEndian.PutUint64(req[1:9], id)
		}
		ch := wk.rpc.register(1, id)
		if err := c.transport.Send(fabric.Packet{
			Src:   fabric.Addr{Node: 0, Thread: cfg.respThread(0)},
			Dst:   kvs,
			Class: metrics.ClassCacheMiss,
			Data:  req,
		}); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := awaitRPC(ch)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: call succeeded, want refusal", name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: call deadlocked", name)
		}
		// handleResponse grants before it completes the call.
		if got := wk.credits.Available(kvs); got != cfg.CreditsPerPeer {
			t.Errorf("%s: %d credits toward node 1 after the refusal, want %d", name, got, cfg.CreditsPerPeer)
		}
	}
}

// The server must answer one request packet with exactly one response packet
// no matter how many requests it coalesces — the invariant behind charging
// credits per packet.
func TestBatchedRequestOneResponsePacket(t *testing.T) {
	c := newTestCluster(t, Config{Nodes: 2, System: Base, NumKeys: 1000})
	n := c.Node(0)
	// Collect keys homed on node 1.
	var keys []uint64
	for k := uint64(0); len(keys) < 10 && k < 1000; k++ {
		if c.HomeNode(k) == 1 {
			keys = append(keys, k)
		}
	}
	want := make([][]byte, len(keys))
	for i := range keys {
		want[i] = bytes.Repeat([]byte{byte(0x10 + i)}, 40)
	}
	// A cache-less cluster makes Node.Batch a pure pipeline driver: every op
	// is a remote access toward node 1, all started before any is awaited.
	puts := make([]Op, len(keys))
	gets := make([]Op, len(keys))
	for i, k := range keys {
		puts[i] = Op{Kind: OpPut, Key: k, Value: want[i]}
		gets[i] = Op{Key: k}
	}
	rs := make([]Result, len(keys))
	n.Batch(puts, rs)
	for i := range rs {
		if rs[i].Err != nil {
			t.Fatalf("put key %d: %v", keys[i], rs[i].Err)
		}
	}
	n.Batch(gets, rs)
	for i := range rs {
		if rs[i].Err != nil || !bytes.Equal(rs[i].Value, want[i]) {
			t.Fatalf("key %d: got %v (%v) want %v", keys[i], rs[i].Value, rs[i].Err, want[i])
		}
	}
	if got := n.RemoteReqMsgs.Load(); got != uint64(2*len(keys)) {
		t.Fatalf("request messages = %d, want %d", got, 2*len(keys))
	}
	pkts := n.RemoteReqPackets.Load()
	if pkts == 0 || pkts > uint64(2*len(keys)) {
		t.Fatalf("request packets = %d for %d requests", pkts, 2*len(keys))
	}
	t.Logf("coalescing: %d requests in %d packets", 2*len(keys), pkts)
}

// Calls issued against a closed cluster must fail, not hang.
func TestCallAfterCloseFails(t *testing.T) {
	c := newTestCluster(t, Config{Nodes: 2, System: Base, NumKeys: 100})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	key := uint64(0)
	for c.HomeNode(key) != 1 {
		key++
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Node(0).Get(key)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("remote get on closed cluster succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("remote get on closed cluster deadlocked")
	}
}

// Even a fully undecodable request packet must be answered (with an empty
// response packet): the sender charged a credit for it, and only the
// response restores that credit — otherwise malformed packets would wedge
// all remote traffic toward that home node.
func TestUndecodablePacketStillRestoresCredit(t *testing.T) {
	c := newTestCluster(t, Config{Nodes: 2, System: Base, NumKeys: 100, CreditsPerPeer: 4})
	n := c.Node(0)
	cfg := c.Config()
	wk := n.workers[0]
	kvs := fabric.Addr{Node: 1, Thread: cfg.kvsThread(0)}
	for i := 0; i < 4; i++ {
		wk.credits.Acquire(kvs) // drain the budget
	}
	// Inject a garbage packet as if node 0's worker-0 pipeline had sent it.
	if err := c.transport.Send(fabric.Packet{
		Src:   fabric.Addr{Node: 0, Thread: cfg.respThread(0)},
		Dst:   kvs,
		Class: metrics.ClassCacheMiss,
		Data:  []byte{0xde, 0xad},
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for wk.credits.Available(kvs) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("credit never restored after undecodable packet")
		}
		time.Sleep(time.Millisecond)
	}
}

// The coalescer must never exceed BatchMaxBytes: a request that would bust
// the bound rides in the next packet instead.
func TestPipelineRespectsByteBound(t *testing.T) {
	c := newTestCluster(t, Config{
		Nodes: 2, System: Base, NumKeys: 1000,
		BatchMaxBytes: 100, BatchMaxMsgs: 64, ValueSize: 60,
	})
	n := c.Node(0)
	var keys []uint64
	var vals [][]byte
	for k := uint64(0); len(keys) < 8 && k < 1000; k++ {
		if c.HomeNode(k) == 1 {
			keys = append(keys, k)
			vals = append(vals, bytes.Repeat([]byte{byte(k)}, 60))
		}
	}
	// Each put request is 21+60 = 81 bytes; two would exceed the 100-byte
	// bound, so every packet must carry exactly one request.
	puts := make([]Op, len(keys))
	for i, k := range keys {
		puts[i] = Op{Kind: OpPut, Key: k, Value: vals[i]}
	}
	rs := make([]Result, len(keys))
	n.Batch(puts, rs)
	for i := range rs {
		if rs[i].Err != nil {
			t.Fatalf("put key %d: %v", keys[i], rs[i].Err)
		}
	}
	if msgs, pkts := n.RemoteReqMsgs.Load(), n.RemoteReqPackets.Load(); pkts != msgs {
		t.Fatalf("byte bound violated: %d requests in %d packets", msgs, pkts)
	}
}
