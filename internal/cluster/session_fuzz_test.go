package cluster

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/wire"
)

// Hostile input at the session edge: whatever bytes reach a node's session
// address, and whatever bytes a server answers a batch with, the decoders
// either parse cleanly or refuse — they never panic, over-read, or size an
// allocation by a count they have not bounded.

// sessFrame builds a request frame: op byte, request id, body.
func sessFrame(op byte, reqID uint64, body ...byte) []byte {
	f := binary.LittleEndian.AppendUint64([]byte{op}, reqID)
	return append(f, body...)
}

// batchBody builds a batch frame body claiming count entries.
func batchBody(count uint32, entries ...[]byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, count)
	for _, e := range entries {
		b = append(b, e...)
	}
	return b
}

// lenPrefixed is the wire form of a value: len(4) bytes.
func lenPrefixed(v string) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(v))), v...)
}

// sessEntry builds one batch entry: kind, key, body.
func sessEntry(kind byte, key uint64, body ...[]byte) []byte {
	e := binary.LittleEndian.AppendUint64([]byte{kind}, key)
	for _, b := range body {
		e = append(e, b...)
	}
	return e
}

// sessFrameSeeds is the corpus beside the legacy frames: well-formed frames of
// every kind, lying counts and truncated entries.
func sessFrameSeeds() [][]byte {
	delta := binary.LittleEndian.AppendUint64(nil, 3)
	return [][]byte{
		nil,
		{sessOpBatch, 1, 2, 3}, // shorter than a header
		sessFrame(sessOpPing, 1),
		sessFrame(sessOpStats, 2),
		sessFrame(sessOpRefresh, 3, batchBody(2, make([]byte, 16))...),
		sessFrame(sessOpRefresh, 4, batchBody(1<<30)...), // lying refresh count
		sessFrame(sessOpBatch, 5, batchBody(0)...),
		sessFrame(sessOpBatch, 6, batchBody(4,
			sessEntry(sessOpGet, 1),
			sessEntry(sessOpPut, 2, lenPrefixed("v")),
			sessEntry(sessOpCAS, 3, lenPrefixed(""), lenPrefixed("new")),
			sessEntry(sessOpFAA, 4, delta))...),
		sessFrame(sessOpBatch, 7, batchBody(sessBatchMaxOps+1)...),           // count over the limit
		sessFrame(sessOpBatch, 8, batchBody(sessBatchMaxOps)...),             // count with no entries behind it
		sessFrame(sessOpBatch, 9, batchBody(0xFFFFFFFF)...),                  // negative as int32
		sessFrame(sessOpBatch, 10, batchBody(2, sessEntry(sessOpGet, 1))...), // one entry short
		sessFrame(sessOpBatch, 11, batchBody(1, sessEntry(sessOpPut, 2, []byte{0xFF, 0xFF, 0xFF, 0x7F}))...),
		sessFrame(sessOpBatch, 12, batchBody(1, sessEntry(sessOpCAS, 3, lenPrefixed("expect")))...), // CAS cut before its new value
		sessFrame(sessOpBatch, 13, batchBody(1, sessEntry(sessOpCAS, 3, lenPrefixed("e"), []byte{9, 0, 0, 0, 'x'}))...),
		sessFrame(sessOpBatch, 14, batchBody(1, sessEntry(sessOpFAA, 4, delta[:7]))...),
		sessFrame(sessOpBatch, 15, batchBody(1, sessEntry(sessOpPing, 5))...), // unknown entry kind
		sessFrame(0xEE, 16),
	}
}

// legacySingleOpFrames are wire v1's four data frames: the op byte names the
// operation and the body is the bare entry (key 7, values prefixed "v1-").
func legacySingleOpFrames() map[string][]byte {
	delta := binary.LittleEndian.AppendUint64(nil, 1)
	return map[string][]byte{
		"get": sessFrame(sessOpGet, 1, sessEntry(sessOpGet, 7)[1:]...),
		"put": sessFrame(sessOpPut, 2, sessEntry(sessOpPut, 7, lenPrefixed("v1-put"))[1:]...),
		"cas": sessFrame(sessOpCAS, 3, sessEntry(sessOpCAS, 7, lenPrefixed(""), lenPrefixed("v1-cas"))[1:]...),
		"faa": sessFrame(sessOpFAA, 4, sessEntry(sessOpFAA, 7, delta)[1:]...),
	}
}

// sessionProbe is an in-process node plus a client address that records the
// node's replies.
type sessionProbe struct {
	n       *Node
	src     fabric.Addr
	replies chan []byte
}

func newSessionProbe(tb testing.TB) *sessionProbe {
	tb.Helper()
	// Two workers, so a batch's entries split into groups served on two lanes.
	c, err := New(Config{Nodes: 2, System: Base, NumKeys: 256, WorkersPerNode: 2})
	if err != nil {
		tb.Fatal(err)
	}
	c.Populate()
	tb.Cleanup(func() { c.Close() })
	p := &sessionProbe{
		n:       c.Node(0),
		src:     fabric.Addr{Node: 200, Thread: threadSession},
		replies: make(chan []byte, 1),
	}
	c.transport.Register(p.src, func(pk fabric.Packet) { p.replies <- pk.Data })
	return p
}

// send hands frame to the node's session handler and returns the status and
// payload it answered with; replied is false when the frame was dropped.
func (p *sessionProbe) send(tb testing.TB, frame []byte) (status byte, payload []byte, replied bool) {
	tb.Helper()
	p.n.handleSession(fabric.Packet{Src: p.src, Data: frame})
	if len(frame) < sessHeader {
		select {
		case r := <-p.replies:
			tb.Fatalf("headerless frame % x was answered: % x", frame, r)
		default:
		}
		return 0, nil, false
	}
	select {
	case r := <-p.replies:
		if len(r) < 9 || string(r[:8]) != string(frame[1:9]) {
			tb.Fatalf("frame % x: reply % x does not echo the request id", frame, r)
		}
		return r[8], r[9:], true
	case <-time.After(30 * time.Second):
		tb.Fatalf("frame % x: no reply", frame)
	}
	return 0, nil, false
}

// Wire v1's single-op frames are gone: a frame whose op byte is a data op is
// refused like any unknown op, whatever follows it.
func TestLegacySingleOpFrameRejected(t *testing.T) {
	p := newSessionProbe(t)
	for name, frame := range legacySingleOpFrames() {
		status, payload, _ := p.send(t, frame)
		if status != sessStatusBad || len(payload) != 0 {
			t.Fatalf("legacy %s frame: status %d payload % x, want bare sessStatusBad", name, status, payload)
		}
	}
	// Nothing executed: the key the put and the CAS named still holds its
	// populated value.
	v, err := p.n.Get(7)
	if err != nil || strings.HasPrefix(string(v), "v1-") {
		t.Fatalf("key 7 after refused frames: (%q, %v)", v, err)
	}
}

func FuzzSessionFrame(f *testing.F) {
	p := newSessionProbe(f)
	for _, s := range sessFrameSeeds() {
		f.Add(s)
	}
	for _, s := range legacySingleOpFrames() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		status, payload, replied := p.send(t, frame)
		if !replied {
			return
		}
		switch op := frame[0]; {
		case op != sessOpBatch && op != sessOpPing && op != sessOpStats && op != sessOpRefresh:
			if status != sessStatusBad {
				t.Fatalf("op %d answered status %d, want sessStatusBad", op, status)
			}
		case op == sessOpBatch && status == sessStatusOK:
			// An accepted batch declared a bounded count, and its answer is one
			// the client decodes cleanly against the ops it asked for.
			count := int(binary.LittleEndian.Uint32(frame[sessHeader:]))
			if count > sessBatchMaxOps || len(frame)-sessHeader > sessBatchMaxBytes {
				t.Fatalf("batch of %d entries in %d bytes was accepted", count, len(frame))
			}
			ops := make([]Op, count)
			r := wire.NewReader(frame[sessHeader+4:])
			for i := range ops {
				op, ok := parseSessEntry(&r)
				if !ok {
					t.Fatalf("accepted batch does not parse at entry %d", i)
				}
				ops[i] = op
			}
			if err := new(Client).decodeBatch(0, ops, make([]Result, count), payload, nil); err != nil {
				t.Fatalf("response to an accepted batch: %v (% x)", err, payload)
			}
		case status != sessStatusOK && status != sessStatusBad && status != sessStatusErr:
			t.Fatalf("op %d answered frame status %d", op, status)
		}
	})
}

func FuzzDecodeBatch(f *testing.F) {
	ops := []Op{{Key: 1}, {Kind: OpPut, Key: 2}, {Kind: OpCAS, Key: 3}, {Kind: OpFAA, Key: 4}}
	ok := batchBody(4,
		append([]byte{sessStatusOK}, lenPrefixed("value")...),
		[]byte{sessStatusOK},
		append([]byte{sessStatusCASFail}, lenPrefixed("witness")...),
		append([]byte{sessStatusErr}, lenPrefixed("not a counter")...))
	f.Add(ok)
	f.Add(ok[:len(ok)-3])                                                  // truncated error text
	f.Add(batchBody(5, ok[4:]))                                            // count disagrees with the request
	f.Add(batchBody(4, []byte{sessStatusOK, 0xFF, 0xFF, 0xFF, 0xFF}))      // lying value length
	f.Add(batchBody(4, append([]byte{sessStatusOK}, lenPrefixed("v")...))) // ends after the first entry
	f.Add(batchBody(4, []byte{sessStatusNotFound, sessStatusHomeDown, 0x77, sessStatusBad}))
	f.Add([]byte{4, 0})

	cl := &Client{}
	f.Fuzz(func(t *testing.T, payload []byte) {
		lease := &respLease{buf: payload}
		lease.refs.Store(1)
		rs := make([]Result, len(ops))
		err := cl.decodeBatch(0, ops, rs, payload, lease)
		held := int32(0)
		for i := range rs {
			if rs[i].lease != nil {
				held++
			}
			if err != nil && (rs[i].lease != nil || rs[i].Value != nil) {
				t.Fatalf("decode failed (%v) but result %d still holds the buffer", err, i)
			}
		}
		if got := lease.refs.Load(); got != 1+held {
			t.Fatalf("lease refcount %d after decode (err %v), want 1 + %d value-bearing results", got, err, held)
		}
		for i := range rs {
			rs[i].Release()
		}
		if got := lease.refs.Load(); got != 1 {
			t.Fatalf("lease refcount %d after releasing every result, want 1", got)
		}
	})
}
