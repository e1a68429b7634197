package cluster

import (
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/timestamp"
	"repro/internal/wire"
)

// The wire bytes of every entry layout, pinned as hex. A round-trip test
// passes when the layout table and its parser change together; these do not,
// so a change to what goes on the wire is a change to this file. Every entry
// carries the same field values: id 0x1112131415161718, key
// 0x2122232425262728, T {clock 0x01020304, writer 5}, expect "ex", value
// "val", delta 0x3132333435363738 — each layout takes the ones it has.
var (
	goldenID    uint64 = 0x1112131415161718
	goldenKey   uint64 = 0x2122232425262728
	goldenTS           = timestamp.TS{Clock: 0x01020304, Writer: 5}
	goldenDelta uint64 = 0x3132333435363738
)

func TestWireGoldenRequests(t *testing.T) {
	golden := map[byte]string{
		rpcOpGet:            "0018171615141312112827262524232221",
		rpcOpPut:            "01181716151413121128272625242322210300000076616c",
		rpcOpPromote:        "041817161514131211282726252423222104030201050300000076616c",
		rpcOpDemoteFreeze:   "0518171615141312112827262524232221",
		rpcOpDemoteCollect:  "0618171615141312112827262524232221",
		rpcOpDemoteCommit:   "0718171615141312112827262524232221",
		rpcOpWriteback:      "081817161514131211282726252423222104030201050300000076616c",
		rpcOpPromotePrepare: "0918171615141312112827262524232221",
		rpcOpPromoteFetch:   "0a18171615141312112827262524232221",
		rpcOpUnfreeze:       "0b18171615141312112827262524232221",
		rpcOpDemoteRetire:   "0c18171615141312112827262524232221",
		rpcOpPutStamp:       "0d18171615141312112827262524232221",
		rpcOpPutCommit:      "0e1817161514131211282726252423222104030201050300000076616c",
		rpcOpCAS:            "0f181716151413121128272625242322210200000065780300000076616c",
		rpcOpFAA:            "10181716151413121128272625242322213837363534333231",
		rpcOpRMWClear:       "11181716151413121128272625242322210403020105",
		rpcOpRMWWait:        "12181716151413121128272625242322210403020105",
	}
	for op, want := range golden {
		q := wireReq{op: op, id: goldenID, key: goldenKey, ts: goldenTS, expect: []byte("ex"), value: []byte("val"), delta: goldenDelta}
		b := q.appendTo(nil)
		if got := hex.EncodeToString(b); got != want {
			t.Errorf("op %d encodes as %s, want %s", op, got, want)
		}
		if len(b) != q.encodedSize() {
			t.Errorf("op %d: encodedSize %d for %d bytes", op, q.encodedSize(), len(b))
		}
		req, n, ok := parseOne(b)
		if !ok || n != len(b) || req.op != op || req.id != goldenID || req.key != goldenKey {
			t.Errorf("op %d: golden bytes parse as %+v (%d of %d bytes, ok %v)", op, req, n, len(b), ok)
		}
	}
	for op, f := range reqLayout {
		if _, pinned := golden[byte(op)]; pinned != (f != 0) {
			t.Errorf("op %d: declared %v, pinned here %v", op, f != 0, pinned)
		}
	}
}

func TestWireGoldenResponses(t *testing.T) {
	for name, tc := range map[string]struct{ got, want string }{
		"payload": {hex.EncodeToString(appendPayloadResponse(nil, goldenID, rpcStatusCASFail, goldenTS, []byte("val"))),
			"18171615141312110404030201050300000076616c"},
		"bare": {hex.EncodeToString(appendStatusOnly(nil, goldenID, rpcStatusRetry)),
			"181716151413121103"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s response encodes as %s, want %s", name, tc.got, tc.want)
		}
	}
}

func TestWireGoldenSessionEntries(t *testing.T) {
	for kind, want := range map[OpKind]string{
		OpGet: "002827262524232221",
		OpPut: "0128272625242322210300000076616c",
		OpCAS: "0628272625242322210200000065780300000076616c",
		OpFAA: "0728272625242322213837363534333231",
	} {
		o := Op{Kind: kind, Key: goldenKey, Expect: []byte("ex"), Value: []byte("val"), Delta: goldenDelta}
		if kind != OpCAS {
			o.Expect = nil
		}
		if kind == OpGet || kind == OpFAA {
			o.Value = nil
		}
		b := appendSessEntry(nil, &o)
		if got := hex.EncodeToString(b); got != want {
			t.Errorf("kind %d encodes as %s, want %s", kind, got, want)
		}
		if len(b) != sessEntrySize(&o) {
			t.Errorf("kind %d: sessEntrySize %d for %d bytes", kind, sessEntrySize(&o), len(b))
		}
		r := wire.NewReader(b)
		if got, ok := parseSessEntry(&r); !ok || r.Len() != 0 || got.Kind != kind || got.Key != goldenKey {
			t.Errorf("kind %d: golden bytes parse as %+v (ok %v, %d bytes left)", kind, got, ok, r.Len())
		}
	}
}

func TestWireGoldenConsistency(t *testing.T) {
	for name, tc := range map[string]struct {
		m    core.Msg
		want string
	}{
		"update":       {core.Update{Key: goldenKey, TS: goldenTS, Value: []byte("val")}.Msg(), "01282726252423222104030201050300000076616c"},
		"invalidation": {core.Invalidation{Key: goldenKey, TS: goldenTS, From: 6}.Msg(), "022827262524232221040302010506"},
		"ack":          {core.Ack{Key: goldenKey, TS: goldenTS, From: 7}.Msg(), "032827262524232221040302010507"},
	} {
		b := tc.m.Encode(nil)
		if got := hex.EncodeToString(b); got != tc.want {
			t.Errorf("%s encodes as %s, want %s", name, got, tc.want)
		}
		if len(b) != tc.m.Size() {
			t.Errorf("%s: Size %d for %d bytes", name, tc.m.Size(), len(b))
		}
	}
}
