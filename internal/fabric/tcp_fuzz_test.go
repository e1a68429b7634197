package fabric

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/metrics"
)

// FuzzTCPFrame feeds readLoop an arbitrary byte stream, arbitrarily chunked,
// through a scripted connection and a deliberately tiny receive buffer (so
// frames straddle and outgrow it within a few dozen input bytes). Whatever the
// bytes — lying lengths, lengths above MaxFrameBytes, truncated headers and
// payloads — the loop must not panic or read out of bounds, must deliver
// exactly the frames a straightforward walk of the stream finds, each payload
// exactly the bytes framed, and must refuse an oversize length before sizing
// anything by it: counted, connection closed, nothing after it delivered.
func FuzzTCPFrame(f *testing.F) {
	dst, src := Addr{Node: 1, Thread: 3}, Addr{Node: 9, Thread: 1}
	two := append(frame(dst, src, metrics.ClassUpdate, []byte("first")), frame(dst, src, metrics.ClassAck, bytes.Repeat([]byte{7}, 100))...)
	f.Add(two, []byte{0}, uint8(64))
	f.Add(two, []byte{1, 2, 3}, uint8(9))
	f.Add(two[:len(two)-1], []byte{200}, uint8(32))          // truncated payload
	f.Add(two[:tcpFrameHeader-2], []byte{1}, uint8(16))      // truncated header
	f.Add(frame(dst, src, 0, nil), []byte{}, uint8(9))       // empty payload, whole stream at once
	f.Add(frame(Addr{Node: 5}, src, 0, []byte("elsewhere")), // unregistered destination
		[]byte{4}, uint8(20))
	over := binary.LittleEndian.AppendUint32([]byte{1, 3, 9, 1, 0}, MaxFrameBytes+1)
	f.Add(append(append([]byte(nil), two...), over...), []byte{30}, uint8(40)) // oversize after two good frames
	f.Add(append(over, two...), []byte{3}, uint8(12))                          // oversize first
	lying := binary.LittleEndian.AppendUint32([]byte{1, 3, 9, 1, 0}, 1<<20)
	f.Add(append(lying, "short"...), []byte{5}, uint8(10)) // claims 1 MiB, carries 5 bytes

	f.Fuzz(func(t *testing.T, stream, cuts []byte, bufSize uint8) {
		// Chunk the stream: cut i is 1 + cuts[i % len] bytes; no cuts, one chunk.
		var chunks [][]byte
		for rest, i := stream, 0; len(rest) > 0; i++ {
			n := len(rest)
			if len(cuts) > 0 {
				n = min(n, 1+int(cuts[i%len(cuts)]))
			}
			chunks = append(chunks, rest[:n])
			rest = rest[n:]
		}

		// The reference walk.
		var want []Packet
		oversize := false
		for rest := stream; len(rest) >= tcpFrameHeader; {
			n := binary.LittleEndian.Uint32(rest[5:9])
			if n > MaxFrameBytes {
				oversize = true
				break
			}
			if uint64(len(rest)-tcpFrameHeader) < uint64(n) {
				break
			}
			if p := (Packet{
				Dst:   Addr{Node: rest[0], Thread: rest[1]},
				Src:   Addr{Node: rest[2], Thread: rest[3]},
				Class: metrics.MsgClass(rest[4]),
				Data:  rest[tcpFrameHeader : tcpFrameHeader+int(n)],
			}); p.Dst == dst {
				want = append(want, p)
			}
			rest = rest[tcpFrameHeader+int(n):]
		}

		got, c, stats := feed(dst, max(int(bufSize), tcpFrameHeader), chunks...)
		if len(got) != len(want) {
			t.Fatalf("delivered %d frames, the stream holds %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Dst != want[i].Dst || got[i].Src != want[i].Src || got[i].Class != want[i].Class || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("frame %d: delivered %+v, framed %+v", i, got[i], want[i])
			}
		}
		if o := stats.OversizeFrames.Load(); (o == 1) != oversize || o > 1 {
			t.Fatalf("OversizeFrames = %d, oversize length in stream: %v", o, oversize)
		}
		if !c.closed {
			t.Fatal("connection left open")
		}
	})
}
