package cluster

import (
	"bytes"
	"testing"

	"repro/internal/fabric"
)

// FuzzViewMessage feeds arbitrary membership packets — any op byte, any
// length, any sender id, a member's or not — through handleView on a
// replicated member with its prober off. It must never panic, and the re-sync
// gate must follow the seed streams exactly: armed while some in-range seeder
// has a seed-begin matched by neither its seed-done nor its excision, and a
// waiter taken while it is armed released exactly when the last such seeder
// clears. The input is a run of packets, each src(1) len(1) data(len).
func FuzzViewMessage(f *testing.F) {
	pkt := func(src byte, data ...byte) []byte { return append([]byte{src, byte(len(data))}, data...) }
	for _, seed := range [][]byte{
		pkt(1, viewMsgPing),
		pkt(1, viewMsgPong),
		pkt(1, viewMsgChange, 2),
		pkt(1, viewMsgSeedBegin),
		pkt(1, viewMsgSeedDone),
		// Two seeders: one finishes, the other is excised; then the excised one
		// answers a ping (rejoins) and seeds again.
		bytes.Join([][]byte{pkt(1, viewMsgSeedBegin), pkt(2, viewMsgSeedBegin), pkt(1, viewMsgSeedDone),
			pkt(3, viewMsgChange, 2), pkt(2, viewMsgPong), pkt(2, viewMsgSeedBegin)}, nil),
	} {
		f.Add(seed)
	}
	cfg := Config{Nodes: 4, System: Base, ReplicasPerShard: 2, NumKeys: 64, WorkersPerNode: 1}
	const self = 0
	f.Fuzz(func(t *testing.T, in []byte) {
		stats := fabric.NewStats()
		c, err := NewMember(cfg, self, fabric.NewChanTransport(16, stats), stats)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		live := []bool{true, true, true, true}
		sources := map[uint8]bool{}
		var waiter <-chan struct{}
		for len(in) >= 2 {
			src, data := in[0], in[2:2+min(int(in[1]), len(in)-2)]
			in = in[2+len(data):]
			c.handleView(fabric.Packet{Src: fabric.Addr{Node: src, Thread: threadView}, Dst: fabric.Addr{Node: self, Thread: threadView}, Data: data})
			c.reseedWG.Wait() // a pong from an excised member re-admits it on its own goroutine

			inRange, op := int(src) < cfg.Nodes, byte(0xFF)
			if len(data) > 0 {
				op = data[0]
			}
			switch {
			case op == viewMsgPong && inRange:
				live[src] = true
			case op == viewMsgChange && len(data) >= 2 && int(data[1]) < cfg.Nodes && data[1] != self && live[data[1]]:
				live[data[1]] = false
				delete(sources, data[1])
			case op == viewMsgSeedBegin && inRange:
				sources[src] = true
			case op == viewMsgSeedDone:
				delete(sources, src)
			}

			armed := len(sources) > 0
			if c.resyncing() != armed {
				t.Fatalf("gate armed=%v with seeders %v", c.resyncing(), sources)
			}
			for i, l := range live {
				if c.view.Load().Live(i) != l {
					t.Fatalf("node %d live=%v, want %v", i, !l, l)
				}
			}
			if waiter != nil {
				select {
				case <-waiter:
					if armed {
						t.Fatalf("gate waiter released while seeders %v are still active", sources)
					}
					waiter = nil
				default:
					if !armed {
						t.Fatal("gate waiter still parked after the last seeder cleared")
					}
				}
			}
			if armed && waiter == nil {
				if waiter = c.resyncWait(); waiter == nil {
					t.Fatal("armed gate handed out no channel")
				}
			}
		}
	})
}
