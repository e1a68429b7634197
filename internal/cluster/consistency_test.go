package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// The packets-per-write half of the Figure 11 argument: N concurrent Lin
// writes steered through one worker must generate EXACTLY N*(nodes-1)
// invalidation, ack and update messages (the protocol's fan-out is fixed),
// but measurably fewer consistency packets — the coalescing plane packs
// concurrent messages sharing a lane into multi-message packets, so the
// per-packet costs (credit acquire, send, receive) amortize while the
// message counts the traffic table reports stay exact.
func TestWriteFanoutCoalescesPackets(t *testing.T) {
	const (
		nodes   = 3
		writers = 16
		perKey  = 25
	)
	c := newTestCluster(t, Config{
		Nodes: nodes, System: CCKVS, Protocol: core.Lin,
		NumKeys: 1000, CacheItems: 64, WorkersPerNode: 1,
	})
	// One writer goroutine per key, all keys hot and all — WorkersPerNode=1 —
	// owned by the same worker, so every message rides that worker's lanes.
	// Distinct keys keep the counts exact: no write ever conflicts, so no
	// retry can broadcast twice.
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := uint64(g)
			for i := 0; i < perKey; i++ {
				if err := c.Node(0).Put(key, bytes.Repeat([]byte{byte(g<<4 | i&0xF)}, 40)); err != nil {
					errs <- fmt.Errorf("writer %d put %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Exactly N writes * (nodes-1) peers messages per class. Invalidations
	// and acks complete before each Put returns; the update broadcast is
	// asynchronous (enqueued, then Put returns), so poll it to quiescence.
	const want = uint64(writers * perKey * (nodes - 1))
	tr := c.FabricStats().Traffic
	deadline := time.Now().Add(5 * time.Second)
	for tr.Packets(metrics.ClassUpdate) < want {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for _, cl := range []metrics.MsgClass{metrics.ClassInvalidate, metrics.ClassAck, metrics.ClassUpdate} {
		if got := tr.Packets(cl); got != want {
			t.Fatalf("%v messages = %d, want exactly %d (N writes * (nodes-1))", cl, got, want)
		}
	}

	// The whole point: far fewer packets than messages. ConMsgs/ConPackets
	// aggregates every coalesced consistency packet actually sent.
	var pkts, msgs uint64
	for i := 0; i < nodes; i++ {
		pkts += c.Node(i).ConPackets.Load()
		msgs += c.Node(i).ConMsgs.Load()
	}
	if pkts == 0 || msgs == 0 {
		t.Fatalf("no coalesced consistency traffic recorded (pkts=%d msgs=%d)", pkts, msgs)
	}
	factor := float64(msgs) / float64(pkts)
	if factor < 1.5 {
		t.Fatalf("consistency coalescing factor %.2f msgs/pkt (msgs=%d pkts=%d); concurrent fan-out must coalesce",
			factor, msgs, pkts)
	}
	// The per-class histogram agrees (it records span sizes per packet).
	co := c.FabricStats().Coalesce
	if co.Hist(metrics.ClassInvalidate).Count() == 0 {
		t.Fatal("coalescing histogram recorded no invalidation packets")
	}
	t.Logf("fan-out coalescing: %.2f msgs/pkt overall (%s)", factor, co)
}

// Per-key ordering under coalesced flushes and a mid-flight view flip: one
// writer per key drives monotonically increasing sequence values through
// both survivors while node 2 is manually excised and re-admitted; readers
// on every live member must never observe a key's sequence go backwards.
// Under -race this also shakes out data races between the lane senders, the
// budget drop in the view change, and the rejoin's budget restore.
func TestConsistencyOrderingAcrossViewFlip(t *testing.T) {
	const down = 2
	cfg := Config{
		Nodes: 3, System: CCKVS, Protocol: core.Lin,
		// ValueSize 16: seed values must not decode as 8-byte sequences.
		NumKeys: 1024, CacheItems: 16, ValueSize: 16, WorkersPerNode: 1,
	}
	members := newChanMembers(t, cfg)
	hot := DefaultHotSet(cfg.CacheItems)
	if _, err := members[0].ApplyHotSet(0, hot); err != nil {
		t.Fatal(err)
	}
	keys := hot[:6]
	survivors := []*Cluster{members[0], members[1]}

	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	// Writers: per-key sequences through a fixed survivor (Lin writes to the
	// same key from one node serialize, so the sequence is the write order).
	for ki, k := range keys {
		wg.Add(1)
		go func(ki int, key uint64) {
			defer wg.Done()
			n := survivors[ki%len(survivors)].LocalNode()
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := n.Put(key, encodeChaosSeq(seq)); err != nil {
					fail(fmt.Errorf("writer key %d seq %d: %w", key, seq, err))
					return
				}
			}
		}(ki, k)
	}
	// Readers: per-member monotonicity. A coalesced update applied after a
	// newer invalidation+update pair (an ordering bug in the lane or the
	// flush) would show up as a sequence moving backwards.
	for _, m := range survivors {
		wg.Add(1)
		go func(m *Cluster) {
			defer wg.Done()
			last := make(map[uint64]uint64, len(keys))
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, k := range keys {
					v, err := m.LocalNode().Get(k)
					if err != nil {
						fail(fmt.Errorf("reader member %d key %d: %w", m.self, k, err))
						return
					}
					if seq, ok := decodeChaosSeq(v); ok {
						if seq < last[k] {
							fail(fmt.Errorf("STALE READ member %d key %d: seq %d after %d", m.self, k, seq, last[k]))
							return
						}
						last[k] = seq
					}
				}
			}
		}(m)
	}

	// Flip the view mid-flight, twice: the excision drops node 2's budgets
	// while its lanes hold queued batches (they are discarded at the credit
	// acquire), the rejoin restores budgets under live enqueue traffic.
	for round := 0; round < 2; round++ {
		time.Sleep(50 * time.Millisecond)
		members[0].PeerDown(down, fmt.Errorf("flip %d", round))
		waitViewDown(t, survivors, down, 5*time.Second)
		time.Sleep(50 * time.Millisecond)
		members[0].PeerUp(down)
		members[1].PeerUp(down)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// After quiescence every member (including the re-admitted one) agrees
	// on every key.
	deadline := time.Now().Add(5 * time.Second)
	for _, k := range keys {
		for {
			v0, err := members[0].LocalNode().Get(k)
			if err != nil {
				t.Fatal(err)
			}
			agree := true
			for _, m := range members[1:] {
				v, err := m.LocalNode().Get(k)
				if err != nil || !bytes.Equal(v, v0) {
					agree = false
				}
			}
			if agree {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("key %d never converged after view flips", k)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// A credit budget below eight must not stall the write fan-out: the receiver
// returns credits in batches derived from the sender's budget (an eighth of it,
// at least one), so the sender can never be out of credits while the receiver
// still waits to fill a batch. With the batch fixed at 8 and a budget of 4 this
// hung within the first few writes, and so did Close.
func TestSmallCreditBudgetDoesNotStall(t *testing.T) {
	for _, proto := range []core.Protocol{core.SC, core.Lin} {
		t.Run(proto.String(), func(t *testing.T) {
			c := newTestCluster(t, Config{
				Nodes: 3, System: CCKVS, Protocol: proto,
				NumKeys: 256, CacheItems: 8, ValueSize: 8, CreditsPerPeer: 4,
			})
			done := make(chan error, 1)
			go func() {
				var err error
				for i := 0; i < 1000 && err == nil; i++ {
					err = c.Node(0).Put(0, []byte{byte(i), byte(i >> 8), 0, 0, 0, 0, 0, 0})
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(60 * time.Second):
				t.Fatal("1000 hot writes did not finish: senders are stalled on credits")
			}
		})
	}
}
