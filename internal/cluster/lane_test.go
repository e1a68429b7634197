package cluster

import (
	"reflect"
	"testing"
)

// heldLane is a one-lane peerLanes[int] (node 0 toward node 1; an item's value
// is its encoded size) whose scripted flush function records every batch and
// parks inside the first flush until release. While it is parked nothing
// drains the lane, so a test queues exactly what the next drain will find.
type heldLane struct {
	pl      *peerLanes[int]
	flushed chan []int // every batch, in flush order; deeper than any script here
	gate    chan struct{}
}

// holdPeerLane starts the lane and parks it inside the flush of `first`.
func holdPeerLane(t *testing.T, depth, maxMsgs, maxBytes int, first int) *heldLane {
	t.Helper()
	h := &heldLane{flushed: make(chan []int, 64), gate: make(chan struct{})}
	bounds := laneBounds[int]{maxMsgs: maxMsgs, maxBytes: maxBytes, size: func(v int) int { return v }}
	h.pl = newPeerLanes(0, 2, depth, bounds, func(peer uint8) func([]int, int) {
		if peer != 1 {
			t.Errorf("lane started toward peer %d", peer)
		}
		return func(batch []int, bytes int) {
			sum := 0
			for _, v := range batch {
				sum += v
			}
			if sum != bytes {
				t.Errorf("batch %v flushed with size %d, want %d", batch, bytes, sum)
			}
			h.flushed <- append([]int(nil), batch...)
			<-h.gate
		}
	})
	if !h.pl.enqueue(1, first) {
		t.Fatal("fresh lane refused an item")
	}
	if got := <-h.flushed; !reflect.DeepEqual(got, []int{first}) {
		t.Fatalf("an item alone on the lane was flushed as %v", got)
	}
	return h // the sender is now inside flush, or about to park there
}

// releaseAndClose lets the sender run, closes the lanes — which returns only
// once everything queued was flushed — and returns the batches flushed since
// the hold.
func (h *heldLane) releaseAndClose() [][]int {
	close(h.gate)
	h.pl.close()
	close(h.flushed)
	var got [][]int
	for b := range h.flushed {
		got = append(got, b)
	}
	return got
}

func TestPeerLanes(t *testing.T) {
	for _, tc := range []struct {
		name              string
		maxMsgs, maxBytes int
		queued            []int // enqueued while the lane is held
		want              [][]int
	}{
		{"message bound", 3, 1000, []int{1, 2, 3, 4, 5, 6, 7}, [][]int{{1, 2, 3}, {4, 5, 6}, {7}}},
		{"byte bound carries the item that does not fit", 16, 10, []int{4, 5, 3, 2, 9}, [][]int{{4, 5}, {3, 2}, {9}}},
		{"byte bound reached exactly", 16, 10, []int{4, 6, 1}, [][]int{{4, 6}, {1}}},
		{"oversize item ships alone", 16, 10, []int{2, 25, 3}, [][]int{{2}, {25}, {3}}},
		{"oversize item first", 16, 10, []int{25, 3, 3}, [][]int{{25}, {3, 3}}},
		{"nothing queued", 16, 10, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := holdPeerLane(t, len(tc.queued)+1, tc.maxMsgs, tc.maxBytes, 1)
			for _, v := range tc.queued {
				if !h.pl.enqueue(1, v) {
					t.Fatalf("item %d refused", v)
				}
			}
			// close flushes what was queued: no batch is awaited here.
			if got := h.releaseAndClose(); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("queued %v under bounds (%d msgs, %d bytes): flushed %v, want %v",
					tc.queued, tc.maxMsgs, tc.maxBytes, got, tc.want)
			}
		})
	}

	t.Run("post on a full lane reports full without blocking", func(t *testing.T) {
		h := holdPeerLane(t, 2, 16, 1000, 1)
		if queued, full := h.pl.post(1, 2); !queued || full {
			t.Fatalf("post with room: queued=%v full=%v", queued, full)
		}
		if !h.pl.enqueue(1, 3) {
			t.Fatal("enqueue with room refused")
		}
		if queued, full := h.pl.post(1, 4); queued || !full {
			t.Fatalf("post on a full lane: queued=%v full=%v", queued, full)
		}
		if got, want := h.releaseAndClose(), [][]int{{2, 3}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("flushed %v, want %v (the refused item must not appear)", got, want)
		}
	})

	t.Run("no lane toward self or an unknown peer", func(t *testing.T) {
		h := holdPeerLane(t, 2, 16, 1000, 1)
		for _, peer := range []uint8{0, 2} {
			if h.pl.enqueue(peer, 5) {
				t.Errorf("enqueue toward peer %d accepted", peer)
			}
			if queued, full := h.pl.post(peer, 5); queued || full {
				t.Errorf("post toward peer %d: queued=%v full=%v", peer, queued, full)
			}
		}
		if got := h.releaseAndClose(); got != nil {
			t.Fatalf("flushed %v", got)
		}
	})

	t.Run("closed lanes refuse", func(t *testing.T) {
		h := holdPeerLane(t, 2, 16, 1000, 1)
		h.releaseAndClose()
		if h.pl.enqueue(1, 6) {
			t.Error("enqueue after close accepted")
		}
		if queued, full := h.pl.post(1, 6); queued || full {
			t.Errorf("post after close: queued=%v full=%v", queued, full)
		}
		h.pl.close() // idempotent
	})
}
