package cluster

import "sync"

// The per-peer send lane: §6.3's opportunistic batching, written once. A
// worker's outbound traffic toward each peer — remote requests (pipeline.go),
// consistency messages (consistency.go) — queues on a lane whose sender
// goroutine drains whatever is pending into one batch, up to a message and a
// byte bound, and hands the batch to a flush function that encodes it, charges
// its credit and sends it. A lane that runs dry flushes at once, so an isolated
// item never waits for company: concurrency is the only source of coalescing
// (a single closed-loop caller sees one item per packet, many callers — or one
// executor run over a batch — see full packets). Packets of different lanes to
// one peer meet again below: the TCP transport stages every frame for a
// connection and writes them together. What differs between the planes lives
// in their flush functions; nothing here knows which it serves.

// laneBounds caps one batch: at most maxMsgs items, of at most maxBytes
// encoded size together (size prices one item).
type laneBounds[T any] struct {
	maxMsgs  int
	maxBytes int
	size     func(T) int
}

// drain moves whatever is already pending on q onto batch, whose items weigh
// bytes so far, until q is dry or closed or a bound is reached; it never
// waits. An item that would push the batch past maxBytes has already left the
// queue: it is returned (the carry), to open the next batch (an item oversize on
// its own still ships, alone — it must go somehow).
func (b laneBounds[T]) drain(q <-chan T, batch []T, bytes int) ([]T, int, *T) {
	for len(batch) < b.maxMsgs && bytes < b.maxBytes {
		select {
		case it, ok := <-q:
			if !ok {
				return batch, bytes, nil
			}
			sz := b.size(it)
			if bytes+sz > b.maxBytes {
				// Allocated on this rare path only, so a plain receive does
				// not pay for an escaping loop variable.
				carry := new(T)
				*carry = it
				return batch, bytes, carry
			}
			batch = append(batch, it)
			bytes += sz
		default:
			return batch, bytes, nil // dry: flush now, never wait
		}
	}
	return batch, bytes, nil
}

// peerLanes is one worker's set of send lanes, one per remote peer, each with
// its own sender goroutine.
type peerLanes[T any] struct {
	bounds laneBounds[T]

	mu     sync.RWMutex
	queues map[uint8]chan T
	closed bool
	wg     sync.WaitGroup
}

// newPeerLanes starts one lane of the given queue depth toward every peer but
// self. flusher is called once per peer and returns that lane's flush function
// — called from the lane's sender goroutine only, so it may keep encode
// buffers between calls — which takes a batch and its encoded size.
func newPeerLanes[T any](self uint8, peers, depth int, bounds laneBounds[T], flusher func(peer uint8) func(batch []T, bytes int)) *peerLanes[T] {
	pl := &peerLanes[T]{bounds: bounds, queues: make(map[uint8]chan T, peers)}
	for peer := 0; peer < peers; peer++ {
		if peer == int(self) {
			continue
		}
		q := make(chan T, depth)
		pl.queues[uint8(peer)] = q
		pl.wg.Add(1)
		go pl.sender(q, flusher(uint8(peer)))
	}
	return pl
}

// enqueue hands one item to peer's lane, blocking while the lane is full
// (backpressure on the caller). It reports false, with the item not queued,
// once the lanes are closed or when there is no lane toward peer.
func (pl *peerLanes[T]) enqueue(peer uint8, it T) bool {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	q := pl.queues[peer]
	if pl.closed || q == nil {
		return false
	}
	// The channel send stays under the read lock so close() cannot close the
	// queue between the check and the send.
	q <- it
	return true
}

// post is enqueue for callers that must never block (receive dispatchers): on
// a full lane it queues nothing and reports full, leaving the caller to get
// the item out some other way.
func (pl *peerLanes[T]) post(peer uint8, it T) (queued, full bool) {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	q := pl.queues[peer]
	if pl.closed || q == nil {
		return false, false
	}
	select {
	case q <- it:
		return true, false
	default:
		return false, true
	}
}

// sender turns one lane's queue into batches until the queue is closed and
// empty. Each iteration takes one item — the carried one, or else blocking —
// then drains what else is pending behind it.
func (pl *peerLanes[T]) sender(q <-chan T, flush func(batch []T, bytes int)) {
	defer pl.wg.Done()
	batch := make([]T, 0, pl.bounds.maxMsgs)
	var carry *T
	for {
		batch = batch[:0]
		if carry != nil {
			batch = append(batch, *carry)
		} else if first, ok := <-q; ok {
			batch = append(batch, first)
		} else {
			return
		}
		var bytes int
		batch, bytes, carry = pl.bounds.drain(q, batch, pl.bounds.size(batch[0]))
		flush(batch, bytes)
	}
}

// close stops accepting items and waits for the senders to drain: what is
// queued is still flushed (so call this while the transport is up), anything
// offered afterwards is refused.
func (pl *peerLanes[T]) close() {
	pl.mu.Lock()
	if pl.closed {
		pl.mu.Unlock()
		return
	}
	pl.closed = true
	for _, q := range pl.queues {
		close(q)
	}
	pl.mu.Unlock()
	pl.wg.Wait()
}
