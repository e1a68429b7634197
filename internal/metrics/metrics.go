// Package metrics provides the measurement primitives used by the ccKVS
// reproduction: sharded counters for hot-path statistics, log-bucketed
// latency histograms with percentile queries (Figure 13c), and per-message
// class network traffic accounting (Figure 11).
package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// Counter is a monotonically increasing counter safe for concurrent use.
// It is padded to a cache line: counters are laid out adjacently in hot
// structs (cluster.Node, fabric.Stats), and without the padding every
// increment invalidates its neighbours' lines on other cores — measurable
// false sharing once a node runs many workers.
type Counter struct {
	v atomic.Uint64
	_ [cacheLineSize - 8]byte
}

// cacheLineSize is the coherence granularity the padding targets (64 B on
// every platform this runs on; ARM big cores use 128 B but 64 B still
// removes same-word sharing).
const cacheLineSize = 64

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Reset zeroes the counter and returns the previous value.
func (c *Counter) Reset() uint64 { return c.v.Swap(0) }

// Histogram is a fixed-layout latency histogram with logarithmically sized
// buckets. It records values in nanoseconds (or any other unit; percentiles
// come back in the same unit). Recording is lock-free. The three hot
// atomics every Record touches (count, sum, max) each sit on their own
// cache line so concurrent recorders do not false-share them.
type Histogram struct {
	count   Counter
	sum     Counter
	max     atomic.Uint64
	_       [cacheLineSize - 8]byte
	buckets []atomic.Uint64
}

// numBuckets covers values up to ~2^48 with ~4% relative resolution:
// 48 octaves x 16 sub-buckets.
const (
	histOctaves = 48
	histSub     = 16
	numBuckets  = histOctaves * histSub
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make([]atomic.Uint64, numBuckets)}
}

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := 63 - leadingZeros(v)
	sub := (v >> (uint(exp) - 4)) & (histSub - 1)
	idx := (exp-3)*histSub + int(sub)
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

func leadingZeros(v uint64) int {
	n := 0
	if v == 0 {
		return 64
	}
	for v&(1<<63) == 0 {
		v <<= 1
		n++
	}
	return n
}

// bucketMid returns a representative value for bucket idx (its lower bound).
func bucketMid(idx int) uint64 {
	if idx < histSub {
		return uint64(idx)
	}
	exp := idx/histSub + 3
	sub := idx % histSub
	return (1 << uint(exp)) | uint64(sub)<<(uint(exp)-4)
}

// Record adds a single observation.
func (h *Histogram) Record(v uint64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the average observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(c)
}

// Max returns the largest recorded observation.
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Percentile returns the value at quantile q in [0, 1], e.g. 0.95 for the
// 95th percentile reported in Figure 13c.
func (h *Histogram) Percentile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			return bucketMid(i)
		}
	}
	return h.max.Load()
}

// Snapshot returns a point-in-time copy usable without further
// synchronization.
func (h *Histogram) Snapshot() HistSnapshot {
	return HistSnapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Percentile(0.50),
		P95:   h.Percentile(0.95),
		P99:   h.Percentile(0.99),
		Max:   h.Max(),
	}
}

// HistSnapshot is a summarized histogram.
type HistSnapshot struct {
	Count         uint64
	Mean          float64
	P50, P95, P99 uint64
	Max           uint64
}

// String renders the snapshot compactly.
func (s HistSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p95=%d p99=%d max=%d",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

// MsgClass labels the message classes whose bandwidth shares Figure 11
// breaks down.
type MsgClass int

// Message classes in the order the paper's Figure 11 stacks them.
const (
	ClassCacheMiss   MsgClass = iota // remote KVS requests + responses
	ClassUpdate                      // SC/Lin value broadcasts
	ClassInvalidate                  // Lin invalidations
	ClassAck                         // Lin acknowledgements
	ClassFlowControl                 // explicit credit updates
	numClasses
)

// String returns the class label used in tables.
func (c MsgClass) String() string {
	switch c {
	case ClassCacheMiss:
		return "cache misses"
	case ClassUpdate:
		return "updates"
	case ClassInvalidate:
		return "invalidates"
	case ClassAck:
		return "acks"
	case ClassFlowControl:
		return "flow control"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Classes lists all message classes in display order.
func Classes() []MsgClass {
	return []MsgClass{ClassCacheMiss, ClassUpdate, ClassInvalidate, ClassAck, ClassFlowControl}
}

// Traffic accumulates bytes and packets per message class. All methods are
// safe for concurrent use.
type Traffic struct {
	bytes   [numClasses]atomic.Uint64
	packets [numClasses]atomic.Uint64
}

// NewTraffic returns an empty traffic accountant.
func NewTraffic() *Traffic { return &Traffic{} }

// Add records a message of the given class.
func (t *Traffic) Add(c MsgClass, bytes uint64) {
	t.bytes[c].Add(bytes)
	t.packets[c].Add(1)
}

// AddN records n messages totalling the given bytes.
func (t *Traffic) AddN(c MsgClass, packets, bytes uint64) {
	t.bytes[c].Add(bytes)
	t.packets[c].Add(packets)
}

// Bytes returns the bytes recorded for a class.
func (t *Traffic) Bytes(c MsgClass) uint64 { return t.bytes[c].Load() }

// Packets returns the packets recorded for a class.
func (t *Traffic) Packets(c MsgClass) uint64 { return t.packets[c].Load() }

// Coalescing tracks how many messages of each class ride in each sent
// packet — the achieved coalescing factor of the multi-message fan-out path
// (§6.3: header-only invalidations and acks dominate message count under
// write-heavy skew, so packing several per packet is where the fan-out
// savings come from). One histogram per class; a mean near 1 means the lane
// was idle and every message flushed alone (its packets may still share a
// socket write with other traffic to the peer), a mean well above 1 means
// batching engaged under load.
type Coalescing struct {
	hists [numClasses]*Histogram
}

// NewCoalescing returns an empty coalescing tracker.
func NewCoalescing() *Coalescing {
	c := &Coalescing{}
	for i := range c.hists {
		c.hists[i] = NewHistogram()
	}
	return c
}

// Record notes that msgs messages of class c travelled in one packet.
func (c *Coalescing) Record(cl MsgClass, msgs uint64) {
	c.hists[cl].Record(msgs)
}

// Hist returns the messages-per-packet histogram for a class.
func (c *Coalescing) Hist(cl MsgClass) *Histogram { return c.hists[cl] }

// String renders the nonzero per-class coalescing factors.
func (c *Coalescing) String() string {
	parts := make([]string, 0, numClasses)
	for _, cl := range Classes() {
		if h := c.hists[cl]; h.Count() > 0 {
			parts = append(parts, fmt.Sprintf("%s %.2f msgs/pkt", cl, h.Mean()))
		}
	}
	if len(parts) == 0 {
		return "no coalesced packets"
	}
	return strings.Join(parts, ", ")
}
