package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d", c.Load())
	}
	if prev := c.Reset(); prev != 5 || c.Load() != 0 {
		t.Fatalf("reset returned %d, now %d", prev, c.Load())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("lost increments: %d", c.Load())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Percentile(0.5) != 0 || h.Count() != 0 {
		t.Fatalf("empty histogram must report zeros")
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	h := NewHistogram()
	for v := uint64(0); v < 16; v++ {
		h.Record(v)
	}
	if h.Count() != 16 {
		t.Fatalf("count=%d", h.Count())
	}
	if got := h.Percentile(0); got != 0 {
		t.Fatalf("p0=%d", got)
	}
	if got := h.Max(); got != 15 {
		t.Fatalf("max=%d", got)
	}
	if m := h.Mean(); math.Abs(m-7.5) > 1e-9 {
		t.Fatalf("mean=%v", m)
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	h := NewHistogram()
	// Uniform 1..10000; p95 must come back within bucket resolution (~7%).
	for v := uint64(1); v <= 10000; v++ {
		h.Record(v)
	}
	p95 := float64(h.Percentile(0.95))
	if p95 < 9500*0.90 || p95 > 9500*1.10 {
		t.Fatalf("p95 = %v, want ~9500", p95)
	}
	p50 := float64(h.Percentile(0.50))
	if p50 < 5000*0.90 || p50 > 5000*1.10 {
		t.Fatalf("p50 = %v, want ~5000", p50)
	}
}

func TestHistogramQuantileClamping(t *testing.T) {
	h := NewHistogram()
	h.Record(42)
	if h.Percentile(-1) == 0 && h.Percentile(2) == 0 {
		t.Fatalf("clamped quantiles must still return data")
	}
}

// Property: percentiles are monotone in q.
func TestHistogramMonotoneProperty(t *testing.T) {
	h := NewHistogram()
	for v := uint64(1); v < 5000; v += 7 {
		h.Record(v * v % 100000)
	}
	f := func(a, b uint8) bool {
		qa := float64(a) / 255
		qb := float64(b) / 255
		if qa > qb {
			qa, qb = qb, qa
		}
		return h.Percentile(qa) <= h.Percentile(qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for j := uint64(0); j < 5000; j++ {
				h.Record(base + j)
			}
		}(uint64(i) * 1000)
	}
	wg.Wait()
	if h.Count() != 20000 {
		t.Fatalf("count=%d", h.Count())
	}
}

func TestSnapshotString(t *testing.T) {
	h := NewHistogram()
	h.Record(10)
	s := h.Snapshot()
	if s.Count != 1 || s.String() == "" {
		t.Fatalf("snapshot: %+v", s)
	}
}

func TestTrafficPacketsAndAddN(t *testing.T) {
	tr := NewTraffic()
	tr.AddN(ClassUpdate, 10, 830)
	if tr.Packets(ClassUpdate) != 10 || tr.Bytes(ClassUpdate) != 830 {
		t.Fatalf("AddN accounting wrong: %d pkts %d bytes",
			tr.Packets(ClassUpdate), tr.Bytes(ClassUpdate))
	}
}

func TestMsgClassString(t *testing.T) {
	want := map[MsgClass]string{
		ClassCacheMiss:   "cache misses",
		ClassUpdate:      "updates",
		ClassInvalidate:  "invalidates",
		ClassAck:         "acks",
		ClassFlowControl: "flow control",
	}
	for c, w := range want {
		if c.String() != w {
			t.Fatalf("%d: %q", int(c), c.String())
		}
	}
	if MsgClass(99).String() == "" {
		t.Fatalf("unknown class must still render")
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Record(uint64(i) % 100000)
	}
}
