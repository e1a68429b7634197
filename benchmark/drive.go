package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// A put's value describes itself, so any read can be checked without knowing
// what ran before it: [0:8] key echo, [8:12] writer (caller) id, [12:20] the
// writer's put sequence number, [20:40] filler.
const (
	stampFill   = 0x5A
	spanCapEach = 4096 // spans kept per caller for the trace file; summaries use every op
)

func putStamp(dst []byte, key uint64, writer uint32, seq uint64) {
	binary.LittleEndian.PutUint64(dst[0:8], key)
	binary.LittleEndian.PutUint32(dst[8:12], writer)
	binary.LittleEndian.PutUint64(dst[12:20], seq)
	for i := 20; i < valueSize; i++ {
		dst[i] = stampFill
	}
}

// populated reports whether v is the value cckvs-node loads for key at start.
func populated(key uint64, v []byte) bool {
	if len(v) != valueSize {
		return false
	}
	for j := range v {
		if v[j] != byte(key)^byte(j) {
			return false
		}
	}
	return true
}

// parseStamp decodes a well-formed stamp for key; ok is false for anything
// else (wrong length, wrong key echo, bad filler).
func parseStamp(key uint64, v []byte) (writer uint32, seq uint64, ok bool) {
	if len(v) != valueSize || binary.LittleEndian.Uint64(v[0:8]) != key {
		return 0, 0, false
	}
	for _, b := range v[20:] {
		if b != stampFill {
			return 0, 0, false
		}
	}
	return binary.LittleEndian.Uint32(v[8:12]), binary.LittleEndian.Uint64(v[12:20]), true
}

// Op classes, inferred from outside the program: key rank below hotKeys means
// the symmetric cache holds it; otherwise the key's home decides.
const (
	classGetHit = iota
	classGetLocal
	classGetRemote
	classPutHot
	classPutColdLocal
	classPutColdRemote
	numClasses
)

var classNames = [numClasses]string{"get_hit", "get_local", "get_remote", "put_hot", "put_cold_local", "put_cold_remote"}

func classOf(o op, node int) int {
	c := classGetHit
	if o.isPut() {
		c = classPutHot
	}
	switch {
	case o.key() < hotKeys:
		return c
	case cluster.HomeOf(o.key(), numNodes) == node:
		return c + 1
	}
	return c + 2
}

// rec is one completed client call of the measured window.
type rec struct {
	end int64 // ns since the window opened
	lat int64 // ns
	ops int32
}

// span is one op of a traced call, as written to trace_<workload>.json. The
// ops of one call share its frame id and its times: from outside the program
// a batch frame's ops are indistinguishable in time.
type span struct {
	Class string `json:"class"`
	Node  int    `json:"node"`
	Frame uint64 `json:"frame"`
	Due   int64  `json:"due_ns"` // open loop: scheduled send time; closed loop: equals start
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// caller is one closed-loop session: it sends its pre-generated frames one
// at a time, checks every result and remembers what it wrote.
type caller struct {
	id     int
	frames []frame
	pos    int
	seq    uint64
	issued []atomic.Uint64 // shared: issued[w] = highest sequence writer w has sent
	// lastPut[key] is the sequence of this writer's latest put to key.
	lastPut map[uint64]uint64

	ops  []cluster.Op
	vals []byte // valueSize bytes per op of a frame, reused across calls

	attempted, failed int
	firstErr          error
	recs              []rec
	// traced runs only
	classLat *[numClasses]hist
	spans    []span
}

// newCallers pre-generates n sessions' streams. The first inFlight drive the
// closed loop; any beyond are open-loop workers, whose short windows need
// only short streams.
func newCallers(w workloadSpec, seed uint64, n int) []*caller {
	issued := make([]atomic.Uint64, n)
	cs := make([]*caller, n)
	for i := range cs {
		length := streamLen
		if i >= inFlight {
			length = streamLen / 16
		}
		cs[i] = &caller{
			id: i, frames: genStream(w, seed, i, length), issued: issued,
			lastPut: map[uint64]uint64{},
			ops:     make([]cluster.Op, w.batch),
			vals:    make([]byte, w.batch*valueSize),
		}
	}
	return cs
}

func (c *caller) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// checkGet validates a read of key: the populated value, or a stamp some
// writer has already issued for this key.
func (c *caller) checkGet(key uint64, v []byte, err error) {
	if err != nil {
		c.fail(fmt.Errorf("get %d: %w", key, err))
		return
	}
	if wr, seq, ok := parseStamp(key, v); ok {
		if int(wr) >= len(c.issued) || seq == 0 || seq > c.issued[wr].Load() {
			c.fail(fmt.Errorf("get %d: stamp from writer %d seq %d was never issued", key, wr, seq))
		}
		return
	}
	if !populated(key, v) {
		c.fail(fmt.Errorf("get %d: value %x is neither the populated pattern nor a stamp for this key", key, v))
	}
}

// call sends the caller's next frame and checks its results.
func (c *caller) call(cl *cluster.Client) (f frame) {
	f = c.frames[c.pos]
	if c.pos++; c.pos == len(c.frames) {
		c.pos = 0
	}
	c.attempted += len(f.ops)
	for i, o := range f.ops {
		c.ops[i] = cluster.Op{Kind: cluster.OpGet, Key: o.key()}
		if o.isPut() {
			c.seq++
			v := c.vals[i*valueSize : (i+1)*valueSize]
			putStamp(v, o.key(), uint32(c.id), c.seq)
			c.lastPut[o.key()] = c.seq
			c.ops[i] = cluster.Op{Kind: cluster.OpPut, Key: o.key(), Value: v}
		}
	}
	c.issued[c.id].Store(c.seq)
	if len(f.ops) == 1 {
		if o := f.ops[0]; o.isPut() {
			if err := cl.Put(f.node, o.key(), c.ops[0].Value); err != nil {
				c.fail(fmt.Errorf("put %d: %w", o.key(), err))
			}
		} else {
			v, err := cl.Get(f.node, o.key())
			c.checkGet(o.key(), v, err)
		}
		return f
	}
	rs, _ := cl.Batch(f.node, c.ops[:len(f.ops)]) // a frame-level error is fanned out to every result
	for i := range rs {
		if f.ops[i].isPut() {
			if rs[i].Err != nil {
				c.fail(fmt.Errorf("put %d: %w", f.ops[i].key(), rs[i].Err))
			}
		} else {
			c.checkGet(f.ops[i].key(), rs[i].Value, rs[i].Err)
		}
		rs[i].Release()
	}
	return f
}

// closedLoop runs every caller until the window closes: each sends its next
// frame only after the previous one completed. record keeps per-call records
// (and, when traced, per-op class latencies and spans); a warm-up passes false.
func closedLoop(ctx context.Context, cl *cluster.Client, cs []*caller, window time.Duration, record, traced bool) {
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for _, c := range cs {
		c.recs = c.recs[:0]
		if traced {
			c.classLat = new([numClasses]hist)
			c.spans = make([]span, 0, spanCapEach)
		}
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			var frameID uint64
			for t0 := time.Now(); t0.Before(deadline) && ctx.Err() == nil; {
				f := c.call(cl)
				t1 := time.Now()
				if record {
					lat := int64(t1.Sub(t0))
					c.recs = append(c.recs, rec{end: int64(t1.Sub(start)), lat: lat, ops: int32(len(f.ops))})
					if traced {
						frameID++
						for _, o := range f.ops {
							k := classOf(o, f.node)
							c.classLat[k].add(lat)
							if len(c.spans) < spanCapEach {
								s0 := int64(t0.Sub(start))
								c.spans = append(c.spans, span{classNames[k], f.node, uint64(c.id)<<48 | frameID, s0, s0, s0 + lat})
							}
						}
					}
				}
				t0 = t1
			}
		}(c)
	}
	wg.Wait()
}

// loopStats summarises a measured window. Throughput and the latency
// percentiles are medians over fixed-length segments, so a noisy-neighbour
// episode moves one segment, not the result.
type loopStats struct {
	Ops           int       `json:"ops"`
	Calls         int       `json:"calls"`
	Seconds       float64   `json:"seconds"`
	ThroughputAll float64   `json:"throughput_whole_window_ops_s"`
	Throughput    float64   `json:"throughput_ops_s"`
	P50us         float64   `json:"lat_p50_us"`
	P99us         float64   `json:"lat_p99_us"`
	P999us        float64   `json:"lat_p999_us_whole_window"`
	SegTput       []float64 `json:"segment_throughput_ops_s"`
	SegP50us      []float64 `json:"segment_lat_p50_us"`
	SegP99us      []float64 `json:"segment_lat_p99_us"`
}

func summarise(cs []*caller, window, seg time.Duration) loopStats {
	nseg := max(int(window/seg), 1)
	segLen := int64(window) / int64(nseg)
	segLat := make([][]int64, nseg)
	segOps := make([]int, nseg)
	var all []int64
	st := loopStats{Seconds: window.Seconds()}
	for _, c := range cs {
		for _, r := range c.recs {
			st.Calls++
			st.Ops += int(r.ops)
			all = append(all, r.lat)
			// A call that straddles the deadline completes after it; it belongs
			// to no whole segment and is left out of the segment medians.
			if s := int(r.end / segLen); s < nseg {
				segLat[s] = append(segLat[s], r.lat)
				segOps[s] += int(r.ops)
			}
		}
	}
	for s := range segLat {
		st.SegTput = append(st.SegTput, float64(segOps[s])/(float64(segLen)/1e9))
		if len(segLat[s]) == 0 {
			continue
		}
		sort.Slice(segLat[s], func(i, j int) bool { return segLat[s][i] < segLat[s][j] })
		st.SegP50us = append(st.SegP50us, float64(percentile(segLat[s], 0.50))/1e3)
		st.SegP99us = append(st.SegP99us, float64(percentile(segLat[s], 0.99))/1e3)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	st.ThroughputAll = float64(st.Ops) / window.Seconds()
	st.Throughput = median(st.SegTput)
	st.P50us, st.P99us = median(st.SegP50us), median(st.SegP99us)
	st.P999us = float64(percentile(all, 0.999)) / 1e3
	return st
}

// verifyConvergence reads every key any caller wrote through all three nodes.
// The reads must agree (hot-key updates propagate asynchronously under SC, so
// disagreement is retried until the deadline) and the agreed value must be a
// put that could legally be last. It returns reads attempted and violations.
func verifyConvergence(ctx context.Context, cl *cluster.Client, cs []*caller, w workloadSpec) (attempted, failed int, firstErr error) {
	written := map[uint64]struct{}{}
	for _, c := range cs {
		for k := range c.lastPut {
			written[k] = struct{}{}
		}
	}
	keys := make([]uint64, 0, len(written))
	for k := range written {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	const chunk = 512
	deadline := time.Now().Add(5 * time.Second)
	ops := make([]cluster.Op, chunk)
	vals := make([][numNodes][]byte, chunk)
	for at := 0; at < len(keys); at += chunk {
		ks := keys[at:min(at+chunk, len(keys))]
		for i, k := range ks {
			ops[i] = cluster.Op{Kind: cluster.OpGet, Key: k}
		}
		for {
			agree := true
			for n := 0; n < numNodes; n++ {
				rs, _ := cl.Batch(n, ops[:len(ks)])
				for i := range rs {
					if rs[i].Err != nil {
						fail(fmt.Errorf("verify get %d via node %d: %w", ks[i], n, rs[i].Err))
						vals[i][n] = nil
					} else {
						vals[i][n] = rs[i].ValueCopy()
					}
					rs[i].Release()
					if n > 0 && !bytes.Equal(vals[i][n], vals[i][0]) {
						agree = false
					}
				}
				attempted += len(ks)
			}
			if agree || time.Now().After(deadline) || ctx.Err() != nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		for i, k := range ks {
			v := vals[i][0]
			if !bytes.Equal(v, vals[i][1]) || !bytes.Equal(v, vals[i][2]) {
				fail(fmt.Errorf("key %d did not converge: %x / %x / %x", k, vals[i][0], vals[i][1], vals[i][2]))
				continue
			}
			wr, seq, ok := parseStamp(k, v)
			if !ok || int(wr) >= len(cs) {
				fail(fmt.Errorf("key %d was written but holds %x", k, v))
				continue
			}
			last, wrote := cs[wr].lastPut[k]
			// A writer's calls are sequential, so where real-time order binds
			// (Lin everywhere; a cold key's home shard under SC) only its LAST
			// put to the key can survive. SC hot-key writes issued through
			// different nodes are ordered by Lamport stamps, not real time: an
			// earlier put of the same writer may legally win.
			strict := w.lin || k >= hotKeys
			if !wrote || seq > last || (strict && seq != last) {
				fail(fmt.Errorf("key %d converged to writer %d seq %d, but that writer's last put to it was seq %d", k, wr, seq, last))
			}
		}
	}
	return attempted, failed, firstErr
}
