package main

import "math"

// Deployment shape shared by every workload: the paper's defaults scaled to
// a 3-node loopback deployment (§8: 40 B values, cache = hottest 1% here so
// the α=0.99 hit rate lands near the paper's ~60%).
const (
	numNodes  = 3
	numKeys   = 1 << 16
	valueSize = 40
	hotKeys   = numKeys / 100 // ranks [0, hotKeys) are the symmetric cache
	inFlight  = 8             // concurrent client calls, every workload (README "Sizing")
	streamLen = 1 << 18       // pre-generated ops per closed-loop caller; a caller wraps around its stream
)

// workloadSpec is one traffic mix. The table is the benchmark's contract:
// BENCHMARK.json names exactly these four.
type workloadSpec struct {
	name    string
	why     string
	alpha   float64 // Zipf exponent; 0 = uniform
	lin     bool    // nodes run -protocol lin
	putFrac float64
	batch   int // ops per client call; 1 = Client.Get/Put, >1 = Client.Batch
}

var workloads = []workloadSpec{
	{"skew-single.sc", "alpha=0.99 single-op frames under SC: per-frame cost (client, session dispatch, TCP syscalls, wake-ups) dominates", 0.99, false, 0.05, 1},
	{"skew-batch.sc", "alpha=0.99 batch-32 frames under SC: per-frame cost amortised, ~60% symmetric-cache hits plus coalesced remote misses", 0.99, false, 0.05, 32},
	{"uniform-batch.sc", "uniform keys, batch 32: ~1% hits, so the cache is bypassed and rpc/pipeline, credits and store do the work", 0, false, 0.05, 32},
	{"skew-write-batch.lin", "alpha=0.99, 50% puts under Lin, batch 32: the same cache entries drive invalidation/ack/update fan-out", 0.99, true, 0.5, 32},
}

// hotSet lists the keys of the symmetric cache: ranks [0, hotKeys).
func hotSet() []uint64 {
	hot := make([]uint64, hotKeys)
	for i := range hot {
		hot[i] = uint64(i)
	}
	return hot
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// The sampler below is a frozen copy of the repo's splitmix64 + Gray/YCSB
// Zipfian generator (internal/zipf at the commit that added the benchmark).
// It is deliberately NOT imported: a later change to internal/zipf or
// internal/workload must not change the traffic this benchmark offers.

type splitMix struct{ state uint64 }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix) float64() float64 { return float64(s.next()>>11) / (1 << 53) }

// zipfGen draws popularity ranks in [0, n); rank 0 is the hottest. Keys are
// their ranks (the nodes place keys by hash, so hot keys scatter over homes).
type zipfGen struct {
	n                        uint64
	zetan, eta, alphaG, half float64
}

func newZipf(n uint64, alpha float64) *zipfGen {
	zeta := func(m uint64) float64 {
		sum := 0.0
		for r := uint64(1); r <= m; r++ {
			sum += math.Pow(float64(r), -alpha)
		}
		return sum
	}
	zetan := zeta(n)
	return &zipfGen{
		n:      n,
		zetan:  zetan,
		alphaG: 1 / (1 - alpha),
		half:   math.Pow(0.5, alpha),
		eta:    (1 - math.Pow(2/float64(n), 1-alpha)) / (1 - zeta(2)/zetan),
	}
}

func (g *zipfGen) next(rng *splitMix) uint64 {
	u := rng.float64()
	uz := u * g.zetan
	switch {
	case uz < 1:
		return 0
	case uz < 1+g.half:
		return 1
	}
	rank := uint64(float64(g.n) * math.Pow(g.eta*u-g.eta+1, g.alphaG))
	if rank >= g.n {
		rank = g.n - 1
	}
	return rank
}

// op is one pre-generated operation: the key in the low 31 bits, the put flag
// in the top bit (4 B/op keeps 8 callers × 256k ops at 8 MB).
type op uint32

const opPut op = 1 << 31

func (o op) key() uint64 { return uint64(o &^ opPut) }
func (o op) isPut() bool { return o&opPut != 0 }

// frame is one client call: which node it is sent to and its ops.
type frame struct {
	node int
	ops  []op
}

// genStream pre-generates length ops of caller c for workload w from seed, cut
// into frames. The same arguments always yield the same frames; nothing here
// reads a clock.
func genStream(w workloadSpec, seed uint64, c, length int) []frame {
	rng := &splitMix{state: seed*0x9e3779b97f4a7c15 + uint64(c)*0xd1b54a32d192ed03 + 1}
	var z *zipfGen
	if w.alpha > 0 {
		z = newZipf(numKeys, w.alpha)
	}
	ops := make([]op, length)
	for i := range ops {
		var k uint64
		if z != nil {
			k = z.next(rng)
		} else {
			k = rng.next() % numKeys
		}
		o := op(k)
		if rng.float64() < w.putFrac {
			o |= opPut
		}
		ops[i] = o
	}
	frames := make([]frame, length/w.batch)
	for i := range frames {
		// Clients spread frames uniformly over the nodes: the paper's
		// black-box load balancing (any node serves any key).
		frames[i] = frame{node: int(rng.next() % numNodes), ops: ops[i*w.batch : (i+1)*w.batch]}
	}
	return frames
}
