// Package workload generates the request streams used in the ccKVS
// evaluation: YCSB-style Zipfian or uniform key popularity, a configurable
// write ratio, and configurable object sizes (§7.2 of the paper: 250M keys,
// 8 B keys, 40 B/256 B/1 KB values, write ratios 0–5%, alpha 0.90/0.99/1.01).
package workload

import (
	"fmt"

	"repro/internal/zipf"
)

// OpType distinguishes the generated operation kinds.
type OpType uint8

// Operation kinds.
const (
	Get OpType = iota
	Put
	// FAA is an atomic fetch-and-add (delta 1) against the key's 8-byte
	// counter encoding — the contended-counter op of the RMW workloads.
	FAA
)

// String names the operation.
func (o OpType) String() string {
	switch o {
	case Put:
		return "put"
	case FAA:
		return "faa"
	}
	return "get"
}

// Op is a single generated request. Key is a popularity rank mapped into the
// keyspace (rank 0 = hottest key unless scrambling is enabled); Value is nil
// for gets and FAAs (an FAA adds Delta server-side instead of carrying a
// payload).
type Op struct {
	Type  OpType
	Key   uint64
	Value []byte
	Delta uint64
}

// Config parameterizes a workload.
type Config struct {
	// NumKeys is the dataset size (paper default: 250M; tests use less).
	NumKeys uint64
	// Alpha is the Zipfian exponent; 0 selects a uniform distribution
	// (the paper's "Uniform" workload).
	Alpha float64
	// WriteRatio is the fraction of puts in [0, 1] (e.g. 0.01 for 1%).
	WriteRatio float64
	// RMWFrac is the fraction of atomic fetch-and-adds in [0, 1], drawn
	// from its own coin stream so turning it up does not perturb the
	// get/put sequence. An op is first tried as an RMW, then as a put —
	// with RMWFrac 0.3 and WriteRatio 0.1 the stream is 30% FAA, 7% put.
	RMWFrac float64
	// ValueSize is the object payload size in bytes (default 40).
	ValueSize int
	// Scramble spreads hot ranks across the keyspace (YCSB scrambled
	// Zipfian). Analytics are simplest unscrambled, which is the default.
	Scramble bool
	// Seed makes the stream deterministic.
	Seed uint64
}

// Default values mirroring the paper's setup.
const (
	DefaultValueSize = 40
	DefaultKeySize   = 8
	DefaultAlpha     = 0.99
)

func (c Config) withDefaults() Config {
	if c.ValueSize == 0 {
		c.ValueSize = DefaultValueSize
	}
	if c.NumKeys == 0 {
		c.NumKeys = 1 << 20
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.WriteRatio < 0 || c.WriteRatio > 1 {
		return fmt.Errorf("workload: write ratio %v out of [0,1]", c.WriteRatio)
	}
	if c.RMWFrac < 0 || c.RMWFrac > 1 {
		return fmt.Errorf("workload: rmw fraction %v out of [0,1]", c.RMWFrac)
	}
	if c.Alpha < 0 || c.Alpha == 1 {
		return fmt.Errorf("workload: unsupported alpha %v", c.Alpha)
	}
	if c.ValueSize < 0 {
		return fmt.Errorf("workload: negative value size")
	}
	return nil
}

// keySource abstracts the two popularity distributions.
type keySource interface {
	Next() uint64
}

// Generator produces a deterministic stream of operations. It is not safe
// for concurrent use; create one per client goroutine (use Clone with a
// distinct stream id).
type Generator struct {
	cfg     Config
	keys    keySource
	coin    *coinFlip
	rmwCoin *coinFlip
	value   []byte
	seq     uint64
}

// New builds a generator for the given config.
func New(cfg Config) (*Generator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var src keySource
	if cfg.Alpha == 0 {
		src = zipf.NewUniform(cfg.NumKeys, cfg.Seed^0xa5a5a5a5)
	} else {
		var g *zipf.Generator
		var err error
		if cfg.Scramble {
			g, err = zipf.NewScrambled(cfg.NumKeys, cfg.Alpha, cfg.Seed^0xa5a5a5a5)
		} else {
			g, err = zipf.NewGenerator(cfg.NumKeys, cfg.Alpha, cfg.Seed^0xa5a5a5a5)
		}
		if err != nil {
			return nil, err
		}
		src = g
	}
	gen := &Generator{
		cfg:     cfg,
		keys:    src,
		coin:    newCoinFlip(cfg.Seed ^ 0xc01),  // independent write-coin stream
		rmwCoin: newCoinFlip(cfg.Seed ^ 0xfaa1), // independent rmw-coin stream
		value:   make([]byte, cfg.ValueSize),
	}
	return gen, nil
}

// MustNew is New, panicking on error; for tests and examples.
func MustNew(cfg Config) *Generator {
	g, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Config returns the effective configuration.
func (g *Generator) Config() Config { return g.cfg }

// Next generates the next operation. The returned value slice is reused
// across calls; callers that retain it must copy.
func (g *Generator) Next() Op {
	g.seq++
	key := g.keys.Next()
	// Both coins advance every op, so dialing RMWFrac up or down never
	// perturbs which ops the write coin selects.
	isRMW := g.cfg.RMWFrac > 0 && g.rmwCoin.flip(g.cfg.RMWFrac)
	isPut := g.cfg.WriteRatio > 0 && g.coin.flip(g.cfg.WriteRatio)
	if isRMW {
		return Op{Type: FAA, Key: key, Delta: 1}
	}
	if isPut {
		// Deterministic, distinguishable payload: writer stamps sequence.
		fill(g.value, g.seq)
		return Op{Type: Put, Key: key, Value: g.value}
	}
	return Op{Type: Get, Key: key}
}

// Clone returns an independent generator with the same configuration but a
// decorrelated seed, for per-client streams.
func (g *Generator) Clone(stream uint64) *Generator {
	cfg := g.cfg
	cfg.Seed = zipf.Mix64(cfg.Seed ^ (stream+1)*0x9e3779b97f4a7c15)
	ng, err := New(cfg)
	if err != nil {
		panic(err) // config already validated
	}
	return ng
}

// fill writes a recognizable pattern derived from tag into buf.
func fill(buf []byte, tag uint64) {
	for i := range buf {
		buf[i] = byte(tag>>(8*(uint(i)&7))) ^ byte(i)
	}
}

// coinFlip draws Bernoulli samples from a dedicated PRNG stream.
type coinFlip struct{ state uint64 }

func newCoinFlip(seed uint64) *coinFlip { return &coinFlip{state: seed} }

func (c *coinFlip) flip(p float64) bool {
	c.state = zipf.Mix64(c.state + 0x9e3779b97f4a7c15)
	return float64(c.state>>11)/(1<<53) < p
}
