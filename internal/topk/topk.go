// Package topk implements the hot-item identification machinery ccKVS uses
// to populate its symmetric caches (EuroSys'18, §4).
//
// The paper adopts the scheme of Li et al.: a memory-efficient top-k stream
// summary (the Space-Saving algorithm of Metwally et al.) maintains an
// approximate key-popularity list; request sampling keeps its update cost off
// the critical path; and an epoch-based coordinator periodically publishes
// the current top-k as the new hot set. Because symmetric caching load
// balances requests across all servers, every server observes the same
// access distribution, so a single coordinator node suffices.
package topk

import (
	"sort"
	"sync"
)

// Entry is one item of the key-popularity list.
type Entry struct {
	Key   uint64
	Count uint64 // estimated hit count
	Err   uint64 // maximum overestimation error (Space-Saving epsilon)
}

// SpaceSaving is the Metwally et al. stream-summary: it tracks at most k
// counters and guarantees that any item with true frequency above n/k is
// present, with count overestimated by at most the smallest counter value.
// It is not safe for concurrent use; wrap it in a Sampler or Coordinator.
type SpaceSaving struct {
	k     int
	index map[uint64]int // key -> slot
	slots []Entry
}

// NewSpaceSaving returns a summary with capacity k (k must be positive).
func NewSpaceSaving(k int) *SpaceSaving {
	if k <= 0 {
		panic("topk: capacity must be positive")
	}
	return &SpaceSaving{
		k:     k,
		index: make(map[uint64]int, k),
		slots: make([]Entry, 0, k),
	}
}

// Len returns the number of tracked keys.
func (s *SpaceSaving) Len() int { return len(s.slots) }

// Observe records one access to key.
func (s *SpaceSaving) Observe(key uint64) {
	if i, ok := s.index[key]; ok {
		s.slots[i].Count++
		return
	}
	if len(s.slots) < s.k {
		s.index[key] = len(s.slots)
		s.slots = append(s.slots, Entry{Key: key, Count: 1})
		return
	}
	// Replace the current minimum: the new key inherits min+1 with error min.
	mi := s.minSlot()
	min := s.slots[mi]
	delete(s.index, min.Key)
	s.slots[mi] = Entry{Key: key, Count: min.Count + 1, Err: min.Count}
	s.index[key] = mi
}

func (s *SpaceSaving) minSlot() int {
	mi := 0
	for i := 1; i < len(s.slots); i++ {
		if s.slots[i].Count < s.slots[mi].Count {
			mi = i
		}
	}
	return mi
}

// Estimate returns the estimated count for key and whether it is tracked.
func (s *SpaceSaving) Estimate(key uint64) (Entry, bool) {
	i, ok := s.index[key]
	if !ok {
		return Entry{}, false
	}
	return s.slots[i], true
}

// Top returns the n highest-count entries in descending count order.
func (s *SpaceSaving) Top(n int) []Entry {
	out := make([]Entry, len(s.slots))
	copy(out, s.slots)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// Reset clears the summary for a new epoch.
func (s *SpaceSaving) Reset() {
	s.index = make(map[uint64]int, s.k)
	s.slots = s.slots[:0]
}

// Sampler wraps a SpaceSaving summary with request sampling: only one in
// `rate` observations is forwarded to the summary, which the paper uses to
// keep frequency counting off the critical path. Safe for concurrent use.
type Sampler struct {
	mu    sync.Mutex
	ss    *SpaceSaving
	rate  uint64
	ticks uint64
}

// NewSampler returns a sampler forwarding 1/rate observations (rate >= 1).
func NewSampler(k int, rate uint64) *Sampler {
	if rate == 0 {
		rate = 1
	}
	return &Sampler{ss: NewSpaceSaving(k), rate: rate}
}

// Observe possibly records the access, per the sampling rate.
func (s *Sampler) Observe(key uint64) {
	s.mu.Lock()
	s.ticks++
	if s.ticks%s.rate == 0 {
		s.ss.Observe(key)
	}
	s.mu.Unlock()
}

// Top returns the current top-n entries.
func (s *Sampler) Top(n int) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ss.Top(n)
}

// TopAndReset atomically snapshots the top-n entries and starts a new
// epoch: an observation lands either in the returned snapshot or in the
// next epoch, never in neither (a separate Top-then-Reset would drop
// whatever arrived in between).
func (s *Sampler) TopAndReset(n int) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.ss.Top(n)
	s.ss.Reset()
	s.ticks = 0
	return out
}

// Reset starts a new epoch.
func (s *Sampler) Reset() {
	s.mu.Lock()
	s.ss.Reset()
	s.ticks = 0
	s.mu.Unlock()
}

// HotSet is an immutable published set of hot keys, the content of the
// symmetric caches for one epoch.
type HotSet struct {
	Epoch uint64
	Keys  []uint64
	set   map[uint64]struct{}
}

// Contains reports whether key is in the hot set.
func (h *HotSet) Contains(key uint64) bool {
	_, ok := h.set[key]
	return ok
}

// Size returns the number of hot keys.
func (h *HotSet) Size() int { return len(h.Keys) }

// newHotSet builds a HotSet from keys.
func newHotSet(epoch uint64, keys []uint64) *HotSet {
	set := make(map[uint64]struct{}, len(keys))
	for _, k := range keys {
		set[k] = struct{}{}
	}
	return &HotSet{Epoch: epoch, Keys: keys, set: set}
}

// Coordinator is the single cache coordinator of §4: it aggregates sampled
// observations, and at each epoch boundary publishes the top `cacheSize` keys
// as the new hot set. Subscribers (the nodes' symmetric caches) receive the
// published set via the callback registered with Subscribe. Thread-safe.
type Coordinator struct {
	mu        sync.Mutex
	sampler   *Sampler
	cacheSize int
	epoch     uint64
	current   *HotSet
	subs      []func(*HotSet)
	// churn counts keys added/removed across epochs, mirroring the paper's
	// observation that only a handful of keys change per epoch.
	lastAdded, lastRemoved int
}

// NewCoordinator returns a coordinator that will publish hot sets of
// cacheSize keys, tracking trackK >= cacheSize candidates with the given
// sampling rate.
func NewCoordinator(cacheSize, trackK int, sampleRate uint64) *Coordinator {
	if trackK < cacheSize {
		trackK = cacheSize
	}
	return &Coordinator{
		sampler:   NewSampler(trackK, sampleRate),
		cacheSize: cacheSize,
		current:   newHotSet(0, nil),
	}
}

// Observe feeds one sampled request key to the coordinator.
func (c *Coordinator) Observe(key uint64) { c.sampler.Observe(key) }

// Seed installs an initial hot set (epoch 0) without publishing to
// subscribers, so churn across the first real epoch is measured against
// the bootstrap content rather than an empty set.
func (c *Coordinator) Seed(keys []uint64) {
	c.mu.Lock()
	c.current = newHotSet(0, append([]uint64(nil), keys...))
	c.mu.Unlock()
}

// Current returns the most recently published hot set.
func (c *Coordinator) Current() *HotSet {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.current
}

// Subscribe registers a callback invoked (synchronously) with every newly
// published hot set.
func (c *Coordinator) Subscribe(fn func(*HotSet)) {
	c.mu.Lock()
	c.subs = append(c.subs, fn)
	c.mu.Unlock()
}

// EndEpoch closes the current epoch: the top cacheSize keys observed since
// the previous epoch boundary become the new hot set, which is published to
// all subscribers. The epoch always rolls, and the returned (added, removed)
// churn always describes the published set relative to the previous one:
// when the epoch observed too few distinct keys to fill the cache — a short
// epoch, aggressive sampling, or an idle system — incumbent keys are
// retained to fill the remainder rather than shrinking (or, in the extreme,
// clearing) the hot set, so an empty epoch publishes the previous set again
// with zero churn. The sampler is reset so each epoch measures popularity
// afresh, which is what lets the hot set track a moving workload.
//
// Selection applies demotion hysteresis: candidates are ranked by their
// epoch count with incumbents' counts doubled, so an incumbent is displaced
// only by a challenger observed more than twice as often. Below the first
// few dozen ranks of a Zipf distribution the estimated counts are nearly
// tied, so a memoryless top-k re-rolls its tail every epoch; the sticky
// factor suppresses that noise (churn then tracks genuine popularity
// shifts, the "handful of keys per epoch" the paper observes) while both a
// clearly hotter challenger and a hotspot move still churn the set — cold
// incumbents stop being observed and score zero.
func (c *Coordinator) EndEpoch() (*HotSet, int, int) {
	scored := c.sampler.TopAndReset(2 * c.cacheSize)

	c.mu.Lock()
	incumbent := make(map[uint64]struct{}, len(c.current.Keys))
	for _, k := range c.current.Keys {
		incumbent[k] = struct{}{}
	}
	for i := range scored {
		if _, ok := incumbent[scored[i].Key]; ok {
			scored[i].Count *= 2 // sticky factor
		}
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Count != scored[j].Count {
			return scored[i].Count > scored[j].Count
		}
		return scored[i].Key < scored[j].Key
	})
	keys := make([]uint64, 0, c.cacheSize)
	seen := make(map[uint64]struct{}, c.cacheSize)
	add := func(k uint64) {
		if _, dup := seen[k]; !dup && len(keys) < c.cacheSize {
			seen[k] = struct{}{}
			keys = append(keys, k)
		}
	}
	for _, e := range scored {
		add(e.Key)
	}
	// Incumbent backfill for short epochs (too few distinct keys observed
	// to fill the cache), hottest-first order preserved.
	for _, k := range c.current.Keys {
		add(k)
	}
	c.epoch++
	next := newHotSet(c.epoch, keys)
	added, removed := 0, 0
	for _, k := range keys {
		if !c.current.Contains(k) {
			added++
		}
	}
	for _, k := range c.current.Keys {
		if !next.Contains(k) {
			removed++
		}
	}
	c.current = next
	c.lastAdded, c.lastRemoved = added, removed
	subs := append([]func(*HotSet){}, c.subs...)
	c.mu.Unlock()

	for _, fn := range subs {
		fn(next)
	}
	return next, added, removed
}

// Churn returns the (added, removed) key counts of the last epoch change.
func (c *Coordinator) Churn() (int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastAdded, c.lastRemoved
}
