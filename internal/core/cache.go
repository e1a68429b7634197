package core

import (
	"errors"
	"maps"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/seqlock"
	"repro/internal/timestamp"
)

// Errors returned by cache operations.
var (
	// ErrMiss means the key is not in the hot set; the request must go to
	// the (possibly remote) home KVS shard.
	ErrMiss = errors.New("core: cache miss")
	// ErrInvalid means the key is cached but its replica is invalidated by
	// an in-flight Lin write; the read must be retried once the update
	// arrives (a read "may hit in the cache but may not succeed", §6.2) —
	// Park says when.
	ErrInvalid = errors.New("core: entry invalid, update in flight")
	// ErrWritePending means this node already has an outstanding Lin write
	// for the key; the new write must wait for it to complete.
	ErrWritePending = errors.New("core: write already pending for key")
	// ErrFrozen means the key is being demoted from the hot set: new writes
	// must not land in the dying entry (they would race the write-back to
	// the home shard), so the caller retries until the entry is gone and the
	// write misses to the home shard — which by then holds the write-back.
	// Reads keep hitting frozen entries.
	ErrFrozen = errors.New("core: entry frozen for demotion")
)

// State is the consistency state of a cached entry. SC uses only StateValid;
// Lin adds one stable invalid state and one transient write state, exactly
// the state count the paper reports for each protocol (§5.2).
type State uint8

// Cache entry states.
const (
	// StateValid: the entry is readable.
	StateValid State = iota
	// StateInvalid: invalidated by a remote Lin write; reads stall until
	// the matching update arrives (or, at a writer that yielded to a
	// lower-stamped write, until its own write completes).
	StateInvalid
	// StateWrite: transient; this node issued a Lin write and is gathering
	// acknowledgements. Reads return the pre-write value.
	StateWrite
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateValid:
		return "Valid"
	case StateInvalid:
		return "Invalid"
	case StateWrite:
		return "Write"
	default:
		return "State(?)"
	}
}

// entry is one cached object. Its header mirrors the 8-byte ccKVS item
// header: consistency state (1 B, Lin only), version i.e. Lamport clock
// (4 B), last-writer id (1 B), ack counter (1 B, Lin only) and the seqlock
// spinlock byte. The seqlock version doubles as the write-in-progress marker.
type entry struct {
	lock seqlock.SeqLock
	vlen int
	val  []byte // len == cap, mutated in place
	// installing marks a dark entry: reads miss to the home shard while
	// writes are held by frozen. Promotion placeholders (AddPending) are
	// dark until filled — which is what makes the home value stable
	// between the promotion's fetch and its commit (FillAdd) — and
	// demotions darken entries (Retire) before removing them, so no
	// replica serves a cached read after the home shard starts accepting
	// post-demotion writes.
	installing bool
	// frozen marks an entry mid-demotion: reads still hit and in-flight
	// consistency traffic still applies, but new local writes are refused
	// with ErrFrozen (see Freeze). Entries dropped by Remove stay frozen so
	// writers that resolved the key through a stale table pointer also fail
	// and re-probe.
	frozen bool
	dirty  bool // differs from the home shard (write-back caching, §4)

	// Line is the protocol state, stepped only by step.go's transitions.
	// Embedded by value, right behind the other fields a lock-free Read
	// touches and with State and TS first: a Read follows no pointer and
	// stays within the entry's first 68 bytes, as it always has.
	Line

	// The staged value of this node's outstanding Lin write (Line.Pending);
	// kept after a conflict-lost completion for as long as Line.Superseded.
	pendVlen int
	pendVal  []byte

	// wake is the entry's parking lot (park.go): nil while nobody waits.
	wake chan struct{}
}

// table is an immutable key set with mutable entries. A new table is
// installed wholesale at a full epoch change (Install) and copy-on-write at
// an incremental one (Add/Remove): readers and the consistency protocol keep
// running against whichever table pointer they loaded, entries being shared
// between the old and new tables.
type table struct {
	m map[uint64]*entry
}

// Stats aggregates cache/protocol counters.
type Stats struct {
	Hits, Misses          metrics.Counter
	InvalidStalls         metrics.Counter // reads that found StateInvalid
	UpdatesApplied        metrics.Counter
	UpdatesDiscarded      metrics.Counter
	Invalidations         metrics.Counter
	AcksReceived          metrics.Counter
	WritesSC, WritesLin   metrics.Counter // WritesLin counts Lin rounds started
	WritesJoined          metrics.Counter // Lin puts that joined a pending round (Cache.WriteLinJoin)
	WriteConflictsLost    metrics.Counter // Lin writes superseded by a concurrent higher-ts write
	Evictions, WriteBacks metrics.Counter
}

// Cache is one node's instance of the symmetric cache. All cache threads of
// the node share it (CRCW); every node in the deployment holds an identical
// key set, which is what removes the need for a sharer directory (§4).
type Cache struct {
	nodeID   uint8
	numNodes int
	table    atomic.Pointer[table]
	// live is the membership view the protocols count against: Lin writes
	// require acks only from live peers, and SetLive re-examines outstanding
	// writes when the view shrinks. Initially all numNodes nodes are live.
	live  atomic.Pointer[NodeSet]
	stats Stats
	// reconfMu serializes table swaps (Install/Add/Remove). Reads and the
	// protocol paths never take it.
	reconfMu sync.Mutex
}

// NewCache returns an empty cache for node nodeID of a numNodes deployment.
func NewCache(nodeID uint8, numNodes int) *Cache {
	if numNodes < 1 {
		panic("core: deployment needs at least one node")
	}
	c := &Cache{nodeID: nodeID, numNodes: numNodes}
	c.table.Store(&table{m: map[uint64]*entry{}})
	full := FullNodeSet(numNodes)
	c.live.Store(&full)
	return c
}

// NodeID returns this cache's node id.
func (c *Cache) NodeID() uint8 { return c.nodeID }

// NumNodes returns the deployment size.
func (c *Cache) NumNodes() int { return c.numNodes }

// Stats exposes the counter block.
func (c *Cache) Stats() *Stats { return &c.stats }

// Len returns the number of cached keys.
func (c *Cache) Len() int { return len(c.table.Load().m) }

// Contains reports whether key is in the hot set. Because caches are
// symmetric, a local probe answers the global question "which nodes cache
// this item": all of them or none (§4).
func (c *Cache) Contains(key uint64) bool {
	_, ok := c.table.Load().m[key]
	return ok
}

// WriteBack is a dirty item evicted at an epoch change that must be flushed
// to its home shard (symmetric caches are write-back, §4).
type WriteBack struct {
	Key   uint64
	Value []byte
	TS    timestamp.TS
}

// Install replaces the hot set. For every new key, fetch must return the
// value and version from the node's view of the KVS (or ok=false to install
// an empty entry). It returns the dirty evicted entries, which the caller
// flushes to their home shards with PutIfNewer. Concurrent reads continue
// against the old table until the swap.
func (c *Cache) Install(keys []uint64, fetch func(key uint64) ([]byte, timestamp.TS, bool)) []WriteBack {
	c.reconfMu.Lock()
	defer c.reconfMu.Unlock()
	old := c.table.Load()
	next := &table{m: make(map[uint64]*entry, len(keys))}
	for _, k := range keys {
		if e, ok := old.m[k]; ok {
			next.m[k] = e // retained entries keep value, ts and state
			continue
		}
		e := &entry{}
		if v, ts, ok := fetch(k); ok {
			e.val = append(make([]byte, 0, len(v)), v...)
			e.vlen = len(v)
			e.TS = ts
		}
		next.m[k] = e
	}

	// Swap first, then visit the evicted entries (like Remove): whoever is
	// parked on one is woken after the swap, re-probes and misses.
	c.table.Store(next)
	var wb []WriteBack
	for k, e := range old.m {
		if _, kept := next.m[k]; kept {
			continue
		}
		c.stats.Evictions.Add(1)
		e.lock.Lock()
		if e.dirty {
			wb = append(wb, e.writeBack(k))
			c.stats.WriteBacks.Add(1)
		}
		e.wakeLocked()
		e.lock.Unlock()
	}
	return wb
}

// Incremental reconfiguration (§4 under live traffic).
//
// An epoch change rarely moves more than a handful of keys, so instead of
// reinstalling the whole table the cluster applies the delta. Promotions
// run AddPending (a frozen, valueless placeholder: reads miss to the home
// shard, writes park — which pins the home value for the coordinator's
// fetch), FillAdd (the fetched value becomes readable, writes still held)
// and Unfreeze (once every replica is filled, writes resume); Add installs
// directly when no write barrier is needed. Demotions run a four-step
// dance per key — Freeze (new local writes refused, reads keep hitting,
// protocol traffic keeps draining), CollectFrozen (snapshot the dirty value
// once the entry is quiescent, for the write-back to the home shard),
// Retire (reads go dark once the home is current — removal must not start
// while any replica still serves cached reads), Remove (drop the key; the
// next access misses to the home shard, which by then holds the
// write-back). The freeze step is what makes the transition
// safe under traffic: a write refused with ErrFrozen retries until the key
// is gone and then forwards to the home shard, so it can neither land in a
// dying entry nor overtake the write-back and be clobbered by it.

// Add extends the hot set with keys. fetch supplies the value and version
// for each new key; ok=false skips the key (unlike Install, Add never
// installs an entry it has no value for — a key that cannot be fetched
// simply keeps missing to its home shard). It returns how many keys were
// installed.
func (c *Cache) Add(keys []uint64, fetch func(key uint64) ([]byte, timestamp.TS, bool)) int {
	return c.extend(keys, func(k uint64) *entry {
		v, ts, ok := fetch(k)
		if !ok {
			return nil
		}
		return &entry{val: append(make([]byte, 0, len(v)), v...), vlen: len(v), Line: Line{TS: ts}}
	})
}

// AddPending installs promotion placeholders for keys: the entries are
// frozen (writes park) and valueless (reads miss to the home shard). Once
// every replica holds the placeholder, no client write can reach the key's
// home shard — every write path probes the cache first and parks on
// ErrFrozen — so the value the promotion then fetches from the home cannot
// be overtaken by a racing put. FillAdd and Unfreeze later turn the
// placeholder into a live entry. It returns how many placeholders were
// installed.
func (c *Cache) AddPending(keys []uint64) int {
	return c.extend(keys, func(uint64) *entry { return &entry{frozen: true, installing: true} })
}

// extend installs mk(k) for every k of keys that is not cached yet (once, if
// keys repeats it; not at all if mk returns nil), copy-on-write: concurrent
// readers keep using the previous table until the atomic swap, existing
// entries are shared and left untouched. It returns how many it installed.
func (c *Cache) extend(keys []uint64, mk func(key uint64) *entry) int {
	c.reconfMu.Lock()
	defer c.reconfMu.Unlock()
	old := c.table.Load()
	fresh := map[uint64]*entry{}
	for _, k := range keys {
		if old.m[k] != nil || fresh[k] != nil {
			continue
		}
		if e := mk(k); e != nil {
			fresh[k] = e
		}
	}
	if len(fresh) == 0 {
		return 0 // nothing to add: the table is not copied
	}
	next := &table{m: make(map[uint64]*entry, len(old.m)+len(fresh))}
	maps.Copy(next.m, old.m)
	maps.Copy(next.m, fresh)
	c.table.Store(next)
	return len(fresh)
}

// FillAdd fills a promotion placeholder with the fetched value and version:
// reads start hitting, but the entry stays frozen — writes may resume only
// once every replica is filled (Unfreeze), otherwise a write completing at
// an early replica would be invisible to readers still missing to the home
// shard. The value is applied only if its version orders after whatever the
// entry holds — stale consistency traffic from an earlier epoch of the same
// key may have landed on the placeholder, and a newer such value must win.
// It reports whether key was a placeholder (false for live or missing
// entries, which are left alone).
func (c *Cache) FillAdd(key uint64, value []byte, ts timestamp.TS) bool {
	e, ok := c.table.Load().m[key]
	if !ok {
		return false
	}
	e.lock.Lock()
	defer e.lock.Unlock()
	if !e.installing {
		return false
	}
	e.installing = false
	e.wakeLocked()
	// An untouched placeholder carries the zero timestamp; apply the fetch
	// even when the home version is itself zero (a never-written dataset
	// key). Anything a stray update left behind has a non-zero version and
	// wins unless the fetch is newer.
	if ts.After(e.TS) || e.TS == timestamp.Zero {
		e.setValueLocked(value)
		e.TS = ts
	}
	return true
}

// Retire darkens cached keys for the final stretch of a demotion: reads
// miss to the home shard (which, after the write-back, holds exactly the
// cached value) and writes stay frozen. Only once every replica is dark may
// the keys be removed — if replicas were removed one by one while others
// still served reads, a write landing at the home shard the moment its
// cache copy disappeared would be invisible to readers of the remaining
// copies, a stale read past the write-back. It returns how many entries
// this call darkened.
func (c *Cache) Retire(keys []uint64) int {
	return c.update(keys, func(e *entry) bool {
		if e.installing {
			return false
		}
		e.installing, e.frozen = true, true
		e.wakeLocked() // a parked reader now misses to the home shard
		return true
	})
}

// update runs change, under the entry lock, on each of keys that is cached,
// and returns how many entries it reports having changed.
func (c *Cache) update(keys []uint64, change func(e *entry) bool) int {
	t := c.table.Load()
	n := 0
	for _, k := range keys {
		if e, ok := t.m[k]; ok {
			e.lock.Lock()
			if change(e) {
				n++
			}
			e.lock.Unlock()
		}
	}
	return n
}

// Unfreeze lifts the write freeze from cached keys — the final round of a
// promotion (after every replica is filled) and the abort path of a failed
// demotion. Placeholders that were never filled stay frozen (they have no
// value to serve; their writers are released when the placeholder is
// removed). It returns how many entries this call unfroze.
func (c *Cache) Unfreeze(keys []uint64) int {
	return c.update(keys, func(e *entry) bool {
		if !e.frozen || e.installing {
			return false
		}
		e.frozen = false
		e.wakeLocked()
		return true
	})
}

// Freeze marks cached keys as demoting. Reads keep hitting (the cached value
// stays the latest committed one until the write-back lands at the home
// shard) and in-flight consistency messages still apply, but new local
// writes are refused with ErrFrozen. It returns how many entries this call
// transitioned to frozen.
func (c *Cache) Freeze(keys []uint64) int {
	return c.update(keys, func(e *entry) bool {
		changed := !e.frozen
		e.frozen = true
		return changed
	})
}

// CollectFrozen snapshots a frozen entry for its demotion write-back once
// the entry is quiescent: no outstanding local Lin write and not Invalid
// awaiting a remote writer's update. While protocol traffic is still
// draining it refuses with the stall a caller parks on before asking again
// (Park): ErrWritePending while this node's own write is outstanding (the
// Write state implies it), else ErrInvalid. dirty=false with a nil stall
// means the entry matches the home shard and needs no write-back. A key that
// is no longer cached is trivially quiescent and clean.
func (c *Cache) CollectFrozen(key uint64) (wb WriteBack, dirty bool, stall error) {
	e, present := c.table.Load().m[key]
	if !present {
		return WriteBack{}, false, nil
	}
	e.lock.Lock()
	defer e.lock.Unlock()
	switch {
	case e.Pending:
		return WriteBack{}, false, ErrWritePending
	case e.State != StateValid:
		return WriteBack{}, false, ErrInvalid
	case !e.dirty:
		return WriteBack{}, false, nil
	}
	return e.writeBack(key), true, nil
}

// writeBack snapshots e's value and version. Called with e.lock held.
func (e *entry) writeBack(key uint64) WriteBack {
	return WriteBack{Key: key, Value: append([]byte(nil), e.val[:e.vlen]...), TS: e.TS}
}

// Remove drops keys from the hot set, copy-on-write. Callers are expected to
// have frozen the keys and flushed their write-backs first (Freeze /
// CollectFrozen); Remove marks the dropped entries frozen regardless, so a
// writer that resolved the key through a stale table pointer still fails
// with ErrFrozen, re-probes, and misses to the home shard. It returns how
// many keys were removed (counted as evictions).
func (c *Cache) Remove(keys []uint64) int {
	c.reconfMu.Lock()
	defer c.reconfMu.Unlock()
	old := c.table.Load()
	dropKeys := make(map[uint64]*entry, len(keys))
	for _, k := range keys {
		if e, ok := old.m[k]; ok {
			dropKeys[k] = e
		}
	}
	if len(dropKeys) == 0 {
		return 0
	}
	next := &table{m: make(map[uint64]*entry, len(old.m)-len(dropKeys))}
	for k, e := range old.m {
		if _, gone := dropKeys[k]; !gone {
			next.m[k] = e
		}
	}
	c.table.Store(next)
	for _, e := range dropKeys {
		e.lock.Lock()
		e.frozen = true
		e.wakeLocked() // parked writers re-probe, miss, and go to the home shard
		e.lock.Unlock()
		c.stats.Evictions.Add(1)
	}
	return len(dropKeys)
}

// Frozen reports whether key is cached and currently frozen for demotion
// (test hook).
func (c *Cache) Frozen(key uint64) bool {
	e, ok := c.table.Load().m[key]
	if !ok {
		return false
	}
	var f bool
	e.lock.Read(func() { f = e.frozen })
	return f
}

// Read probes the cache. On a hit it copies the value into dst and returns
// it with the entry's timestamp. It returns ErrMiss for uncached keys and
// ErrInvalid when a Lin invalidation is outstanding. Reads are lock-free.
func (c *Cache) Read(key uint64, dst []byte) ([]byte, timestamp.TS, error) {
	e, ok := c.table.Load().m[key]
	if !ok {
		c.stats.Misses.Add(1)
		return dst, timestamp.TS{}, ErrMiss
	}
	for {
		v := e.lock.ReadBegin()
		state := e.State
		ts := e.TS
		vlen := e.vlen
		installing := e.installing
		// A torn length is rejected by the validation below; guard the copy
		// and call ReadRetry exactly once per ReadBegin (the race-build
		// seqlock depends on strict pairing).
		sane := vlen >= 0 && vlen <= len(e.val)
		if sane && state != StateInvalid && !installing {
			if cap(dst) < vlen {
				dst = make([]byte, vlen)
			}
			dst = dst[:vlen]
			copy(dst, e.val[:vlen])
		}
		if e.lock.ReadRetry(v) {
			continue
		}
		if installing {
			// Promotion placeholder: no value yet, the home shard serves.
			c.stats.Misses.Add(1)
			return dst, timestamp.TS{}, ErrMiss
		}
		if state == StateInvalid {
			c.stats.InvalidStalls.Add(1)
			return dst, timestamp.TS{}, ErrInvalid
		}
		if !sane {
			dst = dst[:0] // unreachable on a validated snapshot; defensive
		}
		c.stats.Hits.Add(1)
		return dst, ts, nil
	}
}

// lockWritable returns key's entry LOCKED for a local write, or — unlocked —
// why not: ErrMiss (counted) for an uncached key, ErrFrozen for one being
// demoted or promoted: the caller retries until the entry is removed and the
// write misses to the home shard (which by then holds the demotion's
// write-back), or the promotion unfreezes it.
func (c *Cache) lockWritable(key uint64) (*entry, error) {
	e, ok := c.table.Load().m[key]
	if !ok {
		c.stats.Misses.Add(1)
		return nil, ErrMiss
	}
	e.lock.Lock()
	if e.frozen {
		e.lock.Unlock()
		return nil, ErrFrozen
	}
	return e, nil
}

// lockReadable is lockWritable for a read-modify-write: the entry comes back
// LOCKED with a fresh copy of its value (a counted hit), and the read half
// adds its own refusals — a promotion placeholder has no value to read (a
// miss: the home shard serves), and, unlike a blind write, an RMW cannot
// proceed on an Invalid entry, whose value is unreadable until the in-flight
// update (or this node's own yielded write) lands: ErrInvalid, and the caller
// parks like a read. Both of those, and a pending local write, arise only
// under Lin.
func (c *Cache) lockReadable(key uint64) (*entry, []byte, error) {
	e, err := c.lockWritable(key)
	switch {
	case err != nil:
		return nil, nil, err
	case e.installing:
		c.stats.Misses.Add(1)
		err = ErrMiss
	case e.State == StateInvalid:
		c.stats.InvalidStalls.Add(1)
		err = ErrInvalid
	case e.Pending:
		err = ErrWritePending
	}
	if err != nil {
		e.lock.Unlock()
		return nil, nil, err
	}
	c.stats.Hits.Add(1)
	return e, append([]byte(nil), e.val[:e.vlen]...), nil
}

// setValueLocked stores value into e under e.lock.
func (e *entry) setValueLocked(value []byte) {
	if len(e.val) < len(value) {
		e.vlen = 0
		e.val = make([]byte, len(value))
	}
	copy(e.val[:len(value)], value)
	e.vlen = len(value)
}

// Keys returns the cached key set (for tests and epoch bookkeeping).
func (c *Cache) Keys() []uint64 {
	t := c.table.Load()
	out := make([]uint64, 0, len(t.m))
	for k := range t.m {
		out = append(out, k)
	}
	return out
}

// EntryState returns the state and timestamp of a cached key (test hook).
func (c *Cache) EntryState(key uint64) (State, timestamp.TS, bool) {
	e, ok := c.table.Load().m[key]
	if !ok {
		return 0, timestamp.TS{}, false
	}
	var st State
	var ts timestamp.TS
	e.lock.Read(func() { st, ts = e.State, e.TS })
	return st, ts, true
}
