// Package store implements the MICA-derived in-memory key-value store that
// serves as ccKVS's back-end (EuroSys'18, §6.2).
//
// Data lives in a bucket-chained hash index. Each bucket is protected by a
// seqlock: writers serialize on the bucket spinlock while readers validate a
// version snapshot and retry on interference, so gets are lock-free and never
// starve puts — the concurrency design the paper adopts ("seqlocks allow
// lock-free reads without starving the writes").
//
// The store supports MICA's two thread-partitioning disciplines:
//
//   - CRCW (Concurrent Read Concurrent Write): a single Store shared by all
//     threads; the seqlocks carry the synchronization. ccKVS chooses this
//     mode because it minimizes cross-node connections (§6.2, §6.4).
//   - EREW (Exclusive Read Exclusive Write): a Partitioned store with one
//     partition per thread; each partition is only ever touched by its owner
//     so the seqlocks are uncontended. This is the Base-EREW baseline.
//
// Items carry a version stamped by the caller (the protocol Lamport clock),
// enabling conditional "apply only if newer" writes used when dirty cache
// items are written back to their home shard.
package store

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/seqlock"
	"repro/internal/timestamp"
	"repro/internal/zipf"
)

// Common errors.
var (
	// ErrNotFound is returned by Get for absent keys.
	ErrNotFound = errors.New("store: key not found")
	// ErrStale is returned by PutIfNewer when the stored version is not
	// older than the offered one.
	ErrStale = errors.New("store: stored version is newer")
)

// valBuf is one value buffer plus its lease count. A buffer with live
// leases is immutable: writers that find leases > 0 swap in a fresh buffer
// (copy-on-write) instead of mutating in place, so lease holders keep
// reading a stable snapshot without pinning any lock. The GC reclaims
// swapped-out buffers once the last lease drops its reference.
type valBuf struct {
	leases atomic.Int32
	b      []byte
}

// Lease is a pinned, read-only view of a stored value, handed out by
// GetLease. Value() aliases store memory directly — zero copies — and stays
// valid until Release. Release is idempotent and must be called exactly
// once per lease on every control path; a leaked lease degrades the key's
// writes to copy-on-write forever (correct, but allocates).
type Lease struct {
	buf *valBuf
	val []byte
}

// Value returns the leased bytes. The slice aliases store memory: it is
// read-only and must not be used after Release.
func (l *Lease) Value() []byte { return l.val }

// Held reports whether the lease currently pins a buffer (false for the
// zero Lease and after Release).
func (l *Lease) Held() bool { return l.buf != nil }

// Release unpins the lease. Idempotent; the zero Lease is a no-op.
func (l *Lease) Release() {
	if l.buf != nil {
		l.buf.leases.Add(-1)
		l.buf = nil
		l.val = nil
	}
}

// item is a stored object. The value buffer is only mutated in place while
// it has no leases (never re-sliced) so optimistic readers can copy it and
// rely on seqlock validation to reject torn snapshots; leased buffers are
// replaced copy-on-write instead.
type item struct {
	key  uint64
	ts   timestamp.TS
	vlen int
	val  *valBuf
}

// bucket is one hash chain protected by a seqlock.
type bucket struct {
	lock  seqlock.SeqLock
	items []*item
}

// Store is a single KVS partition. The zero value is not usable; call New.
type Store struct {
	buckets []bucket
	mask    uint64
	// count tracks the number of keys; guarded by countMu since it is off
	// the hot path (insertions only).
	countMu sync.Mutex
	count   int
}

// New returns a store sized for roughly expectedKeys items.
func New(expectedKeys int) *Store {
	nb := 16
	for nb < expectedKeys/4 {
		nb <<= 1
	}
	return &Store{buckets: make([]bucket, nb), mask: uint64(nb - 1)}
}

func (s *Store) bucketFor(key uint64) *bucket {
	return &s.buckets[zipf.Mix64(key)&s.mask]
}

// Get copies the value for key into dst (growing it as needed) and returns
// the value, its version timestamp, and nil; or ErrNotFound. The read is
// lock-free: it validates the bucket seqlock and retries on writer
// interference.
func (s *Store) Get(key uint64, dst []byte) ([]byte, timestamp.TS, error) {
	b := s.bucketFor(key)
	for {
		v := b.lock.ReadBegin()
		var found *item
		for _, it := range b.items {
			if it.key == key {
				found = it
				break
			}
		}
		if found == nil {
			if !b.lock.ReadRetry(v) {
				return nil, timestamp.TS{}, ErrNotFound
			}
			continue
		}
		vlen := found.vlen
		ts := found.ts
		vb := found.val
		// A torn length can only be observed mid-write; the validation
		// below rejects the snapshot. Guard the copy, and call ReadRetry
		// exactly once per ReadBegin (the race-build seqlock depends on
		// strict pairing).
		sane := vb != nil && vlen >= 0 && vlen <= len(vb.b)
		if sane {
			if cap(dst) < vlen {
				dst = make([]byte, vlen)
			}
			dst = dst[:vlen]
			copy(dst, vb.b[:vlen])
		}
		if b.lock.ReadRetry(v) {
			continue
		}
		if !sane {
			return nil, timestamp.TS{}, ErrNotFound
		}
		return dst, ts, nil
	}
}

// GetLease returns a zero-copy lease on key's value: Lease.Value aliases the
// store's own buffer, pinned against in-place mutation until Release. The
// pin is optimistic — the lease count is bumped inside the seqlock read
// window and the snapshot revalidated after, so a concurrent writer either
// sees the lease (and swaps copy-on-write, leaving the leased buffer
// intact) or invalidates the snapshot (and the reader unpins and retries).
// The caller MUST Release the lease on every path, including after errors
// it raises itself; see Lease.
func (s *Store) GetLease(key uint64) (Lease, timestamp.TS, error) {
	b := s.bucketFor(key)
	for {
		v := b.lock.ReadBegin()
		var found *item
		for _, it := range b.items {
			if it.key == key {
				found = it
				break
			}
		}
		if found == nil {
			if !b.lock.ReadRetry(v) {
				return Lease{}, timestamp.TS{}, ErrNotFound
			}
			continue
		}
		vlen := found.vlen
		ts := found.ts
		vb := found.val
		sane := vb != nil && vlen >= 0 && vlen <= len(vb.b)
		if sane {
			// Pin BEFORE validating: both the pin and the writer's version
			// bump are sequentially consistent atomics, so a writer that
			// observes zero leases forces this reader's validation to
			// observe the version bump and retry (and vice versa — if the
			// validation passes, the writer must see the pin).
			vb.leases.Add(1)
		}
		if b.lock.ReadRetry(v) {
			if sane {
				vb.leases.Add(-1)
			}
			continue
		}
		if !sane {
			return Lease{}, timestamp.TS{}, ErrNotFound
		}
		return Lease{buf: vb, val: vb.b[:vlen:vlen]}, ts, nil
	}
}

// Put stores value under key with the given version timestamp,
// unconditionally overwriting any previous value.
func (s *Store) Put(key uint64, value []byte, ts timestamp.TS) {
	s.put(key, value, ts, false)
}

// PutIfNewer stores value only if ts orders after the stored version; it
// returns ErrStale otherwise. Used for write-backs of evicted cache items,
// where a slower replica's flush must not clobber a newer value.
func (s *Store) PutIfNewer(key uint64, value []byte, ts timestamp.TS) error {
	if s.put(key, value, ts, true) {
		return nil
	}
	return ErrStale
}

func (s *Store) put(key uint64, value []byte, ts timestamp.TS, onlyNewer bool) bool {
	b := s.bucketFor(key)
	b.lock.Lock()
	for _, it := range b.items {
		if it.key == key {
			if onlyNewer && !ts.After(it.ts) {
				b.lock.Unlock()
				return false
			}
			// The seqlock's version bump (Lock, above) is ordered before
			// this lease load; a racing GetLease either pinned before the
			// bump (visible here → copy-on-write) or will fail validation
			// and unpin. Leased or undersized buffers are replaced whole so
			// lease holders keep an immutable snapshot.
			if it.val.leases.Load() != 0 || len(it.val.b) < len(value) {
				// Mark shrunk length first so readers never see a length
				// beyond the old buffer, then swap buffers. The buffer
				// always has len == cap so readers bound-check against len.
				it.vlen = 0
				it.val = &valBuf{b: make([]byte, len(value))}
			}
			copy(it.val.b[:len(value)], value)
			it.vlen = len(value)
			it.ts = ts
			b.lock.Unlock()
			return true
		}
	}
	buf := make([]byte, len(value))
	copy(buf, value)
	ni := &item{key: key, ts: ts, vlen: len(value), val: &valBuf{b: buf}}
	b.items = append(b.items, ni)
	b.lock.Unlock()

	s.countMu.Lock()
	s.count++
	s.countMu.Unlock()
	return true
}

// Delete removes key, reporting whether it was present.
func (s *Store) Delete(key uint64) bool {
	b := s.bucketFor(key)
	b.lock.Lock()
	for i, it := range b.items {
		if it.key == key {
			b.items[i] = b.items[len(b.items)-1]
			b.items = b.items[:len(b.items)-1]
			b.lock.Unlock()
			s.countMu.Lock()
			s.count--
			s.countMu.Unlock()
			return true
		}
	}
	b.lock.Unlock()
	return false
}

// Len returns the number of stored keys.
func (s *Store) Len() int {
	s.countMu.Lock()
	defer s.countMu.Unlock()
	return s.count
}

// LeasedBuffers walks the partition and counts the value buffers that live
// leases pin right now. It is a check for leaked leases (a quiesced node
// holds none), not a hot-path counter: it takes every bucket lock in turn.
// A buffer a write already swapped out is no longer reachable from the store
// and is not counted.
func (s *Store) LeasedBuffers() int {
	n := 0
	for i := range s.buckets {
		b := &s.buckets[i]
		b.lock.Lock()
		for _, it := range b.items {
			if it.val.leases.Load() != 0 {
				n++
			}
		}
		b.lock.Unlock()
	}
	return n
}

// Range calls fn for every key with a private copy of its value, stopping if
// fn returns false. It takes bucket locks briefly and must not be called
// from fn itself.
func (s *Store) Range(fn func(key uint64, value []byte, ts timestamp.TS) bool) {
	for i := range s.buckets {
		b := &s.buckets[i]
		b.lock.Lock()
		// Copy out under the lock, invoke callbacks after releasing it.
		type kv struct {
			key uint64
			val []byte
			ts  timestamp.TS
		}
		snap := make([]kv, 0, len(b.items))
		for _, it := range b.items {
			snap = append(snap, kv{it.key, append([]byte(nil), it.val.b[:it.vlen]...), it.ts})
		}
		b.lock.Unlock()
		for _, e := range snap {
			if !fn(e.key, e.val, e.ts) {
				return
			}
		}
	}
}

// Partitioned composes multiple Store partitions, mapping keys to partitions
// by hash — MICA's EREW organization when each partition is owned by one
// thread, or a striped CRCW store otherwise.
type Partitioned struct {
	parts []*Store
}

// NewPartitioned returns a store with n partitions sized for expectedKeys
// total items.
func NewPartitioned(n, expectedKeys int) *Partitioned {
	if n <= 0 {
		n = 1
	}
	parts := make([]*Store, n)
	for i := range parts {
		parts[i] = New(expectedKeys / n)
	}
	return &Partitioned{parts: parts}
}

// NumPartitions returns the partition count.
func (p *Partitioned) NumPartitions() int { return len(p.parts) }

// PartitionOf returns the partition index owning key.
func (p *Partitioned) PartitionOf(key uint64) int {
	return int(zipf.Mix64(key^0x5bd1e995) % uint64(len(p.parts)))
}

// Partition returns partition i for direct (EREW owner-thread) access.
func (p *Partitioned) Partition(i int) *Store { return p.parts[i] }

// Get routes to the owning partition.
func (p *Partitioned) Get(key uint64, dst []byte) ([]byte, timestamp.TS, error) {
	return p.parts[p.PartitionOf(key)].Get(key, dst)
}

// GetLease routes to the owning partition.
func (p *Partitioned) GetLease(key uint64) (Lease, timestamp.TS, error) {
	return p.parts[p.PartitionOf(key)].GetLease(key)
}

// Put routes to the owning partition.
func (p *Partitioned) Put(key uint64, value []byte, ts timestamp.TS) {
	p.parts[p.PartitionOf(key)].Put(key, value, ts)
}

// PutIfNewer routes to the owning partition.
func (p *Partitioned) PutIfNewer(key uint64, value []byte, ts timestamp.TS) error {
	return p.parts[p.PartitionOf(key)].PutIfNewer(key, value, ts)
}

// LeasedBuffers sums the partitions' counts of lease-pinned value buffers.
func (p *Partitioned) LeasedBuffers() int {
	n := 0
	for _, s := range p.parts {
		n += s.LeasedBuffers()
	}
	return n
}

// Len sums partition sizes.
func (p *Partitioned) Len() int {
	n := 0
	for _, s := range p.parts {
		n += s.Len()
	}
	return n
}
