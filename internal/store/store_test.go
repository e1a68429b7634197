package store

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/timestamp"
)

func ts(c uint32, w uint8) timestamp.TS { return timestamp.TS{Clock: c, Writer: w} }

func TestGetMissing(t *testing.T) {
	s := New(16)
	if _, _, err := s.Get(42, nil); err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := New(16)
	s.Put(1, []byte("hello"), ts(1, 0))
	v, tsp, err := s.Get(1, nil)
	if err != nil || !bytes.Equal(v, []byte("hello")) || tsp != ts(1, 0) {
		t.Fatalf("got %q %v %v", v, tsp, err)
	}
}

func TestOverwrite(t *testing.T) {
	s := New(16)
	s.Put(1, []byte("a"), ts(1, 0))
	s.Put(1, []byte("bb"), ts(2, 0))
	v, tsp, err := s.Get(1, nil)
	if err != nil || string(v) != "bb" || tsp.Clock != 2 {
		t.Fatalf("got %q %v %v", v, tsp, err)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestValueGrowthAndShrink(t *testing.T) {
	s := New(16)
	s.Put(1, bytes.Repeat([]byte{1}, 8), ts(1, 0))
	s.Put(1, bytes.Repeat([]byte{2}, 1024), ts(2, 0)) // grow
	v, _, _ := s.Get(1, nil)
	if len(v) != 1024 || v[0] != 2 {
		t.Fatalf("grow failed: len=%d", len(v))
	}
	s.Put(1, []byte{3}, ts(3, 0)) // shrink
	v, _, _ = s.Get(1, nil)
	if len(v) != 1 || v[0] != 3 {
		t.Fatalf("shrink failed: %v", v)
	}
}

func TestGetReusesDst(t *testing.T) {
	s := New(16)
	s.Put(1, []byte("abc"), ts(1, 0))
	buf := make([]byte, 0, 64)
	v, _, err := s.Get(1, buf)
	if err != nil || string(v) != "abc" {
		t.Fatalf("%q %v", v, err)
	}
	if &v[0] != &buf[:1][0] {
		t.Fatalf("dst buffer not reused")
	}
}

func TestPutIfNewer(t *testing.T) {
	s := New(16)
	s.Put(1, []byte("v1"), ts(5, 1))
	if err := s.PutIfNewer(1, []byte("old"), ts(4, 9)); err != ErrStale {
		t.Fatalf("stale write accepted: %v", err)
	}
	if err := s.PutIfNewer(1, []byte("same"), ts(5, 1)); err != ErrStale {
		t.Fatalf("equal-ts write must be stale: %v", err)
	}
	if err := s.PutIfNewer(1, []byte("new"), ts(5, 2)); err != nil {
		t.Fatalf("newer write rejected: %v", err)
	}
	v, _, _ := s.Get(1, nil)
	if string(v) != "new" {
		t.Fatalf("value = %q", v)
	}
}

func TestPutIfNewerInsertsMissing(t *testing.T) {
	s := New(16)
	if err := s.PutIfNewer(7, []byte("x"), ts(1, 0)); err != nil {
		t.Fatalf("insert via PutIfNewer failed: %v", err)
	}
}

func TestDelete(t *testing.T) {
	s := New(16)
	s.Put(1, []byte("x"), ts(1, 0))
	if !s.Delete(1) {
		t.Fatalf("delete existing returned false")
	}
	if s.Delete(1) {
		t.Fatalf("delete missing returned true")
	}
	if _, _, err := s.Get(1, nil); err != ErrNotFound {
		t.Fatalf("key still present")
	}
	if s.Len() != 0 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestManyKeysAcrossBuckets(t *testing.T) {
	s := New(64)
	const n = 10000
	for i := uint64(0); i < n; i++ {
		s.Put(i, []byte(fmt.Sprintf("v%d", i)), ts(uint32(i), 0))
	}
	if s.Len() != n {
		t.Fatalf("len = %d", s.Len())
	}
	for i := uint64(0); i < n; i += 97 {
		v, _, err := s.Get(i, nil)
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d: %q %v", i, v, err)
		}
	}
}

func TestRange(t *testing.T) {
	s := New(16)
	for i := uint64(0); i < 100; i++ {
		s.Put(i, []byte{byte(i)}, ts(uint32(i), 0))
	}
	seen := map[uint64]bool{}
	s.Range(func(k uint64, v []byte, tsp timestamp.TS) bool {
		if len(v) != 1 || v[0] != byte(k) || tsp.Clock != uint32(k) {
			t.Fatalf("key %d wrong value %v ts %v", k, v, tsp)
		}
		seen[k] = true
		return true
	})
	if len(seen) != 100 {
		t.Fatalf("ranged over %d keys", len(seen))
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := New(16)
	for i := uint64(0); i < 100; i++ {
		s.Put(i, []byte{1}, ts(1, 0))
	}
	n := 0
	s.Range(func(uint64, []byte, timestamp.TS) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop failed: %d", n)
	}
}

// Concurrent torture: readers must always observe some complete write (a
// value whose bytes all match its stamp), never a mishmash — the atomicity
// requirement of §5.1.
func TestConcurrentReadersSeeAtomicValues(t *testing.T) {
	s := New(16)
	const key = 3
	s.Put(key, bytes.Repeat([]byte{0}, 64), ts(1, 0))

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := uint32(2); !stop.Load(); i++ {
				for j := range buf {
					buf[j] = byte(i) ^ id
				}
				s.Put(key, buf, ts(i, id))
			}
		}(byte(w))
	}

	var rbuf []byte
	for r := 0; r < 30000; r++ {
		v, _, err := s.Get(key, rbuf)
		if err != nil {
			t.Fatalf("key vanished: %v", err)
		}
		rbuf = v
		for j := 1; j < len(v); j++ {
			if v[j] != v[0] {
				stop.Store(true)
				wg.Wait()
				t.Fatalf("torn value: %v", v)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}

func TestConcurrentDistinctKeys(t *testing.T) {
	s := New(256)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < 2000; i++ {
				k := base*1_000_000 + i
				s.Put(k, []byte{byte(k)}, ts(1, uint8(base)))
				if v, _, err := s.Get(k, nil); err != nil || v[0] != byte(k) {
					t.Errorf("key %d: %v %v", k, v, err)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	if s.Len() != 8000 {
		t.Fatalf("len = %d", s.Len())
	}
}

// Property-based: a store must behave like a map under a random operation
// sequence (single-threaded linearized semantics).
func TestStoreMatchesMapModel(t *testing.T) {
	f := func(ops []struct {
		Key uint8
		Val uint8
		Del bool
	}) bool {
		s := New(8)
		model := map[uint64][]byte{}
		clock := uint32(1)
		for _, op := range ops {
			k := uint64(op.Key % 16)
			if op.Del {
				delete(model, k)
				s.Delete(k)
			} else {
				v := []byte{op.Val}
				model[k] = v
				s.Put(k, v, ts(clock, 0))
				clock++
			}
		}
		for k, want := range model {
			got, _, err := s.Get(k, nil)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return s.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionedRouting(t *testing.T) {
	p := NewPartitioned(4, 1000)
	if p.NumPartitions() != 4 {
		t.Fatalf("partitions = %d", p.NumPartitions())
	}
	for i := uint64(0); i < 1000; i++ {
		p.Put(i, []byte{byte(i)}, ts(1, 0))
	}
	if p.Len() != 1000 {
		t.Fatalf("len = %d", p.Len())
	}
	// Every key must round-trip and be stable in its partition assignment.
	for i := uint64(0); i < 1000; i += 37 {
		v, _, err := p.Get(i, nil)
		if err != nil || v[0] != byte(i) {
			t.Fatalf("key %d: %v %v", i, v, err)
		}
		if p.PartitionOf(i) != p.PartitionOf(i) {
			t.Fatalf("unstable partition for %d", i)
		}
	}
	// Keys must actually spread across partitions.
	nonEmpty := 0
	for i := 0; i < 4; i++ {
		if p.Partition(i).Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 4 {
		t.Fatalf("only %d partitions populated", nonEmpty)
	}
}

func TestPartitionedPutIfNewer(t *testing.T) {
	p := NewPartitioned(2, 100)
	p.Put(5, []byte("a"), ts(2, 0))
	if err := p.PutIfNewer(5, []byte("b"), ts(1, 0)); err != ErrStale {
		t.Fatalf("stale accepted")
	}
	if err := p.PutIfNewer(5, []byte("b"), ts(3, 0)); err != nil {
		t.Fatalf("newer rejected: %v", err)
	}
}

func TestPartitionedZeroPartitionsClamped(t *testing.T) {
	p := NewPartitioned(0, 10)
	if p.NumPartitions() != 1 {
		t.Fatalf("clamp failed: %d", p.NumPartitions())
	}
}

func BenchmarkGet(b *testing.B) {
	s := New(1 << 16)
	val := bytes.Repeat([]byte{7}, 40)
	for i := uint64(0); i < 1<<16; i++ {
		s.Put(i, val, ts(1, 0))
	}
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _, _ = s.Get(uint64(i)&0xffff, buf)
	}
}

func BenchmarkPut(b *testing.B) {
	s := New(1 << 16)
	val := bytes.Repeat([]byte{7}, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(uint64(i)&0xffff, val, ts(uint32(i), 0))
	}
}

// LeasedBuffers counts the buffers live leases pin: two leases on one key pin
// one buffer, a released lease pins nothing, and a buffer a write swapped out
// from under its lease is no longer the store's to count.
func TestLeasedBuffers(t *testing.T) {
	p := NewPartitioned(4, 64)
	for k := uint64(0); k < 64; k++ {
		p.Put(k, []byte{byte(k)}, ts(1, 0))
	}
	if n := p.LeasedBuffers(); n != 0 {
		t.Fatalf("%d leased buffers before any lease", n)
	}
	a, _, _ := p.GetLease(1)
	b, _, _ := p.GetLease(1)
	c, _, _ := p.GetLease(2)
	if n := p.LeasedBuffers(); n != 2 {
		t.Fatalf("%d leased buffers with keys 1 (twice) and 2 leased, want 2", n)
	}
	a.Release()
	c.Release()
	if n := p.LeasedBuffers(); n != 1 {
		t.Fatalf("%d leased buffers with one lease left, want 1", n)
	}
	p.Put(1, []byte{0xFF}, ts(2, 0)) // copy-on-write: b keeps the old buffer
	if n := p.LeasedBuffers(); n != 0 {
		t.Fatalf("%d leased buffers after the leased one was swapped out, want 0", n)
	}
	b.Release()
}
