package core

import (
	"bytes"
	"testing"

	"repro/internal/timestamp"
)

func TestAddInstallsOnlyNewKeys(t *testing.T) {
	c := newCacheWith(t, 0, 3, 1, 2)
	fetches := 0
	n := c.Add([]uint64{2, 5, 6}, func(key uint64) ([]byte, timestamp.TS, bool) {
		fetches++
		return []byte{byte(key), 0xF0}, timestamp.TS{Clock: 7, Writer: 1}, true
	})
	if n != 2 {
		t.Fatalf("installed %d keys, want 2", n)
	}
	if fetches != 2 {
		t.Fatalf("fetched %d keys (must not re-fetch the cached key 2)", fetches)
	}
	for _, k := range []uint64{1, 2, 5, 6} {
		if !c.Contains(k) {
			t.Fatalf("key %d missing after Add", k)
		}
	}
	v, ts, err := c.Read(5, nil)
	if err != nil || !bytes.Equal(v, []byte{5, 0xF0}) || ts.Clock != 7 {
		t.Fatalf("promoted key wrong: %v %v %v", v, ts, err)
	}
	// The retained key kept its original value.
	v, _, err = c.Read(1, nil)
	if err != nil || !bytes.Equal(v, []byte{1}) {
		t.Fatalf("retained key clobbered: %v %v", v, err)
	}
}

func TestAddSkipsUnfetchableKeys(t *testing.T) {
	c := newCacheWith(t, 0, 2, 1)
	n := c.Add([]uint64{8, 9}, func(key uint64) ([]byte, timestamp.TS, bool) {
		return nil, timestamp.TS{}, key == 9
	})
	if n != 1 || c.Contains(8) || !c.Contains(9) {
		t.Fatalf("n=%d contains8=%v contains9=%v", n, c.Contains(8), c.Contains(9))
	}
	if c.Add(nil, nil) != 0 {
		t.Fatal("empty Add must be a no-op")
	}
}

func TestFreezeBlocksWritesServesReads(t *testing.T) {
	c := newCacheWith(t, 0, 3, 1, 2)
	if _, err := c.WriteSC(1, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	if n := c.Freeze([]uint64{1, 99}); n != 1 {
		t.Fatalf("froze %d entries, want 1 (uncached keys skipped)", n)
	}
	if !c.Frozen(1) || c.Frozen(2) {
		t.Fatal("frozen flags wrong")
	}
	// Re-freezing is idempotent.
	if n := c.Freeze([]uint64{1}); n != 0 {
		t.Fatalf("double freeze transitioned %d entries", n)
	}
	// New writes are refused under every protocol...
	if _, err := c.WriteSC(1, []byte{0xBB}); err != ErrFrozen {
		t.Fatalf("WriteSC on frozen entry: %v, want ErrFrozen", err)
	}
	if _, err := c.WriteLinStart(1, []byte{0xBB}); err != ErrFrozen {
		t.Fatalf("WriteLinStart on frozen entry: %v, want ErrFrozen", err)
	}
	// ...while reads keep serving the committed value.
	v, _, err := c.Read(1, nil)
	if err != nil || !bytes.Equal(v, []byte{0xAA}) {
		t.Fatalf("read on frozen entry: %v %v", v, err)
	}
	// The unfrozen neighbour is untouched.
	if _, err := c.WriteSC(2, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectFrozenReportsDirtyValue(t *testing.T) {
	c := newCacheWith(t, 0, 3, 1, 2)
	if _, err := c.WriteSC(1, []byte{0xAA, 0xAB}); err != nil {
		t.Fatal(err)
	}
	c.Freeze([]uint64{1, 2})
	wb, dirty, stall := c.CollectFrozen(1)
	if stall != nil || !dirty {
		t.Fatalf("dirty entry: dirty=%v stall=%v", dirty, stall)
	}
	if !bytes.Equal(wb.Value, []byte{0xAA, 0xAB}) || wb.TS.Clock != 1 {
		t.Fatalf("write-back %v@%v", wb.Value, wb.TS)
	}
	// A clean entry needs no write-back, an uncached key is trivially done.
	if _, dirty, stall := c.CollectFrozen(2); stall != nil || dirty {
		t.Fatalf("clean entry: dirty=%v stall=%v", dirty, stall)
	}
	if _, dirty, stall := c.CollectFrozen(42); stall != nil || dirty {
		t.Fatalf("uncached key: dirty=%v stall=%v", dirty, stall)
	}
}

func TestCollectFrozenWaitsForLinWrite(t *testing.T) {
	c := newCacheWith(t, 0, 2, 1)
	inv, err := c.WriteLinStart(1, []byte{0xEE})
	if err != nil {
		t.Fatal(err)
	}
	c.Freeze([]uint64{1})
	if _, _, stall := c.CollectFrozen(1); stall != ErrWritePending {
		t.Fatalf("entry with a pending Lin write: stall %v, want ErrWritePending", stall)
	}
	// The last ack completes the write; now the entry is collectable and
	// carries the written value.
	if _, done := c.ApplyAck(Ack{Key: 1, TS: inv.TS, From: 1}); !done {
		t.Fatal("single ack must complete a 2-node write")
	}
	wb, dirty, stall := c.CollectFrozen(1)
	if stall != nil || !dirty || !bytes.Equal(wb.Value, []byte{0xEE}) || wb.TS != inv.TS {
		t.Fatalf("post-completion collect: %v dirty=%v stall=%v", wb, dirty, stall)
	}
}

func TestCollectFrozenWaitsForInvalidEntry(t *testing.T) {
	c := newCacheWith(t, 1, 3, 1)
	// A remote writer's invalidation parks the entry in Invalid.
	ts := timestamp.TS{Clock: 5, Writer: 0}
	if _, invalidated := c.ApplyInvalidation(Invalidation{Key: 1, TS: ts, From: 0}); !invalidated {
		t.Fatal("invalidation not applied")
	}
	c.Freeze([]uint64{1})
	if _, _, stall := c.CollectFrozen(1); stall != ErrInvalid {
		t.Fatalf("Invalid entry (its ts already names the winner): stall %v, want ErrInvalid", stall)
	}
	// The matching update revalidates; collect then sees the new value.
	if !c.ApplyUpdateLin(Update{Key: 1, TS: ts, Value: []byte{0x99}}) {
		t.Fatal("update not applied")
	}
	wb, dirty, stall := c.CollectFrozen(1)
	if stall != nil || !dirty || !bytes.Equal(wb.Value, []byte{0x99}) || wb.TS != ts {
		t.Fatalf("post-update collect: %v dirty=%v stall=%v", wb, dirty, stall)
	}
}

func TestRemoveDropsKeysAndPoisonsStragglers(t *testing.T) {
	c := newCacheWith(t, 0, 3, 1, 2, 3)
	// A straggler writer resolved the entry through the pre-Remove table;
	// the shared entry must refuse it afterwards.
	c.Freeze([]uint64{1})
	if n := c.Remove([]uint64{1, 2, 42}); n != 2 {
		t.Fatalf("removed %d keys, want 2", n)
	}
	if c.Contains(1) || c.Contains(2) || !c.Contains(3) {
		t.Fatal("wrong key set after Remove")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if _, _, err := c.Read(1, nil); err != ErrMiss {
		t.Fatalf("removed key must miss, got %v", err)
	}
	if _, err := c.WriteSC(1, nil); err != ErrMiss {
		t.Fatalf("removed key write must miss, got %v", err)
	}
	if c.Stats().Evictions.Load() != 2 {
		t.Fatalf("evictions = %d", c.Stats().Evictions.Load())
	}
	// In-flight consistency traffic for removed keys is dropped quietly.
	if c.ApplyUpdateSC(Update{Key: 1, TS: timestamp.TS{Clock: 3}, Value: []byte{1}}) {
		t.Fatal("update applied to a removed key")
	}
}

func TestConsistencyTrafficStillAppliesWhileFrozen(t *testing.T) {
	c := newCacheWith(t, 1, 3, 1)
	c.Freeze([]uint64{1})
	// SC update from a peer that wrote just before the freeze reached it.
	if !c.ApplyUpdateSC(Update{Key: 1, TS: timestamp.TS{Clock: 2, Writer: 0}, Value: []byte{0x42}}) {
		t.Fatal("frozen entry must still drain in-flight updates")
	}
	v, _, err := c.Read(1, nil)
	if err != nil || !bytes.Equal(v, []byte{0x42}) {
		t.Fatalf("read after frozen update: %v %v", v, err)
	}
	// The drained value is what the demotion writes back.
	wb, dirty, stall := c.CollectFrozen(1)
	if stall != nil || !dirty || !bytes.Equal(wb.Value, []byte{0x42}) {
		t.Fatalf("collect after frozen update: %v dirty=%v stall=%v", wb, dirty, stall)
	}
}
