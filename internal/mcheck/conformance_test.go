package mcheck

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/timestamp"
)

// The checker's value identity (Val == TS of the producing write) must hold
// for real caches with real value bytes too: after a drained run, every
// replica's value bytes encode the entry timestamp.
func TestImplementationDataValueInvariant(t *testing.T) {
	const procs = 3
	const key = uint64(0)
	rng := rand.New(rand.NewSource(99))
	caches := make([]*core.Cache, procs)
	for i := range caches {
		caches[i] = core.NewCache(uint8(i), procs)
		caches[i].Install([]uint64{key}, func(uint64) ([]byte, timestamp.TS, bool) {
			return []byte{0, 0}, timestamp.TS{}, true
		})
	}
	var msgs []any
	tos := []int{}
	push := func(m any, to int) { msgs = append(msgs, m); tos = append(tos, to) }
	pop := func(i int) (any, int) {
		m, to := msgs[i], tos[i]
		msgs[i] = msgs[len(msgs)-1]
		msgs = msgs[:len(msgs)-1]
		tos[i] = tos[len(tos)-1]
		tos = tos[:len(tos)-1]
		return m, to
	}

	writes := 0
	for steps := 0; steps < 4000 && (writes < 30 || len(msgs) > 0); steps++ {
		if writes < 30 && (len(msgs) == 0 || rng.Intn(4) == 0) {
			p := rng.Intn(procs)
			_, curTS, _ := caches[p].EntryState(key)
			val := []byte{byte(curTS.Clock + 1), byte(p)}
			inv, err := caches[p].WriteLinStart(key, val)
			if err != nil {
				continue
			}
			writes++
			for q := 0; q < procs; q++ {
				if q != p {
					push(inv, q)
				}
			}
			continue
		}
		i := rng.Intn(len(msgs))
		m, to := pop(i)
		switch mm := m.(type) {
		case core.Invalidation:
			ack, _ := caches[to].ApplyInvalidation(mm)
			push(ack, int(mm.From))
		case core.Ack:
			if upd, done := caches[to].ApplyAck(mm); done {
				for q := 0; q < procs; q++ {
					if q != to {
						push(upd, q)
					}
				}
			}
		case core.Update:
			caches[to].ApplyUpdateLin(mm)
		}
	}
	if len(msgs) != 0 {
		t.Fatalf("messages never drained: %d", len(msgs))
	}
	for p := 0; p < procs; p++ {
		st, ts, _ := caches[p].EntryState(key)
		if st != core.StateValid {
			t.Fatalf("p%d not Valid at quiescence: %v", p, st)
		}
		v, _, err := caches[p].Read(key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ts.Clock != 0 && (v[0] != byte(ts.Clock) || v[1] != ts.Writer) {
			t.Fatalf("p%d data-value violated: value %v does not encode ts %v", p, v, ts)
		}
	}
}
