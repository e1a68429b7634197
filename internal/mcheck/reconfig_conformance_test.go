package mcheck

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/timestamp"
)

// Conformance tests for the online hot-set reconfiguration protocol
// (cluster/reconfig.go): random interleavings of the demotion dance
// (freeze → collect → write-back → commit) and of promotions with SC and
// Lin client writes, executed single-threadedly against real core.Cache
// replicas and a real store.Store home shard so every message delivery and
// every protocol step is an explicit schedule action. Two invariants are
// checked on every trial:
//
//   - no lost writes: after the reconfiguration and a full message drain,
//     the home shard holds the value of the highest-timestamped write that
//     was ever issued, no matter where in the transition each write landed
//     (cache, retried-into-home, or in-flight update);
//   - no stale reads past a demotion's write-back: once the keys are
//     committed out of the caches, a read that misses to the home shard
//     never observes a version older than the write-back.

// issuedWrite records one client write and the timestamp that serializes it.
type issuedWrite struct {
	ts  timestamp.TS
	val []byte
}

func maxIssued(t *testing.T, issued []issuedWrite) issuedWrite {
	t.Helper()
	if len(issued) == 0 {
		t.Fatal("no writes issued")
	}
	best := issued[0]
	for _, w := range issued[1:] {
		if w.ts.After(best.ts) {
			best = w
		}
	}
	return best
}

// homePut mirrors the miss path of a put that reached the home shard
// (cluster.localKVSPut / rpcOpPut): serialize against the stored version.
func homePut(home *store.Store, key uint64, writer uint8, val []byte) timestamp.TS {
	_, ts, _ := home.Get(key, nil)
	nts := ts.Next(writer)
	home.Put(key, val, nts)
	return nts
}

// demoter drives the five-phase demotion (freeze → collect → write-back →
// retire → commit) of one key across all replicas, one sub-step per Step
// call, so the test scheduler can interleave client activity anywhere
// inside the transition.
type demoter struct {
	caches []*core.Cache
	home   *store.Store
	key    uint64

	frozen    int
	collected int
	retired   int
	committed int
	best      core.WriteBack
	bestSet   bool
	wroteBack bool
	// WBTS is the version the write-back (if any) pushed home; valid once
	// Done.
	WBTS timestamp.TS
}

func (d *demoter) Done() bool { return d.committed == len(d.caches) }

// Step performs the next demotion sub-step. It returns false when the
// current step must be retried later (a collect found the entry still
// draining protocol traffic).
func (d *demoter) Step() bool {
	switch {
	case d.frozen < len(d.caches):
		d.caches[d.frozen].Freeze([]uint64{d.key})
		d.frozen++
	case d.collected < len(d.caches):
		wb, dirty, stall := d.caches[d.collected].CollectFrozen(d.key)
		if stall != nil {
			return false
		}
		if dirty && (!d.bestSet || wb.TS.After(d.best.TS)) {
			d.best, d.bestSet = wb, true
		}
		d.collected++
	case !d.wroteBack:
		if d.bestSet {
			_ = d.home.PutIfNewer(d.key, d.best.Value, d.best.TS)
			d.WBTS = d.best.TS
		}
		d.wroteBack = true
	case d.retired < len(d.caches):
		// Reads go dark everywhere before any replica drops its copy.
		d.caches[d.retired].Retire([]uint64{d.key})
		d.retired++
	default:
		d.caches[d.committed].Remove([]uint64{d.key})
		d.committed++
	}
	return true
}

// TestSCDemotionConformance interleaves SC writes (with the ops.go retry
// discipline: ErrFrozen spins, ErrMiss forwards to the home shard) and
// update deliveries with the demotion protocol.
func TestSCDemotionConformance(t *testing.T) {
	const procs = 3
	const key = uint64(0)
	for trial := 0; trial < 80; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		home := store.New(16)
		home.Put(key, []byte{0, 0}, timestamp.TS{})
		fetch := func(uint64) ([]byte, timestamp.TS, bool) {
			v, ts, err := home.Get(key, nil)
			if err != nil {
				return nil, timestamp.TS{}, false
			}
			return v, ts, true
		}
		caches := make([]*core.Cache, procs)
		for i := range caches {
			caches[i] = core.NewCache(uint8(i), procs)
			caches[i].Install([]uint64{key}, fetch)
		}

		type updMsg struct {
			u  core.Update
			to int
		}
		var msgs []updMsg
		var issued []issuedWrite
		var spinning []int // procs whose write hit ErrFrozen and must retry
		nextVal := byte(1)

		tryWrite := func(p int) {
			val := []byte{nextVal, byte(p)}
			u, err := caches[p].WriteSC(key, val)
			switch err {
			case nil:
				nextVal++
				issued = append(issued, issuedWrite{ts: u.TS, val: append([]byte(nil), val...)})
				for q := 0; q < procs; q++ {
					if q != p {
						msgs = append(msgs, updMsg{u: u, to: q})
					}
				}
			case core.ErrFrozen:
				spinning = append(spinning, p)
			case core.ErrMiss:
				nextVal++
				ts := homePut(home, key, uint8(p), val)
				issued = append(issued, issuedWrite{ts: ts, val: append([]byte(nil), val...)})
			default:
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		deliver := func(i int) {
			m := msgs[i]
			msgs[i] = msgs[len(msgs)-1]
			msgs = msgs[:len(msgs)-1]
			caches[m.to].ApplyUpdateSC(m.u)
		}

		d := &demoter{caches: caches, home: home, key: key}
		// The commit-point invariant is the heart of the write-safety
		// argument: the instant the last replica drops the key, the home
		// shard must already dominate every write issued so far — a write
		// that squeezed into a dying entry after its collect would violate
		// it (and only the freeze step prevents that).
		commitPoint := func() {
			t.Helper()
			_, ts, err := home.Get(key, nil)
			if err != nil {
				t.Fatalf("trial %d: home read at commit point: %v", trial, err)
			}
			for _, w := range issued {
				if w.ts.After(ts) {
					t.Fatalf("trial %d: write %v@%v lost across the demotion (home at %v)",
						trial, w.val, w.ts, ts)
				}
			}
		}
		for step := 0; step < 150; step++ {
			switch rng.Intn(4) {
			case 0:
				tryWrite(rng.Intn(procs))
			case 1:
				if len(spinning) > 0 {
					i := rng.Intn(len(spinning))
					p := spinning[i]
					spinning = append(spinning[:i], spinning[i+1:]...)
					tryWrite(p)
				}
			case 2:
				if len(msgs) > 0 {
					deliver(rng.Intn(len(msgs)))
				}
			case 3:
				if !d.Done() {
					d.Step() // SC entries are always quiescent
					if d.Done() {
						commitPoint()
					}
				}
			}
		}
		// Drain: finish the demotion, flush in-flight updates, and let the
		// spinning writers miss through to the home shard.
		for !d.Done() {
			if !d.Step() {
				t.Fatalf("trial %d: SC entry reported non-quiescent", trial)
			}
			if d.Done() {
				commitPoint()
			}
		}
		for len(msgs) > 0 {
			deliver(len(msgs) - 1)
		}
		for len(spinning) > 0 {
			p := spinning[len(spinning)-1]
			spinning = spinning[:len(spinning)-1]
			tryWrite(p)
		}

		// Past the demotion every cache must miss...
		for p := 0; p < procs; p++ {
			if caches[p].Contains(key) {
				t.Fatalf("trial %d: p%d still caches the demoted key", trial, p)
			}
		}
		// ...and the home shard must hold the highest-timestamped write,
		// at a version no older than the write-back (no lost writes, no
		// stale reads past the write-back).
		v, ts, err := home.Get(key, nil)
		if err != nil {
			t.Fatalf("trial %d: home read: %v", trial, err)
		}
		if ts.Less(d.WBTS) {
			t.Fatalf("trial %d: home version %v older than write-back %v", trial, ts, d.WBTS)
		}
		if len(issued) > 0 {
			win := maxIssued(t, issued)
			if ts != win.ts || !bytes.Equal(v, win.val) {
				t.Fatalf("trial %d: home has %v@%v, want winner %v@%v",
					trial, v, ts, win.val, win.ts)
			}
		}
	}
}

// TestLinDemotionConformance runs the same schedule against the two-phase
// Lin write protocol, whose in-flight invalidations/acks/updates are what
// the collect phase's quiescence check exists for.
func TestLinDemotionConformance(t *testing.T) {
	const procs = 3
	const key = uint64(0)
	for trial := 0; trial < 80; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		home := store.New(16)
		home.Put(key, []byte{0, 0}, timestamp.TS{})
		fetch := func(uint64) ([]byte, timestamp.TS, bool) {
			v, ts, err := home.Get(key, nil)
			if err != nil {
				return nil, timestamp.TS{}, false
			}
			return v, ts, true
		}
		caches := make([]*core.Cache, procs)
		for i := range caches {
			caches[i] = core.NewCache(uint8(i), procs)
			caches[i].Install([]uint64{key}, fetch)
		}

		type linMsg struct {
			m  any
			to int
		}
		var msgs []linMsg
		var issued []issuedWrite
		var spinning []int
		nextVal := byte(1)

		tryWrite := func(p int) {
			val := []byte{nextVal, byte(p)}
			inv, err := caches[p].WriteLinStart(key, val)
			switch err {
			case nil:
				nextVal++
				// The write's place in the serialization order is fixed at
				// start time; losers complete without publishing, which the
				// winner-takes-all invariant below already models.
				issued = append(issued, issuedWrite{ts: inv.TS, val: append([]byte(nil), val...)})
				for q := 0; q < procs; q++ {
					if q != p {
						msgs = append(msgs, linMsg{m: inv, to: q})
					}
				}
			case core.ErrFrozen, core.ErrWritePending:
				spinning = append(spinning, p)
			case core.ErrMiss:
				nextVal++
				ts := homePut(home, key, uint8(p), val)
				issued = append(issued, issuedWrite{ts: ts, val: append([]byte(nil), val...)})
			default:
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		deliver := func(i int) {
			msg := msgs[i]
			msgs[i] = msgs[len(msgs)-1]
			msgs = msgs[:len(msgs)-1]
			switch m := msg.m.(type) {
			case core.Invalidation:
				ack, _ := caches[msg.to].ApplyInvalidation(m)
				msgs = append(msgs, linMsg{m: ack, to: int(m.From)})
			case core.Ack:
				if upd, done := caches[msg.to].ApplyAck(m); done {
					for q := 0; q < procs; q++ {
						if q != msg.to {
							msgs = append(msgs, linMsg{m: upd, to: q})
						}
					}
				}
			case core.Update:
				caches[msg.to].ApplyUpdateLin(m)
			}
		}

		d := &demoter{caches: caches, home: home, key: key}
		// See the SC test: at the instant the demotion commits, the home
		// shard must dominate every write issued so far. For Lin this
		// additionally proves the collect phase really waited out the
		// two-phase writes that were in flight when the freeze landed.
		commitPoint := func() {
			t.Helper()
			_, ts, err := home.Get(key, nil)
			if err != nil {
				t.Fatalf("trial %d: home read at commit point: %v", trial, err)
			}
			for _, w := range issued {
				if w.ts.After(ts) {
					t.Fatalf("trial %d: write %v@%v lost across the demotion (home at %v)",
						trial, w.val, w.ts, ts)
				}
			}
		}
		collectRetries := 0
		for step := 0; step < 200; step++ {
			switch rng.Intn(4) {
			case 0:
				tryWrite(rng.Intn(procs))
			case 1:
				if len(spinning) > 0 {
					i := rng.Intn(len(spinning))
					p := spinning[i]
					spinning = append(spinning[:i], spinning[i+1:]...)
					tryWrite(p)
				}
			case 2:
				if len(msgs) > 0 {
					deliver(rng.Intn(len(msgs)))
				}
			case 3:
				if !d.Done() {
					if !d.Step() {
						collectRetries++ // entry still draining: legal, retry later
					} else if d.Done() {
						commitPoint()
					}
				}
			}
		}
		// Drain in-flight protocol traffic and finish the demotion; collect
		// must go quiescent once the messages are gone (every started write
		// completed or was superseded).
		for !d.Done() {
			if d.Step() {
				if d.Done() {
					commitPoint()
				}
				continue
			}
			if len(msgs) == 0 {
				t.Fatalf("trial %d: collect stuck with no traffic in flight", trial)
			}
			deliver(len(msgs) - 1)
		}
		for len(msgs) > 0 {
			deliver(len(msgs) - 1)
		}
		for len(spinning) > 0 {
			p := spinning[len(spinning)-1]
			spinning = spinning[:len(spinning)-1]
			tryWrite(p)
		}

		for p := 0; p < procs; p++ {
			if caches[p].Contains(key) {
				t.Fatalf("trial %d: p%d still caches the demoted key", trial, p)
			}
		}
		v, ts, err := home.Get(key, nil)
		if err != nil {
			t.Fatalf("trial %d: home read: %v", trial, err)
		}
		if ts.Less(d.WBTS) {
			t.Fatalf("trial %d: home version %v older than write-back %v (stale read past write-back)",
				trial, ts, d.WBTS)
		}
		if len(issued) > 0 {
			win := maxIssued(t, issued)
			if ts != win.ts || !bytes.Equal(v, win.val) {
				t.Fatalf("trial %d: home has %v@%v, want winner %v@%v (retries=%d)",
					trial, v, ts, win.val, win.ts, collectRetries)
			}
		}
	}
}

// promoter drives the prepare → fetch → fill → unfreeze promotion of one
// key across all replicas, one sub-step per Step call. The prepare barrier
// pins the home value (no write can reach the home shard past the frozen
// placeholders, so the fetch cannot be overtaken); the unfreeze barrier
// keeps writes held until every replica serves the value (a write
// completing earlier would be invisible to replicas still missing to the
// home shard).
type promoter struct {
	caches []*core.Cache
	home   *store.Store
	key    uint64

	prepared int
	fetched  bool
	FetchVal []byte
	FetchTS  timestamp.TS
	filled   int
	unfrozen int
}

func (p *promoter) Done() bool { return p.unfrozen == len(p.caches) }

func (p *promoter) Step() {
	switch {
	case p.prepared < len(p.caches):
		p.caches[p.prepared].AddPending([]uint64{p.key})
		p.prepared++
	case !p.fetched:
		v, ts, err := p.home.Get(p.key, nil)
		if err == nil {
			p.FetchVal = append([]byte(nil), v...)
			p.FetchTS = ts
		}
		p.fetched = true
	case p.filled < len(p.caches):
		p.caches[p.filled].FillAdd(p.key, p.FetchVal, p.FetchTS)
		p.filled++
	default:
		p.caches[p.unfrozen].Unfreeze([]uint64{p.key})
		p.unfrozen++
	}
}

// TestSCPromotionConformance interleaves the three-phase promotion with SC
// client writes. The commit-point invariant is the teeth: when the last
// replica goes live, the installed version must dominate every write issued
// so far — a put that reached the home shard after the fetch (the race the
// prepare barrier exists to prevent) would violate it. A final demotion
// then checks end-to-end convergence at the home shard.
func TestSCPromotionConformance(t *testing.T) {
	const procs = 3
	const key = uint64(0)
	for trial := 0; trial < 80; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		home := store.New(16)
		home.Put(key, []byte{0, 0}, timestamp.TS{Clock: 1, Writer: 0})
		caches := make([]*core.Cache, procs)
		for i := range caches {
			caches[i] = core.NewCache(uint8(i), procs)
		}

		type updMsg struct {
			u  core.Update
			to int
		}
		var msgs []updMsg
		var issued, homeIssued []issuedWrite
		var spinning []int
		nextVal := byte(1)

		tryWrite := func(p int) {
			val := []byte{nextVal, byte(p)}
			u, err := caches[p].WriteSC(key, val)
			switch err {
			case nil:
				nextVal++
				issued = append(issued, issuedWrite{ts: u.TS, val: append([]byte(nil), val...)})
				for q := 0; q < procs; q++ {
					if q != p {
						msgs = append(msgs, updMsg{u: u, to: q})
					}
				}
			case core.ErrFrozen:
				// Placeholder: the write spins until the commit.
				spinning = append(spinning, p)
			case core.ErrMiss:
				// Not yet prepared here: the write goes to the home shard.
				nextVal++
				ts := homePut(home, key, uint8(p), val)
				w := issuedWrite{ts: ts, val: append([]byte(nil), val...)}
				issued = append(issued, w)
				homeIssued = append(homeIssued, w)
			default:
				t.Fatalf("trial %d: %v", trial, err)
			}
		}

		pr := &promoter{caches: caches, home: home, key: key}
		commitPoint := func() {
			t.Helper()
			// All replicas live: the fetched version must dominate every
			// home-path write — they all happened before the prepare
			// barrier completed, hence before the fetch (a put overtaking
			// the fetch is the race the placeholder phase prevents; cache
			// writes at already-committed replicas legitimately exceed it).
			for _, w := range homeIssued {
				if w.ts.After(pr.FetchTS) {
					t.Fatalf("trial %d: home write %v@%v overtook the promotion fetch @%v",
						trial, w.val, w.ts, pr.FetchTS)
				}
			}
		}
		for step := 0; step < 120; step++ {
			switch rng.Intn(4) {
			case 0:
				tryWrite(rng.Intn(procs))
			case 1:
				if len(spinning) > 0 {
					i := rng.Intn(len(spinning))
					p := spinning[i]
					spinning = append(spinning[:i], spinning[i+1:]...)
					tryWrite(p)
				}
			case 2:
				if len(msgs) > 0 {
					i := rng.Intn(len(msgs))
					m := msgs[i]
					msgs[i] = msgs[len(msgs)-1]
					msgs = msgs[:len(msgs)-1]
					caches[m.to].ApplyUpdateSC(m.u)
				}
			case 3:
				if !pr.Done() {
					pr.Step()
					if pr.Done() {
						commitPoint()
					}
				}
			}
		}
		// Finish the promotion, release the spinners, drain the updates,
		// then demote everything and require convergence at the home shard.
		for !pr.Done() {
			pr.Step()
			if pr.Done() {
				commitPoint()
			}
		}
		for len(spinning) > 0 {
			p := spinning[len(spinning)-1]
			spinning = spinning[:len(spinning)-1]
			tryWrite(p)
		}
		for len(msgs) > 0 {
			m := msgs[len(msgs)-1]
			msgs = msgs[:len(msgs)-1]
			caches[m.to].ApplyUpdateSC(m.u)
		}
		d := &demoter{caches: caches, home: home, key: key}
		for !d.Done() {
			if !d.Step() {
				t.Fatalf("trial %d: SC entry reported non-quiescent", trial)
			}
		}
		v, ts, err := home.Get(key, nil)
		if err != nil {
			t.Fatalf("trial %d: home read: %v", trial, err)
		}
		if len(issued) > 0 {
			win := maxIssued(t, issued)
			if ts != win.ts || !bytes.Equal(v, win.val) {
				t.Fatalf("trial %d: home has %v@%v, want winner %v@%v",
					trial, v, ts, win.val, win.ts)
			}
		}
	}
}
