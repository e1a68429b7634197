package mcheck

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/timestamp"
)

func TestBoundsValidate(t *testing.T) {
	bad := []Bounds{
		{Procs: 1, Addrs: 1, MaxClock: 1},
		{Procs: 5, Addrs: 1, MaxClock: 1},
		{Procs: 3, Addrs: 0, MaxClock: 1},
		{Procs: 3, Addrs: 3, MaxClock: 1},
		{Procs: 3, Addrs: 1, MaxClock: 0},
		{Procs: 3, Addrs: 1, MaxClock: 9},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d must fail: %+v", i, b)
		}
	}
	if err := DefaultBounds().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStateKeyCanonicalizesMessageOrder(t *testing.T) {
	b := Bounds{Procs: 2, Addrs: 1, MaxClock: 2}
	s1 := initial(b)
	s1.Msgs = []Msg{
		{Kind: core.MsgInvalidation, Addr: 0, TS: timestamp.TS{Clock: 1, Writer: 0}, To: 1, From: 0},
		{Kind: core.MsgUpdate, Addr: 0, TS: timestamp.TS{Clock: 1, Writer: 1}, To: 0, From: 1, Val: timestamp.TS{Clock: 1, Writer: 1}},
	}
	s2 := s1.clone()
	s2.Msgs[0], s2.Msgs[1] = s2.Msgs[1], s2.Msgs[0]
	if s1.key(b) != s2.key(b) {
		t.Error("message permutations must hash identically")
	}
}

func TestCloneIsDeep(t *testing.T) {
	b := Bounds{Procs: 2, Addrs: 1, MaxClock: 2}
	s := initial(b)
	s.Msgs = append(s.Msgs, Msg{Kind: core.MsgInvalidation})
	c := s.clone()
	c.Lines[0].Val = timestamp.TS{Clock: 1, Writer: 1}
	c.Returned[0] = timestamp.TS{Clock: 1, Writer: 1}
	c.Msgs[0].Kind = core.MsgUpdate
	if s.Lines[0].Val != (timestamp.TS{}) || s.Returned[0] != (timestamp.TS{}) || s.Msgs[0].Kind != core.MsgInvalidation {
		t.Error("clone aliases the original")
	}
}

// The heart of the reproduction of §5.2's verification: the Lin protocol is
// safe and deadlock-free across a matrix of bounded instances.
func TestLinVerifiedSmallInstances(t *testing.T) {
	for _, b := range []Bounds{
		{Procs: 2, Addrs: 1, MaxClock: 2},
		{Procs: 2, Addrs: 1, MaxClock: 3},
		{Procs: 2, Addrs: 2, MaxClock: 1},
		{Procs: 3, Addrs: 1, MaxClock: 1},
	} {
		rep, err := Check(Lin, b)
		if err != nil {
			t.Fatalf("%+v: %v", b, err)
		}
		if !rep.OK() {
			t.Errorf("%+v: %s\ntrace: %v", b, rep.Violation, rep.Trace)
		}
		if rep.States < 10 || rep.Quiescent == 0 {
			t.Errorf("%+v: implausible exploration: %+v", b, rep)
		}
		t.Log(rep.String())
	}
}

// Paper-size instance (3 procs, 2-bit timestamps). ~1.6M states; kept out
// of -short runs, and out of race builds: it is a single-goroutine BFS over
// pure functions, which the race detector only makes several times slower.
func TestLinVerifiedPaperDepth(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("1.6M-state exhaustive check; run without -short and without -race")
	}
	rep, err := Check(Lin, Bounds{Procs: 3, Addrs: 1, MaxClock: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("violation: %s\ntrace: %v", rep.Violation, rep.Trace)
	}
	if rep.States < 1_000_000 {
		t.Fatalf("expected deep exploration, got %d states", rep.States)
	}
	t.Log(rep.String())
}

// The SC protocol (one stable state, no transients) has a much smaller
// space and must also verify.
func TestSCVerified(t *testing.T) {
	for _, b := range []Bounds{
		{Procs: 3, Addrs: 1, MaxClock: 2},
		{Procs: 3, Addrs: 2, MaxClock: 1},
		{Procs: 2, Addrs: 2, MaxClock: 3},
	} {
		rep, err := Check(SC, b)
		if err != nil {
			t.Fatalf("%+v: %v", b, err)
		}
		if !rep.OK() {
			t.Errorf("%+v: %s\ntrace: %v", b, rep.Violation, rep.Trace)
		}
	}
}

// Fault injection: dropping the unconditional ack must be caught as a
// deadlock — a pending write that can never gather its acknowledgements.
func TestCheckerCatchesConditionalAckDeadlock(t *testing.T) {
	rep, err := CheckFault(Lin, Bounds{Procs: 2, Addrs: 1, MaxClock: 2}, FaultConditionalAck)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("checker missed the conditional-ack deadlock")
	}
	if !strings.Contains(rep.Violation, "deadlock") {
		t.Fatalf("expected a deadlock violation, got: %s", rep.Violation)
	}
	if len(rep.Trace) == 0 {
		t.Fatal("no counterexample trace")
	}
	t.Logf("counterexample (%d steps): %v", len(rep.Trace), rep.Trace)
}

// Fault injection: applying timestamp-mismatched updates must be caught as
// a data-value violation.
func TestCheckerCatchesMismatchedUpdate(t *testing.T) {
	rep, err := CheckFault(Lin, Bounds{Procs: 3, Addrs: 1, MaxClock: 1}, FaultApplyMismatchedUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("checker missed the mismatched-update bug")
	}
	if !strings.Contains(rep.Violation, "data-value") && !strings.Contains(rep.Violation, "quiescence") {
		t.Fatalf("unexpected violation class: %s", rep.Violation)
	}
	t.Logf("violation: %s", rep.Violation)
}

// The Lin stale read this repo shipped until core.Line.Invalidate learned to
// yield (ROADMAP item 1): a replica in the Write state acknowledges a
// lower-stamped invalidation and keeps serving its pre-write value after
// that put has returned. Undoing the transition must trip the real-time
// invariant, by the shortest trace there is: both procs start a write, the
// lower-stamped invalidation reaches the higher-stamped writer, its ack
// completes the lower-stamped put.
func TestCheckerCatchesServeAfterLowerAck(t *testing.T) {
	rep, err := CheckFault(Lin, Bounds{Procs: 2, Addrs: 1, MaxClock: 1}, FaultServeAfterLowerAck)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("checker missed the stale read behind a returned put")
	}
	if !strings.Contains(rep.Violation, "real-time") {
		t.Fatalf("expected a real-time violation, got: %s", rep.Violation)
	}
	want := []string{"write(p0,a0)", "write(p1,a0)", "deliver(invalidation,a0,ts1.0,to p1)", "deliver(ack,a0,ts1.0,to p0)"}
	if strings.Join(rep.Trace, " ") != strings.Join(want, " ") {
		t.Fatalf("counterexample:\n got %v\nwant %v", rep.Trace, want)
	}
	t.Logf("%s\ncounterexample (%d steps): %v", rep.Violation, len(rep.Trace), rep.Trace)
}

func TestFaultString(t *testing.T) {
	if FaultNone.String() != "none" || FaultConditionalAck.String() != "conditional-ack" ||
		FaultApplyMismatchedUpdate.String() != "apply-mismatched-update" ||
		FaultServeAfterLowerAck.String() != "serve-after-lower-ack" {
		t.Error("fault names wrong")
	}
}

func TestProtocolString(t *testing.T) {
	if Lin.String() != "Lin" || SC.String() != "SC" {
		t.Error("protocol names wrong")
	}
}

func TestReportString(t *testing.T) {
	rep, err := Check(SC, Bounds{Procs: 2, Addrs: 1, MaxClock: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.String(); !strings.Contains(s, "verified") {
		t.Errorf("report: %s", s)
	}
}

func TestCheckRejectsBadBounds(t *testing.T) {
	if _, err := Check(Lin, Bounds{}); err == nil {
		t.Fatal("zero bounds must be rejected")
	}
}

func BenchmarkCheckLinSmall(b *testing.B) {
	bounds := Bounds{Procs: 3, Addrs: 1, MaxClock: 1}
	for i := 0; i < b.N; i++ {
		if _, err := Check(Lin, bounds); err != nil {
			b.Fatal(err)
		}
	}
}
