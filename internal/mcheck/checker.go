package mcheck

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
)

// Report is the outcome of an exhaustive check.
type Report struct {
	Protocol    Protocol
	Bounds      Bounds
	States      int // distinct states explored
	Transitions int // transitions taken
	Depth       int // BFS depth (protocol diameter within bounds)
	Quiescent   int // quiescent states encountered
	// Violation is empty when the protocol is safe and deadlock-free;
	// otherwise it describes the failed invariant and Trace holds the
	// action sequence reaching it.
	Violation string
	Trace     []string
}

// OK reports whether the check passed.
func (r Report) OK() bool { return r.Violation == "" }

// String summarizes the report.
func (r Report) String() string {
	status := "verified: safety + deadlock freedom hold"
	if !r.OK() {
		status = "VIOLATION: " + r.Violation
	}
	return fmt.Sprintf("%s protocol, %d procs / %d addrs / clock<=%d: %d states, %d transitions, depth %d — %s",
		r.Protocol, r.Bounds.Procs, r.Bounds.Addrs, r.Bounds.MaxClock,
		r.States, r.Transitions, r.Depth, status)
}

// maxStates bounds exploration as a safety valve; the paper-size instance
// fits comfortably.
const maxStates = 6_000_000

// Check exhaustively explores the protocol's state space by breadth-first
// search, verifying at every state:
//
//   - data-value invariant: a Valid line holds exactly the value written by
//     the write whose timestamp it carries (§5.2's "if an object is in a
//     valid state, it must hold the most recent value written");
//   - write-transient sanity: a line in the Write state has a pending write;
//   - unique write serialization: every update in flight carries a value
//     equal to its timestamp, so two distinct writes can never be confused
//     (the SWMR invariant in its logical-time form);
//   - real-time order (Lin): every readable copy of an address (state other
//     than Invalid) holds the same value, and none holds one older than a
//     put that has returned — what makes the protocol linearizable rather
//     than merely convergent;
//
// and at every *quiescent* state (no messages in flight, no pending writes):
//
//   - convergence: all replicas of every address are Valid and identical —
//     a non-Valid or divergent quiescent state would mean a replica is
//     stuck waiting forever, i.e. a deadlock.
//
// Deadlock freedom overall follows from BFS exhaustiveness: every reachable
// non-quiescent state has at least one enabled delivery transition (checked
// structurally), and quiescent states are converged.
func Check(proto Protocol, b Bounds) (Report, error) {
	return CheckFault(proto, b, FaultNone)
}

// CheckFault is Check with an injected protocol fault; it exists to
// demonstrate that the checker finds the bug class each fault introduces.
func CheckFault(proto Protocol, b Bounds, fault Fault) (Report, error) {
	if err := b.Validate(); err != nil {
		return Report{}, err
	}
	type node struct {
		state State
		key   string // state.key(b): the node's identity in visited
		depth int
	}
	rep := Report{Protocol: proto, Bounds: b}

	init := initial(b)
	initKey := init.key(b)
	visited := map[string]step{initKey: {}}
	queue := []node{{state: init, key: initKey}}

	// fail reports violation at the state keyed key, with the action trace
	// reconstructed through the parent links.
	fail := func(key, violation string) Report {
		rep.Violation = violation
		for key != initKey {
			st := visited[key]
			rep.Trace = append(rep.Trace, st.String())
			key = st.parent
		}
		slices.Reverse(rep.Trace)
		return rep
	}

	// expand enqueues next, reached from cur by the transition m (a write
	// started, or a message delivered), unless it was seen before.
	expand := func(cur node, next State, write bool, m Msg) {
		rep.Transitions++
		key := next.key(b)
		if _, seen := visited[key]; seen {
			return
		}
		visited[key] = step{parent: cur.key, write: write, m: m}
		rep.States++
		queue = append(queue, node{state: next, key: key, depth: cur.depth + 1})
	}

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		rep.Depth = max(rep.Depth, cur.depth)
		if v := checkInvariants(proto, b, &cur.state); v != "" {
			return fail(cur.key, v), nil
		}
		if len(cur.state.Msgs) == 0 {
			rep.Quiescent++
			if v := checkQuiescent(b, &cur.state); v != "" {
				return fail(cur.key, v), nil
			}
		}
		if rep.States >= maxStates {
			return rep, fmt.Errorf("mcheck: state budget exceeded (%d); tighten bounds", maxStates)
		}

		// Transitions: start a write at any (proc, addr)...
		for p := 0; p < b.Procs; p++ {
			for a := 0; a < b.Addrs; a++ {
				next := cur.state.clone()
				if startWrite(proto, b, &next, p, a) {
					expand(cur, next, true, Msg{From: uint8(p), Addr: uint8(a)})
				}
			}
		}
		// ...or deliver any in-flight message (arbitrary reordering).
		for i, m := range cur.state.Msgs {
			next := cur.state.clone()
			deliver(proto, b, &next, i, fault)
			expand(cur, next, false, m)
		}
	}
	rep.States++ // count the initial state
	return rep, nil
}

// step is how a state was first reached: from the state keyed parent, by
// starting a write at (m.From, m.Addr) or by delivering m. Kept compact and
// formatted only for a counterexample.
type step struct {
	parent string
	write  bool
	m      Msg
}

// String renders the step as a trace action.
func (st step) String() string {
	if st.write {
		return fmt.Sprintf("write(p%d,a%d)", st.m.From, st.m.Addr)
	}
	return fmt.Sprintf("deliver(%v,a%d,ts%v,to p%d)", st.m.Kind, st.m.Addr, st.m.TS, st.m.To)
}

// checkInvariants verifies the per-state safety properties, returning a
// description of the first violation.
func checkInvariants(proto Protocol, b Bounds, s *State) string {
	for a := 0; a < b.Addrs; a++ {
		var readable *Copy // first readable copy of a seen; Lin only
		for p := 0; p < b.Procs; p++ {
			l := s.line(b, p, a)
			if l.State == core.StateValid && l.Val != l.TS {
				return fmt.Sprintf("data-value: p%d a%d Valid with val %v != ts %v", p, a, l.Val, l.TS)
			}
			if l.State == core.StateWrite && !l.Pending {
				return fmt.Sprintf("transient: p%d a%d in Write state with no pending write", p, a)
			}
			if proto != Lin {
				continue
			}
			if l.Pending && l.PendTS.After(l.TS) {
				return fmt.Sprintf("timestamp: p%d a%d pending ts %v above line ts %v", p, a, l.PendTS, l.TS)
			}
			// Real-time order, statelessly: a get may be invoked at any
			// readable copy at any moment, so (ii) none may hold a value
			// older than a put that has already returned, and (i) all must
			// hold the same value, or two back-to-back gets at different
			// replicas could observe new then old.
			if l.State == core.StateInvalid {
				continue
			}
			if s.Returned[a].After(l.Val) {
				return fmt.Sprintf("real-time: p%d a%d serves val %v after the put stamped %v returned",
					p, a, l.Val, s.Returned[a])
			}
			if readable == nil {
				readable = l
			} else if l.Val != readable.Val {
				return fmt.Sprintf("real-time: readable copies of a%d disagree: p%d serves val %v, an earlier proc %v",
					a, p, l.Val, readable.Val)
			}
		}
	}
	for _, m := range s.Msgs {
		if m.Kind == core.MsgUpdate && m.Val != m.TS {
			return fmt.Sprintf("serialization: update for a%d carries val %v != ts %v", m.Addr, m.Val, m.TS)
		}
	}
	return ""
}

// checkQuiescent verifies that with no messages in flight and no pending
// writes, every replica is Valid and all replicas agree — the liveness side
// of the verification (a stuck Invalid replica would wait forever).
func checkQuiescent(b Bounds, s *State) string {
	for p := 0; p < b.Procs; p++ {
		for a := 0; a < b.Addrs; a++ {
			if l := s.line(b, p, a); l.Pending {
				// No messages in flight yet a write is still waiting for
				// acknowledgements: nothing can ever complete it.
				return fmt.Sprintf("deadlock: p%d a%d pending write can never gather its acks", p, a)
			}
		}
	}
	var issues []string
	for a := 0; a < b.Addrs; a++ {
		ref := s.line(b, 0, a)
		for p := 0; p < b.Procs; p++ {
			l := s.line(b, p, a)
			if l.State != core.StateValid {
				issues = append(issues, fmt.Sprintf("p%d a%d stuck in state %v", p, a, l.State))
			}
			if l.TS != ref.TS || l.Val != ref.Val {
				issues = append(issues, fmt.Sprintf("p%d a%d diverged from p0", p, a))
			}
		}
	}
	if len(issues) > 0 {
		return "quiescence: " + strings.Join(issues, "; ")
	}
	return ""
}
