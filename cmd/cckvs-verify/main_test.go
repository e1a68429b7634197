package main

import (
	"bytes"
	"strings"
	"testing"
)

// exec runs the CLI with args and returns exit code, stdout and stderr.
func exec(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestSmallBoundsVerifyOK(t *testing.T) {
	code, out, errb := exec(t, "-protocol", "sc", "-procs", "2", "-addrs", "1", "-clock", "1")
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errb)
	}
	if !strings.Contains(out, "verified") {
		t.Fatalf("missing verification verdict:\n%s", out)
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	if code, _, _ := exec(t, "-definitely-not-a-flag"); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestHelpExitsZero(t *testing.T) {
	if code, _, _ := exec(t, "-h"); code != 0 {
		t.Fatalf("-h exit code %d, want 0", code)
	}
}

func TestUnknownFaultExitsTwo(t *testing.T) {
	code, _, errb := exec(t, "-fault", "no-such-fault")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errb, "unknown fault") {
		t.Fatalf("missing diagnostic:\n%s", errb)
	}
}

// Injected protocol bugs must be *detected* (violation + counterexample)
// and exit zero: finding the planted bug is the success condition.
func TestInjectedFaultProducesCounterexample(t *testing.T) {
	code, out, errb := exec(t, "-fault", "conditional-ack", "-procs", "2", "-addrs", "1", "-clock", "2")
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errb)
	}
	if !strings.Contains(out, "VIOLATION") || !strings.Contains(out, "counterexample") {
		t.Fatalf("fault not detected:\n%s", out)
	}
}

// The Lin stale read (a replica serving its pre-write value after a
// lower-stamped put it acknowledged has returned) is found through the same
// flag, as a real-time violation with its four-step trace.
func TestServeAfterLowerAckFault(t *testing.T) {
	code, out, errb := exec(t, "-fault", "serve-after-lower-ack", "-procs", "2", "-addrs", "1", "-clock", "1")
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errb)
	}
	if !strings.Contains(out, "real-time") || !strings.Contains(out, " 4. deliver(ack,a0,ts1.0,to p0)") {
		t.Fatalf("stale read not reported with its trace:\n%s", out)
	}
}

// A put joining a write that adopted a higher stamp is found through the same
// flag, as a join violation once the winner has returned.
func TestJoinDoomedFault(t *testing.T) {
	code, out, errb := exec(t, "-fault", "join-doomed", "-procs", "2", "-addrs", "1", "-clock", "1")
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, errb)
	}
	if !strings.Contains(out, "VIOLATION: join") || !strings.Contains(out, " 4. deliver(ack,a0,ts1.1,to p1)") {
		t.Fatalf("doomed join not reported with its trace:\n%s", out)
	}
}

// The default matrix is the paper's verification table; keep it passing.
func TestDefaultMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is slower")
	}
	code, out, errb := exec(t)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s\nstdout:\n%s", code, errb, out)
	}
	if strings.Count(out, "verified") != 4 {
		t.Fatalf("expected 4 verified rows:\n%s", out)
	}
}
