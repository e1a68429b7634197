// Command cckvs-verify model-checks the ccKVS consistency protocols,
// reproducing the paper's Murphi verification (§5.2): exhaustive
// exploration of a bounded protocol instance, checking the data-value,
// write-serialization and (Lin) real-time-order invariants at every state
// and deadlock freedom at quiescence. The transitions explored are
// internal/core's own step functions, not a model of them.
//
// Usage:
//
//	cckvs-verify                         # default matrix (Lin + SC)
//	cckvs-verify -protocol lin -procs 3 -clock 2   # paper depth, ~15 s
//	cckvs-verify -fault conditional-ack  # demonstrate bug detection
//	cckvs-verify -fault serve-after-lower-ack -procs 2   # the Lin stale read, 4 steps
//	cckvs-verify -fault join-doomed -procs 2   # a put joins a write that lost its stamp
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/mcheck"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and executes the requested verification, returning the
// process exit code (factored out of main so the CLI is testable end to
// end).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cckvs-verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		protoName = fs.String("protocol", "", "lin or sc (empty: verify both with the default matrix)")
		procs     = fs.Int("procs", 3, "number of replicas")
		addrs     = fs.Int("addrs", 1, "number of keys")
		clock     = fs.Int("clock", 1, "Lamport clock bound")
		faultName = fs.String("fault", "", "inject a protocol bug: conditional-ack | mismatched-update | serve-after-lower-ack | join-doomed")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *protoName == "" && *faultName == "" {
		matrix := []struct {
			p mcheck.Protocol
			b mcheck.Bounds
		}{
			{mcheck.Lin, mcheck.Bounds{Procs: 3, Addrs: 1, MaxClock: 1}},
			{mcheck.Lin, mcheck.Bounds{Procs: 2, Addrs: 1, MaxClock: 3}},
			{mcheck.Lin, mcheck.Bounds{Procs: 2, Addrs: 2, MaxClock: 1}},
			{mcheck.SC, mcheck.Bounds{Procs: 3, Addrs: 2, MaxClock: 1}},
		}
		failed := false
		for _, m := range matrix {
			rep, err := mcheck.Check(m.p, m.b)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintln(stdout, rep.String())
			if !rep.OK() {
				failed = true
			}
		}
		if failed {
			return 1
		}
		return 0
	}

	proto := mcheck.Lin
	if *protoName == "sc" {
		proto = mcheck.SC
	}
	fault := mcheck.FaultNone
	switch *faultName {
	case "":
	case "conditional-ack":
		fault = mcheck.FaultConditionalAck
	case "mismatched-update":
		fault = mcheck.FaultApplyMismatchedUpdate
	case "serve-after-lower-ack":
		fault = mcheck.FaultServeAfterLowerAck
	case "join-doomed":
		fault = mcheck.FaultJoinDoomed
	default:
		fmt.Fprintf(stderr, "unknown fault %q\n", *faultName)
		return 2
	}
	rep, err := mcheck.CheckFault(proto, mcheck.Bounds{
		Procs: *procs, Addrs: *addrs, MaxClock: uint8(*clock),
	}, fault)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, rep.String())
	if !rep.OK() {
		fmt.Fprintln(stdout, "counterexample trace:")
		for i, step := range rep.Trace {
			fmt.Fprintf(stdout, "  %2d. %s\n", i+1, step)
		}
		if fault == mcheck.FaultNone {
			return 1
		}
	}
	return 0
}
