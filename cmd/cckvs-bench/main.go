// Command cckvs-bench regenerates the paper's evaluation figures
// (EuroSys'18, §8) as text tables, from the analytical model and the
// calibrated rack simulator. Throughput of the real system is measured by
// benchmark/ (real cckvs-node processes over TCP), not here.
//
// Usage:
//
//	cckvs-bench -list             # show available experiments
//	cckvs-bench -fig fig8         # one figure
//	cckvs-bench -all              # every figure and ablation
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and executes the selected experiment, writing tables to
// stdout and diagnostics to stderr. It returns the process exit code
// (factored out of main so the CLI is testable end to end).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cckvs-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig  = fs.String("fig", "", "experiment id to run (see -list)")
		all  = fs.Bool("all", false, "run every experiment")
		list = fs.Bool("list", false, "list experiment ids")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	registry := experiments.All()
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	switch {
	case *list:
		for _, id := range ids {
			fmt.Fprintln(stdout, id)
		}
	case *all:
		for _, id := range ids {
			fmt.Fprint(stdout, registry[id]().Render())
			fmt.Fprintln(stdout)
		}
	case *fig != "":
		fn, ok := registry[*fig]
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q; use -list\n", *fig)
			return 2
		}
		fmt.Fprint(stdout, fn().Render())
	default:
		fs.Usage()
		return 2
	}
	return 0
}
