// Command cckvs-bench regenerates the paper's evaluation figures
// (EuroSys'18, §8) as text tables.
//
// Usage:
//
//	cckvs-bench -list             # show available experiments
//	cckvs-bench -fig fig8         # one figure
//	cckvs-bench -all              # every figure and ablation
//	cckvs-bench -local            # in-process cluster validation run
//	cckvs-bench -local -ops 5000  # longer validation run
//	cckvs-bench -churn            # online hot-set reconfiguration ablation
//	cckvs-bench -workers          # per-node worker-scaling ablation
package main

import (
	"encoding/json"
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
		fig     = fs.String("fig", "", "experiment id to run (see -list)")
		all     = fs.Bool("all", false, "run every experiment")
		list    = fs.Bool("list", false, "list experiment ids")
		local   = fs.Bool("local", false, "run the in-process cluster validation")
		churn   = fs.Bool("churn", false, "run the hot-set reconfiguration (full reinstall vs incremental) ablation under a moving hotspot")
		workers = fs.Bool("workers", false, "run the per-node worker-scaling ablation (WorkersPerNode in {1,2,4,8}) on the live cluster")
		reqScal = fs.Bool("require-scaling", false, "with -workers: exit non-zero unless 4-worker remote throughput beats 1-worker (skipped on a single hardware thread)")
		rmw     = fs.Bool("rmw", false, "run the contended-counter atomic RMW ablation (client-side CAS loop vs server-side fetch-and-add, SC and Lin) on the live cluster")
		ops     = fs.Int("ops", 2000, "operations per client for -local/-churn/-workers/-rmw")
		jsonOut = fs.String("json", "", "additionally write the produced tables as JSON to this file (CI benchmark artifacts)")
		compare = fs.String("compare", "", "compare a fresh run's JSON (-json output) against this committed baseline JSON and exit non-zero on regression")
		against = fs.String("against", "", "with -compare: the fresh run JSON to check (defaults to the file written by -json)")
		tol     = fs.Float64("tolerance", 0.25, "with -compare: allowed relative drop of each row's within-table throughput ratio")
		report  = fs.String("report", "", "with -compare: also write the comparison report to this file")
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

	// Every produced table is rendered as text and collected, so a -json
	// sidecar can archive the run (the CI benchmark artifact).
	var tables []experiments.Table
	emit := func(tab experiments.Table) {
		fmt.Fprint(stdout, tab.Render())
		tables = append(tables, tab)
	}
	liveRun := func(name string, f func(int) (experiments.Table, error)) int {
		tab, err := f(*ops)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			return 1
		}
		emit(tab)
		return 0
	}

	exit := 0
	switch {
	case *list:
		for _, id := range ids {
			fmt.Fprintln(stdout, id)
		}
	case *local:
		if code := liveRun("local validation", experiments.LocalValidation); code != 0 {
			return code
		}
	case *churn:
		if code := liveRun("churn ablation", experiments.LocalChurnAblation); code != 0 {
			return code
		}
	case *workers:
		// Emit whatever was measured even when the scaling gate trips, so
		// the CI artifact still carries the numbers behind the failure.
		tab, err := experiments.LocalWorkerScalingAblation(*ops, *reqScal)
		if len(tab.Rows) > 0 {
			emit(tab)
		}
		if err != nil {
			fmt.Fprintf(stderr, "worker scaling ablation: %v\n", err)
			exit = 1
		}
	case *rmw:
		// The ablation's exact-count check IS its gate: a lost or doubled
		// RMW errors out rather than skewing a throughput row.
		if code := liveRun("rmw ablation", experiments.LocalRMWAblation); code != 0 {
			return code
		}
	case *compare != "":
		code, err := compareRuns(*compare, *against, *jsonOut, *report, *tol, stdout)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return code
	case *all:
		for _, id := range ids {
			emit(registry[id]())
			fmt.Fprintln(stdout)
		}
	case *fig != "":
		fn, ok := registry[*fig]
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q; use -list\n", *fig)
			return 2
		}
		emit(fn())
	default:
		fs.Usage()
		return 2
	}

	if *jsonOut != "" && len(tables) > 0 {
		if err := writeJSON(*jsonOut, tables); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d table(s) to %s\n", len(tables), *jsonOut)
	}
	return exit
}

// compareRuns loads a committed baseline and a fresh run (both -json
// artifacts) and gates on experiments.CompareRuns: exit 1 when any row's
// within-table throughput ratio regressed beyond the tolerance.
func compareRuns(basePath, freshPath, jsonOut, reportPath string, tolerance float64, stdout io.Writer) (int, error) {
	if freshPath == "" {
		freshPath = jsonOut
	}
	if freshPath == "" {
		return 2, errors.New("-compare needs -against (or -json) naming the fresh run")
	}
	base, err := readJSON(basePath)
	if err != nil {
		return 1, err
	}
	fresh, err := readJSON(freshPath)
	if err != nil {
		return 1, err
	}
	text, regs := experiments.CompareRuns(base, fresh, tolerance)
	fmt.Fprint(stdout, text)
	if reportPath != "" {
		if err := os.WriteFile(reportPath, []byte(text), 0o644); err != nil {
			return 1, err
		}
	}
	if len(regs) > 0 {
		return 1, fmt.Errorf("%d benchmark regression(s) against %s", len(regs), basePath)
	}
	return 0, nil
}

// readJSON loads a -json artifact's tables.
func readJSON(path string) ([]experiments.Table, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Tables []experiments.Table `json:"tables"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.Tables, nil
}

// writeJSON archives the run's tables for the benchmark-trajectory artifact.
func writeJSON(path string, tables []experiments.Table) error {
	doc := struct {
		Tables []experiments.Table `json:"tables"`
	}{Tables: tables}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
