package experiments

import (
	"fmt"
	"strconv"
	"strings"
)

// Benchmark regression gating against committed baselines. Absolute
// throughput is machine-bound — a laptop baseline means nothing to a CI
// runner — so the comparison is on each table's *shape*: every row's
// throughput relative to its own table's first row (the ablation baseline
// row). Those ratios express the property each table exists to demonstrate
// (coalescing speeds up over per-request framing, batch frames speed up over
// single-op frames) and transfer across hosts; a fresh run whose ratio falls
// more than the tolerance below the committed ratio is a regression.

// Regression names one failed comparison.
type Regression struct {
	Table  string
	Row    string
	Detail string
}

// CompareRuns checks fresh results against committed baselines. Tables are
// matched by ID and rows by their first cell (the ablation label); only
// tables present in both sets with a throughput column are compared.
// tolerance is the allowed relative ratio drop (0.25 = a row may lose up to
// a quarter of its committed relative speedup).
func CompareRuns(baseline, fresh []Table, tolerance float64) (string, []Regression) {
	var b strings.Builder
	var regs []Regression
	freshByID := map[string]Table{}
	for _, t := range fresh {
		freshByID[t.ID] = t
	}
	compared := 0
	for _, base := range baseline {
		cur, ok := freshByID[base.ID]
		if !ok {
			fmt.Fprintf(&b, "%s: not in fresh run, skipped\n", base.ID)
			continue
		}
		col := throughputColumn(base.Columns)
		if col < 0 || col != throughputColumn(cur.Columns) {
			fmt.Fprintf(&b, "%s: no matching throughput column, skipped\n", base.ID)
			continue
		}
		baseRatios, bOK := rowRatios(base, col)
		curRatios, cOK := rowRatios(cur, col)
		if !bOK || !cOK {
			fmt.Fprintf(&b, "%s: unparseable throughput cells, skipped\n", base.ID)
			continue
		}
		fmt.Fprintf(&b, "%s (vs row %q, tolerance %.0f%%):\n", base.ID, base.Rows[0][0], tolerance*100)
		for label, baseR := range baseRatios {
			curR, ok := curRatios[label]
			if !ok {
				fmt.Fprintf(&b, "  %-16s baseline %.2fx, missing from fresh run\n", label, baseR)
				regs = append(regs, Regression{Table: base.ID, Row: label, Detail: "row missing from fresh run"})
				continue
			}
			verdict := "ok"
			if curR < baseR*(1-tolerance) {
				verdict = "REGRESSION"
				regs = append(regs, Regression{
					Table: base.ID, Row: label,
					Detail: fmt.Sprintf("relative throughput %.2fx, committed %.2fx (floor %.2fx)", curR, baseR, baseR*(1-tolerance)),
				})
			}
			fmt.Fprintf(&b, "  %-16s committed %.2fx  fresh %.2fx  %s\n", label, baseR, curR, verdict)
			compared++
		}
	}
	fmt.Fprintf(&b, "compared %d rows, %d regressions\n", compared, len(regs))
	return b.String(), regs
}

// throughputColumn finds the throughput column, or -1.
func throughputColumn(cols []string) int {
	for i, c := range cols {
		if strings.Contains(strings.ToLower(c), "throughput") {
			return i
		}
	}
	return -1
}

// rowRatios maps each row label to its throughput relative to the table's
// first row. Rows past the first with duplicate labels are skipped (the
// label is the match key).
func rowRatios(t Table, col int) (map[string]float64, bool) {
	if len(t.Rows) == 0 || col >= len(t.Rows[0]) {
		return nil, false
	}
	base, err := strconv.ParseFloat(t.Rows[0][col], 64)
	if err != nil || base <= 0 {
		return nil, false
	}
	out := map[string]float64{}
	for _, row := range t.Rows {
		if col >= len(row) || len(row) == 0 {
			return nil, false
		}
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			return nil, false
		}
		if _, dup := out[row[0]]; dup {
			continue
		}
		out[row[0]] = v / base
	}
	return out, true
}
