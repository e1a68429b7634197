// Package experiments maps every table and figure of the paper's evaluation
// (EuroSys'18, §8) to a runner that regenerates it. Each runner returns a
// Table whose rows carry the same series the paper plots; cmd/cckvs-bench
// renders them as text and bench_test.go wraps them as benchmarks.
//
// Measured-series numbers come from internal/simnet (the calibrated rack
// simulator standing in for the authors' testbed) and, for the model lines
// of Figures 14 and 15, from internal/model (the paper's own analytical
// model). Nothing here runs the real system: its throughput and latency are
// measured by benchmark/ (real cckvs-node processes over TCP).
package experiments

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment: a title, column headers and string rows.
type Table struct {
	ID      string // figure/table identifier, e.g. "fig8"
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries caveats (substitutions, calibration) shown under the
	// table.
	Notes []string
}

// AddRow appends a row, formatting each cell.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
