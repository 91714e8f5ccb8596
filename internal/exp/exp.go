// Package exp contains one driver per table/figure of the paper's
// evaluation (§V), each reproducible at full paper scale (cmd/mto-bench) or
// at reduced scale (tests, benches), plus the fleet-scaling experiment. See
// README.md for the experiment index and how to run everything.
package exp

import (
	"fmt"
	"io"
	"strings"
)

// Table is a minimal aligned-text table renderer used by every driver.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.Join(parts, "  ")
	}
	fmt.Fprintln(w, line(t.Header))
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		fmt.Fprintln(w, line(row))
	}
}

// RenderCSV writes the table as CSV (no quoting; the harness only emits
// numbers and simple identifiers).
func (t *Table) RenderCSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// f1, f2, f4 format floats at fixed precision for table cells.
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f4(x float64) string { return fmt.Sprintf("%.4f", x) }

// itoa formats ints for table cells.
func itoa(x int64) string { return fmt.Sprintf("%d", x) }
