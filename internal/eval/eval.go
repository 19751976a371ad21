// Package eval provides the evaluation harness: detection-quality metrics
// against planted ground truth, truth-discovery accuracy, and the
// fixed-width table renderer the experiment binaries print with.
package eval

import (
	"fmt"
	"io"
	"strings"

	"sourcecurrents/internal/model"
)

// PRF is a precision/recall/F1 triple with raw counts.
type PRF struct {
	Precision, Recall, F1 float64
	TP, FP, FN            int
}

// PairPRF scores detected source pairs against the planted truth set.
func PairPRF(detected []model.SourcePair, truth map[model.SourcePair]bool) PRF {
	var prf PRF
	seen := map[model.SourcePair]bool{}
	for _, p := range detected {
		if seen[p] {
			continue
		}
		seen[p] = true
		if truth[p] {
			prf.TP++
		} else {
			prf.FP++
		}
	}
	for p := range truth {
		if !seen[p] {
			prf.FN++
		}
	}
	if prf.TP+prf.FP > 0 {
		prf.Precision = float64(prf.TP) / float64(prf.TP+prf.FP)
	}
	if prf.TP+prf.FN > 0 {
		prf.Recall = float64(prf.TP) / float64(prf.TP+prf.FN)
	}
	if prf.Precision+prf.Recall > 0 {
		prf.F1 = 2 * prf.Precision * prf.Recall / (prf.Precision + prf.Recall)
	}
	return prf
}

// ChosenAccuracy scores chosen values against a world's current truth.
func ChosenAccuracy(chosen map[model.ObjectID]string, w *model.World) float64 {
	var right, total int
	for o, v := range chosen {
		want, ok := w.TrueNow(o)
		if !ok {
			continue
		}
		total++
		if v == want {
			right++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(right) / float64(total)
}

// Table renders aligned fixed-width text tables (the experiment binaries'
// output format).
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable starts a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells are blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddRowf appends a row of formatted cells: each argument is rendered with
// %v except floats, which use %.3f.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			row = append(row, fmt.Sprintf("%.3f", v))
		case float32:
			row = append(row, fmt.Sprintf("%.3f", v))
		default:
			row = append(row, fmt.Sprintf("%v", c))
		}
	}
	t.AddRow(row...)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// Histogram summarizes a slice of ints: min, max, mean.
type Histogram struct {
	Min, Max int
	Mean     float64
	N        int
}

// Summarize computes a Histogram.
func Summarize(xs []int) Histogram {
	h := Histogram{N: len(xs)}
	if len(xs) == 0 {
		return h
	}
	h.Min, h.Max = xs[0], xs[0]
	var sum int
	for _, x := range xs {
		if x < h.Min {
			h.Min = x
		}
		if x > h.Max {
			h.Max = x
		}
		sum += x
	}
	h.Mean = float64(sum) / float64(len(xs))
	return h
}
