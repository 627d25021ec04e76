// Package metrics provides the measurement utilities shared by every
// experiment harness: streaming summaries with exact percentiles, SLO
// attainment accounting, and a fixed-width table printer so `cmd/benchall`
// output reads like the evaluation tables the paper lacks.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Summary accumulates float64 samples and reports order statistics.
// Samples are retained (exact percentiles), which is fine at the scales
// our simulators produce (≤ millions of samples). The zero value is ready
// to use.
type Summary struct {
	samples []float64
	sorted  bool
	sum     float64
}

// Add records one sample.
func (s *Summary) Add(v float64) {
	s.samples = append(s.samples, v)
	s.sorted = false
	s.sum += v
}

// Count reports the number of recorded samples.
func (s *Summary) Count() int { return len(s.samples) }

// Sum reports the total of recorded samples.
func (s *Summary) Sum() float64 { return s.sum }

// Mean reports the arithmetic mean, or 0 with no samples.
func (s *Summary) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Min reports the smallest sample, or 0 with no samples.
func (s *Summary) Min() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.samples[0]
}

// Max reports the largest sample, or 0 with no samples.
func (s *Summary) Max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.samples[len(s.samples)-1]
}

// Percentile reports the p-th percentile (0 <= p <= 100) by nearest-rank
// with linear interpolation, or 0 with no samples.
func (s *Summary) Percentile(p float64) float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.samples[0]
	}
	if p >= 100 {
		return s.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.samples[lo]
	}
	frac := rank - float64(lo)
	return s.samples[lo]*(1-frac) + s.samples[hi]*frac
}

// P50 is Percentile(50).
func (s *Summary) P50() float64 { return s.Percentile(50) }

// P95 is Percentile(95).
func (s *Summary) P95() float64 { return s.Percentile(95) }

// P99 is Percentile(99).
func (s *Summary) P99() float64 { return s.Percentile(99) }

// Stddev reports the population standard deviation, or 0 with < 2 samples.
func (s *Summary) Stddev() float64 {
	n := len(s.samples)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, v := range s.samples {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// FractionBelow reports the fraction of samples <= limit — the SLO
// attainment measure used by the serving experiments (E11/E12).
func (s *Summary) FractionBelow(limit float64) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	// Binary search for the first sample > limit.
	idx := sort.SearchFloat64s(s.samples, math.Nextafter(limit, math.Inf(1)))
	return float64(idx) / float64(len(s.samples))
}

func (s *Summary) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
}

// Table accumulates rows and renders a fixed-width text table. It is the
// single output format of every experiment harness, so EXPERIMENTS.md and
// `cmd/benchall` output align.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped and
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted values: each value is rendered with
// %v for strings/ints and %.4g for floats.
func (t *Table) AddRowf(cells ...interface{}) {
	strs := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			strs[i] = fmt.Sprintf("%.4g", v)
		case float32:
			strs[i] = fmt.Sprintf("%.4g", v)
		default:
			strs[i] = fmt.Sprintf("%v", v)
		}
	}
	t.AddRow(strs...)
}

// Headers returns a copy of the column headers.
func (t *Table) Headers() []string { return append([]string(nil), t.headers...) }

// Rows returns a copy of the rendered cell rows (formatting already
// applied), in insertion order — the machine-readable view cmd/benchall
// -json serializes.
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, r := range t.rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
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

// Jain computes Jain's fairness index over per-party allocations:
// (Σx)² / (n·Σx²). It is 1 when every party gets the same amount and
// approaches 1/n as one party takes everything. Conventions: no parties
// → 0 (nothing to be fair about); one party, or all-zero allocations
// (everyone equally starved) → 1. Negative allocations are invalid and
// clamp to 0.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		if x < 0 {
			x = 0
		}
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// JainWeighted is Jain's index over normalized allocations x_i/w_i —
// fairness relative to entitlements w (e.g. purchased rate fractions)
// instead of absolute equality: it is 1 when every party receives in
// proportion to its weight. Panics if the lengths differ; parties with
// weight <= 0 are skipped (no entitlement, no fairness claim).
func JainWeighted(xs, ws []float64) float64 {
	if len(xs) != len(ws) {
		panic("metrics: JainWeighted lengths differ")
	}
	norm := make([]float64, 0, len(xs))
	for i, x := range xs {
		if ws[i] <= 0 {
			continue
		}
		norm = append(norm, x/ws[i])
	}
	return Jain(norm)
}

// Ratio formats a/b as a "N.NNx" speedup string, guarding division by zero.
func Ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", a/b)
}

// F1 computes the harmonic mean of precision and recall.
func F1(precision, recall float64) float64 {
	if precision+recall == 0 {
		return 0
	}
	return 2 * precision * recall / (precision + recall)
}
