package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.P50() != 0 {
		t.Error("empty summary should report zeros")
	}
	for _, v := range []float64{3, 1, 2} {
		s.Add(v)
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d", s.Count())
	}
	if s.Sum() != 6 {
		t.Errorf("Sum = %v", s.Sum())
	}
	if s.Mean() != 2 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 3 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.P50() != 2 {
		t.Errorf("P50 = %v", s.P50())
	}
}

func TestSummaryAddAfterSort(t *testing.T) {
	var s Summary
	s.Add(10)
	_ = s.Max() // triggers sort
	s.Add(1)    // must invalidate sorted state
	if s.Min() != 1 {
		t.Errorf("Min after late add = %v", s.Min())
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var s Summary
	for i := 1; i <= 4; i++ {
		s.Add(float64(i))
	}
	// rank(50) = 1.5 -> 2.5
	if got := s.Percentile(50); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("P50 = %v, want 2.5", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := s.Percentile(100); got != 4 {
		t.Errorf("P100 = %v", got)
	}
	if got := s.Percentile(-5); got != 1 {
		t.Errorf("P-5 = %v", got)
	}
	if got := s.Percentile(150); got != 4 {
		t.Errorf("P150 = %v", got)
	}
}

func TestPercentileMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Summary
	for i := 0; i < 500; i++ {
		s.Add(rng.ExpFloat64())
	}
	f := func(a, b float64) bool {
		pa := math.Mod(math.Abs(a), 100)
		pb := math.Mod(math.Abs(b), 100)
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Percentile(pa) <= s.Percentile(pb)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStddev(t *testing.T) {
	var s Summary
	s.Add(2)
	if s.Stddev() != 0 {
		t.Error("single sample stddev should be 0")
	}
	s.Add(4)
	if got := s.Stddev(); math.Abs(got-1) > 1e-9 {
		t.Errorf("Stddev = %v, want 1", got)
	}
}

func TestFractionBelow(t *testing.T) {
	var s Summary
	for i := 1; i <= 10; i++ {
		s.Add(float64(i))
	}
	if got := s.FractionBelow(5); got != 0.5 {
		t.Errorf("FractionBelow(5) = %v, want 0.5", got)
	}
	if got := s.FractionBelow(0); got != 0 {
		t.Errorf("FractionBelow(0) = %v", got)
	}
	if got := s.FractionBelow(10); got != 1 {
		t.Errorf("FractionBelow(10) = %v", got)
	}
	var empty Summary
	if empty.FractionBelow(1) != 0 {
		t.Error("empty FractionBelow should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	tb.AddRow("gamma") // short row
	out := tb.String()
	if !strings.Contains(out, "## Demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.5") {
		t.Errorf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, sep, 3 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: header and separator have equal display width.
	if len(strings.TrimRight(lines[1], " ")) > len(lines[2]) {
		t.Error("separator shorter than header")
	}
}

func TestTableExtraCellsDropped(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x", "overflow")
	if strings.Contains(tb.String(), "overflow") {
		t.Error("extra cell should be dropped")
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(3, 2); got != "1.50x" {
		t.Errorf("Ratio = %q", got)
	}
	if got := Ratio(1, 0); got != "inf" {
		t.Errorf("Ratio/0 = %q", got)
	}
}

func TestF1(t *testing.T) {
	if got := F1(0.8, 0.8); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("F1 = %v", got)
	}
	if got := F1(1, 0.5); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("F1(1, 0.5) = %v, want 2/3", got)
	}
	if F1(0, 0) != 0 {
		t.Error("F1(0,0) should be 0")
	}
}

func BenchmarkSummaryPercentile(b *testing.B) {
	var s Summary
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		s.Add(rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Percentile(99)
	}
}

func TestAddRowfFormatPinned(t *testing.T) {
	// The %.4g float rendering is part of the repo's byte-identical
	// output contract: EXPERIMENTS.md transcripts and golden benchall
	// tests depend on it. Pin it here so a drive-by format change fails
	// loudly instead of silently invalidating every golden file.
	tb := NewTable("", "a", "b", "c", "d")
	tb.AddRowf(1234.5678, 0.000123456, float32(2.5), 7)
	row := tb.Rows()[0]
	want := []string{"1235", "0.0001235", "2.5", "7"}
	for i, w := range want {
		if row[i] != w {
			t.Errorf("cell %d = %q, want %q (AddRowf must keep %%.4g)", i, row[i], w)
		}
	}
}

func TestHeadersAndRowsAreCopies(t *testing.T) {
	tb := NewTable("", "x", "y")
	tb.AddRow("1", "2")
	h := tb.Headers()
	r := tb.Rows()
	h[0] = "mutated"
	r[0][0] = "mutated"
	if tb.Headers()[0] != "x" || tb.Rows()[0][0] != "1" {
		t.Error("Headers/Rows must return copies, not aliases")
	}
}

func TestStddevNoSamples(t *testing.T) {
	var s Summary
	if s.Stddev() != 0 {
		t.Error("empty-summary stddev should be 0")
	}
}

func TestPercentileFractionalRank(t *testing.T) {
	var s Summary
	for i := 1; i <= 4; i++ {
		s.Add(float64(i))
	}
	// rank(25) = 0.75 -> 1.75; rank(75) = 2.25 -> 3.25.
	if got := s.Percentile(25); math.Abs(got-1.75) > 1e-9 {
		t.Errorf("P25 = %v, want 1.75", got)
	}
	if got := s.Percentile(75); math.Abs(got-3.25) > 1e-9 {
		t.Errorf("P75 = %v, want 3.25", got)
	}
}

func TestFractionBelowNextafterBoundary(t *testing.T) {
	var s Summary
	for i := 1; i <= 10; i++ {
		s.Add(float64(i))
	}
	// The limit is inclusive: a sample exactly at the limit counts, and
	// the largest float64 strictly below an integer sample must not.
	if got := s.FractionBelow(math.Nextafter(5, 0)); got != 0.4 {
		t.Errorf("FractionBelow(5-ulp) = %v, want 0.4", got)
	}
	if got := s.FractionBelow(math.Nextafter(5, math.Inf(1))); got != 0.5 {
		t.Errorf("FractionBelow(5+ulp) = %v, want 0.5", got)
	}
	if got := s.FractionBelow(5.5); got != 0.5 {
		t.Errorf("FractionBelow(5.5) = %v, want 0.5", got)
	}
	if got := s.FractionBelow(-1); got != 0 {
		t.Errorf("FractionBelow(-1) = %v, want 0", got)
	}
}

func TestJain(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{7}, 1},
		{"all zero", []float64{0, 0, 0}, 1},
		{"equal shares", []float64{5, 5, 5, 5}, 1},
		{"one takes all", []float64{10, 0, 0, 0}, 0.25},
		{"mixed", []float64{4, 2}, 0.9},
	}
	for _, tc := range cases {
		if got := Jain(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Jain = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Negative allocations are invalid and clamp to zero rather than
	// inflating the index.
	if got, want := Jain([]float64{-3, 6}), Jain([]float64{0, 6}); got != want {
		t.Errorf("negative clamp: %v != %v", got, want)
	}
}

func TestJainWeighted(t *testing.T) {
	// 60/30 split over 2:1 entitlements is perfectly fair.
	if got := JainWeighted([]float64{60, 30}, []float64{2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("proportional = %v, want 1", got)
	}
	// The same split over equal entitlements is not.
	if got := JainWeighted([]float64{60, 30}, []float64{1, 1}); got >= 1 {
		t.Errorf("disproportional = %v, want < 1", got)
	}
	// Zero-weight parties carry no fairness claim and are skipped.
	if got := JainWeighted([]float64{60, 30, 99}, []float64{2, 1, 0}); math.Abs(got-1) > 1e-12 {
		t.Errorf("zero weight skipped = %v, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	JainWeighted([]float64{1}, []float64{1, 2})
}
