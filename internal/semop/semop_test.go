package semop

import (
	"errors"
	"fmt"
	"testing"

	"dataai/internal/llm"
	"dataai/internal/relation"
)

func perfectClient(seed uint64) *llm.Simulator {
	m := llm.LargeModel()
	m.ErrRate = 0
	m.HallucinationRate = 0
	m.ContextWindow = 1 << 20
	return llm.NewSimulator(m, seed)
}

// docsTable builds a table of n documents; rows where i%3==0 mention
// "merger", rows where i%2==0 have year 2024 (the rest 2023).
func docsTable(t *testing.T, n int) *relation.Table {
	t.Helper()
	tbl, err := relation.NewTable("docs", relation.Schema{
		{Name: "id", Type: relation.Int},
		{Name: "year", Type: relation.Int},
		{Name: "body", Type: relation.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		body := fmt.Sprintf("report %d discusses quarterly earnings", i)
		if i%3 == 0 {
			body = fmt.Sprintf("report %d announces a merger with a rival", i)
		}
		year := int64(2023)
		if i%2 == 0 {
			year = 2024
		}
		tbl.MustInsert(relation.Row{int64(i), year, body})
	}
	return tbl
}

func TestSemFilter(t *testing.T) {
	ex := NewExecutor(perfectClient(1))
	tbl := docsTable(t, 30)
	out, err := SemFilter{TextCol: "body", Criterion: "contains:merger"}.Apply(ex, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 10 {
		t.Errorf("filtered rows = %d, want 10", out.Len())
	}
	if ex.Calls != 30 {
		t.Errorf("calls = %d, want 30", ex.Calls)
	}
	if ex.CostUSD <= 0 {
		t.Error("cost not accounted")
	}
}

func TestSemFilterDedupsIdenticalTexts(t *testing.T) {
	ex := NewExecutor(perfectClient(2))
	tbl, _ := relation.NewTable("t", relation.Schema{{Name: "body", Type: relation.String}})
	for i := 0; i < 20; i++ {
		tbl.MustInsert(relation.Row{"identical merger text"})
	}
	out, err := SemFilter{TextCol: "body", Criterion: "contains:merger"}.Apply(ex, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 20 {
		t.Errorf("rows = %d", out.Len())
	}
	if ex.Calls != 1 {
		t.Errorf("calls = %d, want 1 (dedup)", ex.Calls)
	}
}

func TestSemFilterWrongColumn(t *testing.T) {
	ex := NewExecutor(perfectClient(3))
	tbl := docsTable(t, 3)
	if _, err := (SemFilter{TextCol: "year", Criterion: "contains:x"}).Apply(ex, tbl); !errors.Is(err, ErrNotText) {
		t.Errorf("err = %v", err)
	}
	if _, err := (SemFilter{TextCol: "missing", Criterion: "contains:x"}).Apply(ex, tbl); !errors.Is(err, relation.ErrColumn) {
		t.Errorf("err = %v", err)
	}
}

func TestSemExtract(t *testing.T) {
	ex := NewExecutor(perfectClient(4))
	tbl, _ := relation.NewTable("recs", relation.Schema{{Name: "body", Type: relation.String}})
	tbl.MustInsert(relation.Row{"name: alpha\nowner: ann\n"})
	tbl.MustInsert(relation.Row{"name: beta\nowner: bob\n"})
	out, err := SemExtract{TextCol: "body", Attribute: "owner"}.Apply(ex, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Schema) != 2 {
		t.Fatalf("schema = %v", out.Schema)
	}
	if v, _ := out.Get(0, "owner"); v != "ann" {
		t.Errorf("row 0 owner = %v", v)
	}
	if v, _ := out.Get(1, "owner"); v != "bob" {
		t.Errorf("row 1 owner = %v", v)
	}
}

func TestPipelineClassicalThenSemantic(t *testing.T) {
	ex := NewExecutor(perfectClient(5))
	tbl := docsTable(t, 60)
	p := NewPipeline(
		ClassicalFilter{Col: "year", Pred: func(v relation.Value) bool { return v == int64(2024) }, EstSelectivity: 0.5},
		SemFilter{TextCol: "body", Criterion: "contains:merger", EstSelectivity: 0.33},
	)
	out, err := p.Run(ex, tbl)
	if err != nil {
		t.Fatal(err)
	}
	// i%2==0 and i%3==0 -> i%6==0 -> 10 of 60.
	if out.Len() != 10 {
		t.Errorf("rows = %d, want 10", out.Len())
	}
	if ex.Calls != 30 {
		t.Errorf("semantic calls = %d, want 30 (after classical cut)", ex.Calls)
	}
}

func TestOptimizePutsClassicalFirst(t *testing.T) {
	sem := SemFilter{TextCol: "body", Criterion: "contains:merger", EstSelectivity: 0.3}
	cls := ClassicalFilter{Col: "year", Pred: func(v relation.Value) bool { return true }, EstSelectivity: 0.5}
	ops := Optimize([]Op{sem, cls})
	if _, ok := ops[0].(ClassicalFilter); !ok {
		t.Error("semantic op not moved after classical")
	}
}

func TestOptimizeOrdersSemanticBySelectivity(t *testing.T) {
	loose := SemFilter{TextCol: "body", Criterion: "contains:a", EstSelectivity: 0.9}
	tight := SemFilter{TextCol: "body", Criterion: "contains:b", EstSelectivity: 0.1}
	ops := Optimize([]Op{loose, tight})
	first, ok := ops[0].(SemFilter)
	if !ok || first.Criterion != "contains:b" {
		t.Errorf("selective filter not first: %+v", ops[0])
	}
}

func TestOptimizeExtractIsBarrier(t *testing.T) {
	ext := SemExtract{TextCol: "body", Attribute: "owner"}
	post := ClassicalFilter{Col: "owner", Pred: func(v relation.Value) bool { return true }, EstSelectivity: 0.5}
	ops := Optimize([]Op{ext, post})
	if _, ok := ops[0].(SemExtract); !ok {
		t.Error("filter crossed an extract barrier it depends on")
	}
}

func TestOptimizedPlanCheaperSameResult(t *testing.T) {
	naiveEx := NewExecutor(perfectClient(6))
	optEx := NewExecutor(perfectClient(6))
	tblA := docsTable(t, 60)

	naiveOps := []Op{
		SemFilter{TextCol: "body", Criterion: "contains:merger", EstSelectivity: 0.33},
		ClassicalFilter{Col: "year", Pred: func(v relation.Value) bool { return v == int64(2024) }, EstSelectivity: 0.5},
	}
	naiveOut, err := NewPipeline(naiveOps...).Run(naiveEx, tblA)
	if err != nil {
		t.Fatal(err)
	}
	optOut, err := NewPipeline(Optimize(naiveOps)...).Run(optEx, tblA)
	if err != nil {
		t.Fatal(err)
	}
	if naiveOut.Len() != optOut.Len() {
		t.Fatalf("results differ: %d vs %d", naiveOut.Len(), optOut.Len())
	}
	if optEx.Calls >= naiveEx.Calls {
		t.Errorf("optimized calls %d >= naive %d", optEx.Calls, naiveEx.Calls)
	}
}

func TestCascadeClientReducesCostInPipeline(t *testing.T) {
	tbl := docsTable(t, 90)
	ops := []Op{SemFilter{TextCol: "body", Criterion: "contains:merger", EstSelectivity: 0.33}}

	expensiveEx := NewExecutor(llm.NewSimulator(llm.LargeModel(), 10))
	if _, err := NewPipeline(ops...).Run(expensiveEx, tbl); err != nil {
		t.Fatal(err)
	}

	cascade := llm.NewCascade(llm.NewSimulator(llm.SmallModel(), 10), llm.NewSimulator(llm.LargeModel(), 10), 0.3)
	cascadeEx := NewExecutor(cascade)
	if _, err := NewPipeline(ops...).Run(cascadeEx, tbl); err != nil {
		t.Fatal(err)
	}
	if cascadeEx.CostUSD >= expensiveEx.CostUSD {
		t.Errorf("cascade cost %v >= large-only %v", cascadeEx.CostUSD, expensiveEx.CostUSD)
	}
}

func BenchmarkSemFilter(b *testing.B) {
	client := llm.NewSimulator(llm.LargeModel(), 1)
	tbl, _ := relation.NewTable("t", relation.Schema{{Name: "body", Type: relation.String}})
	for i := 0; i < 200; i++ {
		tbl.MustInsert(relation.Row{fmt.Sprintf("document %d about earnings and mergers", i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := NewExecutor(client)
		if _, err := (SemFilter{TextCol: "body", Criterion: "contains:merger"}).Apply(ex, tbl); err != nil {
			b.Fatal(err)
		}
	}
}

func TestOpMetadataAccessors(t *testing.T) {
	cls := ClassicalFilter{Col: "x", Pred: func(relation.Value) bool { return true }}
	if cls.CostPerRow() != 0 || cls.Selectivity() != 0.5 {
		t.Error("ClassicalFilter metadata defaults")
	}
	cls.EstSelectivity = 2 // out of range -> default
	if cls.Selectivity() != 0.5 {
		t.Error("out-of-range selectivity not defaulted")
	}
	sem := SemFilter{TextCol: "t", Criterion: "contains:x"}
	if sem.CostPerRow() != 1 || sem.Selectivity() != 0.5 {
		t.Error("SemFilter metadata defaults")
	}
	ext := SemExtract{TextCol: "t", Attribute: "a"}
	if ext.Selectivity() != 1 || ext.CostPerRow() != 1 {
		t.Error("SemExtract metadata")
	}
}
