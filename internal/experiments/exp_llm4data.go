package experiments

import (
	"fmt"

	"dataai/internal/corpus"
	"dataai/internal/docstore"
	"dataai/internal/embed"
	"dataai/internal/extract"
	"dataai/internal/lake"
	"dataai/internal/llm"
	"dataai/internal/metrics"
	"dataai/internal/rag"
	"dataai/internal/relation"
	"dataai/internal/semop"
	"dataai/internal/vecdb"
)

func init() {
	register("E1", "RAG vs closed-book, single vs iterative multi-hop (§2.2.2 RAG)", runE1)
	register("E2", "Semantic-operator plan optimization (LOTUS/PALIMPZEST, §2.2.2)", runE2)
	register("E3", "Schema extraction: direct LLM vs Evaporate (§2.2.2)", runE3)
	register("E4", "Data-lake schema linking: lexical vs embedding (AOP, §2.2.2)", runE4)
	register("E5", "Lake query planning vs single-shot LLM (SYMPHONY/CAESURA, §2.2.2)", runE5)
}

// grounding client used across LLM4Data experiments: realistic error
// rates, no pretraining knowledge of the corpus.
func groundingClient(seed uint64) *llm.Simulator {
	m := llm.LargeModel()
	m.ContextWindow = 1 << 20
	return llm.NewSimulator(m, seed)
}

func experimentCorpus(seed int64) (*corpus.Corpus, error) {
	g, err := corpus.NewGenerator(corpus.DefaultConfig(seed))
	if err != nil {
		return nil, err
	}
	return g.Generate(), nil
}

func runE1() (*metrics.Table, error) {
	c, err := experimentCorpus(1001)
	if err != nil {
		return nil, err
	}
	client := groundingClient(11)
	e := embed.NewHashEmbedder(embed.DefaultDim)
	p, err := rag.New(client, e, vecdb.NewFlat(e.Dim()))
	if err != nil {
		return nil, err
	}
	docs := make([]docstore.Document, len(c.Docs))
	for i, d := range c.Docs {
		docs[i] = docstore.Document{ID: d.ID, Text: d.Text}
	}
	if err := p.Ingest(docs); err != nil {
		return nil, err
	}

	type arm struct {
		name   string
		answer func(q string) (string, float64, error)
	}
	arms := []arm{
		{"closed-book", func(q string) (string, float64, error) {
			r, err := client.Complete(llm.Request{Prompt: llm.AnswerPrompt(q, nil)})
			return r.Text, r.CostUSD, err
		}},
		{"rag-single", func(q string) (string, float64, error) {
			a, err := p.Answer(q)
			return a.Text, a.CostUSD, err
		}},
		{"rag-iterative", func(q string) (string, float64, error) {
			a, err := p.AnswerIterative(q)
			return a.Text, a.CostUSD, err
		}},
	}
	t := metrics.NewTable("E1: RAG grounding (accuracy by question type)",
		"method", "acc@1hop", "acc@2hop", "cost/query ($)")
	for _, a := range arms {
		var right1, total1, right2, total2 int
		var cost float64
		for _, qa := range c.QAs {
			ans, cs, err := a.answer(qa.Question)
			if err != nil {
				return nil, fmt.Errorf("E1 %s: %w", a.name, err)
			}
			cost += cs
			if qa.Hops == 1 {
				total1++
				if ans == qa.Answer {
					right1++
				}
			} else {
				total2++
				if ans == qa.Answer {
					right2++
				}
			}
		}
		t.AddRowf(a.name,
			float64(right1)/float64(max(total1, 1)),
			float64(right2)/float64(max(total2, 1)),
			cost/float64(len(c.QAs)))
	}
	return t, nil
}

func runE2() (*metrics.Table, error) {
	// 600-row table; 1/3 of rows satisfy the semantic predicate, half
	// the classical one.
	tbl, err := relation.NewTable("docs", relation.Schema{
		{Name: "id", Type: relation.Int},
		{Name: "year", Type: relation.Int},
		{Name: "body", Type: relation.String},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 600; i++ {
		body := fmt.Sprintf("report %d reviews quarterly earnings in detail", i)
		if i%3 == 0 {
			body = fmt.Sprintf("report %d announces a merger agreement", i)
		}
		year := int64(2023 + i%2)
		tbl.MustInsert(relation.Row{int64(i), year, body})
	}
	ops := []semop.Op{
		semop.SemFilter{TextCol: "body", Criterion: "contains:merger", EstSelectivity: 0.33},
		semop.ClassicalFilter{
			Col:            "year",
			Pred:           func(v relation.Value) bool { return v == int64(2024) },
			EstSelectivity: 0.5,
		},
	}

	t := metrics.NewTable("E2: semantic-operator plan optimization",
		"plan", "rows out", "LLM calls", "cost ($)", "vs naive")
	naive := semop.NewExecutor(llm.NewSimulator(llm.LargeModel(), 21))
	naiveOut, err := semop.NewPipeline(ops...).Run(naive, tbl)
	if err != nil {
		return nil, err
	}
	t.AddRowf("naive (sem first, large)", naiveOut.Len(), naive.Calls, naive.CostUSD, "1.00x")

	opt := semop.NewExecutor(llm.NewSimulator(llm.LargeModel(), 21))
	optOut, err := semop.NewPipeline(semop.Optimize(ops)...).Run(opt, tbl)
	if err != nil {
		return nil, err
	}
	t.AddRowf("reordered (classical first)", optOut.Len(), opt.Calls, opt.CostUSD,
		metrics.Ratio(naive.CostUSD, opt.CostUSD))

	cascade := semop.NewExecutor(llm.NewCascade(
		llm.NewSimulator(llm.SmallModel(), 21),
		llm.NewSimulator(llm.LargeModel(), 21), 0.3))
	cascadeOut, err := semop.NewPipeline(semop.Optimize(ops)...).Run(cascade, tbl)
	if err != nil {
		return nil, err
	}
	t.AddRowf("reordered + cascade", cascadeOut.Len(), cascade.Calls, cascade.CostUSD,
		metrics.Ratio(naive.CostUSD, cascade.CostUSD))

	cached := semop.NewExecutor(llm.NewCache(llm.NewSimulator(llm.LargeModel(), 21)))
	// Duplicate the table rows to expose cache reuse.
	doubled := &relation.Table{Name: tbl.Name, Schema: tbl.Schema, Rows: append(append([]relation.Row{}, tbl.Rows...), tbl.Rows...)}
	cachedOut, err := semop.NewPipeline(semop.Optimize(ops)...).Run(cached, doubled)
	if err != nil {
		return nil, err
	}
	t.AddRowf("reordered + cache (2x rows)", cachedOut.Len(), cached.Calls, cached.CostUSD,
		metrics.Ratio(2*naive.CostUSD, cached.CostUSD))
	return t, nil
}

func runE3() (*metrics.Table, error) {
	rs, err := corpus.GenerateRecords(31, 400, []string{"name", "owner", "status", "category"}, 0.05)
	if err != nil {
		return nil, err
	}
	client := llm.NewSimulator(llm.LargeModel(), 31)
	t := metrics.NewTable("E3: schema extraction cost vs quality",
		"method", "accuracy", "LLM calls", "cost ($)", "calls vs direct")
	direct, err := extract.Direct{Client: client}.Extract(rs)
	if err != nil {
		return nil, err
	}
	t.AddRowf("direct (LLM per record)", extract.Accuracy(rs, direct), direct.LLMCalls, direct.CostUSD, "1.00x")
	for _, sample := range []int{5, 10, 25} {
		evap, err := extract.Evaporate{Client: client, SampleSize: sample}.Extract(rs)
		if err != nil {
			return nil, err
		}
		t.AddRowf(fmt.Sprintf("evaporate (sample=%d)", sample),
			extract.Accuracy(rs, evap), evap.LLMCalls, evap.CostUSD,
			fmt.Sprintf("%.3fx", float64(evap.LLMCalls)/float64(direct.LLMCalls)))
	}
	return t, nil
}

func runE4() (*metrics.Table, error) {
	c, err := experimentCorpus(1004)
	if err != nil {
		return nil, err
	}
	l, err := lake.BuildFromCorpus(c)
	if err != nil {
		return nil, err
	}
	e := embed.NewHashEmbedder(embed.DefaultDim)
	t := metrics.NewTable("E4: cross-modal schema linking",
		"method", "precision", "recall", "F1")
	lex, err := l.LinkLexical(1)
	if err != nil {
		return nil, err
	}
	p, r := l.LinkingQuality(lex)
	t.AddRowf("lexical Jaccard", p, r, metrics.F1(p, r))
	emb, err := l.LinkEmbedding(e, 1)
	if err != nil {
		return nil, err
	}
	p, r = l.LinkingQuality(emb)
	t.AddRowf("unified embedding (AOP)", p, r, metrics.F1(p, r))
	return t, nil
}

func runE5() (*metrics.Table, error) {
	c, err := experimentCorpus(1005)
	if err != nil {
		return nil, err
	}
	l, err := lake.BuildFromCorpus(c)
	if err != nil {
		return nil, err
	}
	planner, err := lake.NewPlanner(groundingClient(51), l, embed.NewHashEmbedder(embed.DefaultDim))
	if err != nil {
		return nil, err
	}
	queries := lake.GenerateQueries(l, c, 30, 55)
	type tally struct{ right, total int }
	single := map[lake.QueryKind]*tally{}
	planned := map[lake.QueryKind]*tally{}
	for _, kind := range []lake.QueryKind{lake.KindLookup, lake.KindTwoHop, lake.KindCount} {
		single[kind] = &tally{}
		planned[kind] = &tally{}
	}
	for _, q := range queries {
		single[q.Kind].total++
		planned[q.Kind].total++
		if got, err := planner.SingleShot(q.Text); err == nil && got == q.Gold {
			single[q.Kind].right++
		}
		if got, _, err := planner.Answer(q.Text); err == nil && got == q.Gold {
			planned[q.Kind].right++
		}
	}
	t := metrics.NewTable("E5: lake query answering (accuracy)",
		"query kind", "n", "single-shot LLM", "decomposed plan")
	for _, kind := range []lake.QueryKind{lake.KindLookup, lake.KindTwoHop, lake.KindCount} {
		s, p := single[kind], planned[kind]
		t.AddRowf(string(kind), s.total,
			float64(s.right)/float64(max(s.total, 1)),
			float64(p.right)/float64(max(p.total, 1)))
	}
	return t, nil
}
