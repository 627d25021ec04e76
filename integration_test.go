package dataai

import (
	"fmt"
	"strings"
	"testing"

	"dataai/internal/corpus"
	"dataai/internal/dataprep"
	"dataai/internal/docstore"
	"dataai/internal/extract"
	"dataai/internal/llm"
	"dataai/internal/relation"
	"dataai/internal/semop"
	"dataai/internal/serving"
	"dataai/internal/workload"
)

// These integration tests compose subsystems across package boundaries in
// ways the per-package suites don't: extraction feeding the relational
// engine feeding semantic operators; the preparation pipeline feeding the
// LM feeding a selection filter; the workload generator feeding every
// serving policy with one set of invariants.

// TestExtractionToSemanticAnalytics runs the full LLM4Data chain: semi-
// structured records → Evaporate extraction → relational table → SQL →
// semantic filter over a joined text column.
func TestExtractionToSemanticAnalytics(t *testing.T) {
	records, err := corpus.GenerateRecords(301, 120, []string{"name", "owner", "status"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	client := NewSimulatedLLM(LargeModel(), 301)
	res, err := extract.Evaporate{Client: client, SampleSize: 10}.Extract(records)
	if err != nil {
		t.Fatal(err)
	}
	if acc := extract.Accuracy(records, res); acc < 0.9 {
		t.Fatalf("extraction accuracy %v too low to proceed", acc)
	}

	// Materialize with a synthetic note column for the semantic stage.
	tbl, err := relation.NewTable("entities", relation.Schema{
		{Name: "id", Type: relation.String},
		{Name: "owner", Type: relation.String},
		{Name: "note", Type: relation.String},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range records.Records {
		note := "routine maintenance entry"
		if i%5 == 0 {
			note = "flagged for urgent review after incident"
		}
		tbl.MustInsert(relation.Row{rec.ID, res.Values[rec.ID]["owner"], note})
	}

	// SQL aggregation over extracted values.
	cat := relation.Catalog{"entities": tbl}
	agg, err := cat.Query("SELECT count(*) AS n FROM entities")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := agg.Get(0, "n"); n != int64(120) {
		t.Fatalf("count = %v", n)
	}

	// Semantic filter over the text column.
	ex := semop.NewExecutor(client)
	urgent, err := semop.SemFilter{TextCol: "note", Criterion: "contains:urgent"}.Apply(ex, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if urgent.Len() != 24 {
		t.Errorf("urgent rows = %d, want 24", urgent.Len())
	}
	if ex.Calls == 0 || ex.Calls > 3 {
		t.Errorf("semantic filter calls = %d, want deduped to 2 distinct notes (+retries)", ex.Calls)
	}
}

// TestPrepPipelineFeedsSelectionAndLM chains cleaning → dedup → classifier
// filter → perplexity selection → LM training, checking each stage's
// output remains usable by the next.
func TestPrepPipelineFeedsSelectionAndLM(t *testing.T) {
	cfg := corpus.DefaultConfig(303)
	cfg.DuplicateFraction = 0.2
	cfg.NoisyFraction = 0.08
	c, err := GenerateCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var goodSeed, badSeed []string
	for _, d := range c.Docs {
		if d.Kind == corpus.Clean && len(goodSeed) < 40 {
			goodSeed = append(goodSeed, d.Text)
		}
		if d.Kind == corpus.Noisy && len(badSeed) < 10 {
			badSeed = append(badSeed, d.Text)
		}
	}
	if len(badSeed) < 5 {
		t.Skip("not enough noisy docs")
	}
	cf, err := FitClassifierFilter(NewEmbedder(DefaultEmbedDim), goodSeed, badSeed)
	if err != nil {
		t.Fatal(err)
	}
	filtered, rep := ApplyFilters(c.Texts(),
		DefaultHeuristicFilter(),
		dataprep.ToxicityFilter{Lexicon: c.ToxicLexicon},
		cf,
	)
	if rep.Dropped == 0 {
		t.Fatal("nothing filtered")
	}
	mh, err := NewMinHasher(128, 32, 3, 303)
	if err != nil {
		t.Fatal(err)
	}
	deduped, _ := mh.Dedup(filtered, 0.6)

	sel := dataprep.PerplexitySelector{Target: goodSeed}
	idx, err := sel.Select(deduped, 150)
	if err != nil {
		t.Fatal(err)
	}
	lm := NewNGramLM()
	lm.TrainAll(dataprep.Pick(deduped, idx))
	ppl, err := lm.CorpusPerplexity(goodSeed)
	if err != nil {
		t.Fatal(err)
	}
	if ppl <= 1 || ppl > 100 {
		t.Errorf("end-of-pipeline perplexity %v implausible", ppl)
	}
}

// TestAllServingPoliciesShareInvariants runs one trace through every
// scheduler and checks the cross-policy invariants: same request set
// served, conservation of output tokens, monotone per-request times.
func TestAllServingPoliciesShareInvariants(t *testing.T) {
	gpu := serving.DefaultGPU()
	reqs, err := workload.Generate(workload.DefaultTrace(305, 200, 40))
	if err != nil {
		t.Fatal(err)
	}
	wantOut := 0
	for _, r := range reqs {
		wantOut += r.OutputTokens
	}
	type run struct {
		name string
		rep  *serving.Report
	}
	var runs []run
	static, err := serving.RunStatic(gpu, reqs, 16)
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs, run{"static", static})
	for _, opts := range []serving.ContinuousOpts{
		{},
		{ChunkTokens: 128},
		{OnDemand: true},
	} {
		rep, err := serving.RunContinuous(gpu, reqs, opts)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{fmt.Sprintf("continuous%+v", opts.ChunkTokens), rep})
	}
	disagg, err := serving.RunDisaggregated(gpu, reqs, serving.DisaggOpts{
		PrefillGPUs: 1, DecodeGPUs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs, run{"disagg", disagg})

	for _, r := range runs {
		if len(r.rep.Results) != len(reqs) {
			t.Fatalf("%s: %d results for %d requests", r.name, len(r.rep.Results), len(reqs))
		}
		if r.rep.Rejected > 0 {
			t.Fatalf("%s: rejected %d on a roomy GPU", r.name, r.rep.Rejected)
		}
		if r.rep.OutputTokens != wantOut {
			t.Errorf("%s: output tokens %d, want %d", r.name, r.rep.OutputTokens, wantOut)
		}
		seen := map[string]bool{}
		for _, res := range r.rep.Results {
			if seen[res.Req.ID] {
				t.Fatalf("%s: duplicate result %s", r.name, res.Req.ID)
			}
			seen[res.Req.ID] = true
		}
	}
}

// TestFlywheelWithPreparedCorpus combines Data4LLM and LLM4Data: the
// flywheel runs over a corpus that was first cleaned by the preparation
// pipeline, and the cleaned index must not contain toxic text even after
// feedback ingestion.
func TestFlywheelWithPreparedCorpus(t *testing.T) {
	c, err := GenerateCorpus(DefaultCorpusConfig(307))
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := ApplyFilters(c.Texts(), DefaultHeuristicFilter(),
		dataprep.ToxicityFilter{Lexicon: c.ToxicLexicon})

	model := LargeModel()
	model.ContextWindow = 1 << 20
	client := NewSimulatedLLM(model, 307)
	emb := NewEmbedder(DefaultEmbedDim)
	pipeline, err := NewRAG(client, emb, NewFlatIndex(emb.Dim()))
	if err != nil {
		t.Fatal(err)
	}
	var docs []docstore.Document
	for i, text := range clean[:len(clean)/10] {
		docs = append(docs, docstore.Document{ID: fmt.Sprintf("clean-%04d", i), Text: text})
	}
	if err := pipeline.Ingest(docs); err != nil {
		t.Fatal(err)
	}
	fw, err := NewFlywheel(pipeline, 0.8, 307)
	if err != nil {
		t.Fatal(err)
	}
	var qas []corpus.QA
	for _, qa := range c.QAs {
		if qa.Hops == 1 {
			qas = append(qas, qa)
		}
	}
	var first, last float64
	for iter := 0; iter < 4; iter++ {
		rep, err := fw.Iterate(qas[:40])
		if err != nil {
			t.Fatal(err)
		}
		if iter == 0 {
			first = rep.Accuracy()
		}
		last = rep.Accuracy()
	}
	if last <= first {
		t.Errorf("flywheel on prepared corpus did not improve: %v -> %v", first, last)
	}
}

// TestPromptCompressionInsideRAGLoop verifies the §2.2.1 compression
// technique composes with retrieval: compressing retrieved chunks before
// the answer call keeps the answer and cuts prompt tokens.
func TestPromptCompressionInsideRAGLoop(t *testing.T) {
	c, err := GenerateCorpus(DefaultCorpusConfig(309))
	if err != nil {
		t.Fatal(err)
	}
	model := LargeModel()
	model.ErrRate = 0
	model.HallucinationRate = 0
	model.ContextWindow = 1 << 20
	client := NewSimulatedLLM(model, 309)
	emb := NewEmbedder(DefaultEmbedDim)
	pipeline, err := NewRAG(client, emb, NewFlatIndex(emb.Dim()), RAGWithTopK(6))
	if err != nil {
		t.Fatal(err)
	}
	var docs []Document
	for _, d := range c.Docs {
		docs = append(docs, Document{ID: d.ID, Text: d.Text})
	}
	if err := pipeline.Ingest(docs); err != nil {
		t.Fatal(err)
	}
	var fullTokens, compTokens int
	fullRight, compRight, n := 0, 0, 0
	for _, qa := range c.QAs {
		if qa.Hops != 1 || n >= 30 {
			continue
		}
		n++
		hits, err := pipeline.Retrieve(qa.Question, 6)
		if err != nil {
			t.Fatal(err)
		}
		ctx := make([]string, len(hits))
		for i, h := range hits {
			ctx[i] = h.Chunk.Text
		}
		full, err := client.Complete(LLMRequest{Prompt: llm.AnswerPrompt(qa.Question, ctx)})
		if err != nil {
			t.Fatal(err)
		}
		fullTokens += full.PromptTokens
		if full.Text == qa.Answer {
			fullRight++
		}
		comp, err := client.Complete(LLMRequest{
			Prompt: llm.AnswerPrompt(qa.Question, CompressContext(ctx, qa.Question, 32)),
		})
		if err != nil {
			t.Fatal(err)
		}
		compTokens += comp.PromptTokens
		if comp.Text == qa.Answer {
			compRight++
		}
	}
	if compTokens >= fullTokens {
		t.Errorf("compression saved no tokens: %d vs %d", compTokens, fullTokens)
	}
	if compRight < fullRight-3 {
		t.Errorf("compression lost too much accuracy: %d vs %d of %d", compRight, fullRight, n)
	}
}

// TestSQLOverLakeMatchesPlannerCounts cross-checks two query paths: the
// planner's NL2SQL pipeline and direct SQL must agree on counts.
func TestSQLOverLakeMatchesPlannerCounts(t *testing.T) {
	c, err := GenerateCorpus(DefaultCorpusConfig(311))
	if err != nil {
		t.Fatal(err)
	}
	l, err := BuildLake(c)
	if err != nil {
		t.Fatal(err)
	}
	model := LargeModel()
	model.ErrRate = 0
	model.ContextWindow = 1 << 20
	planner, err := NewLakePlanner(NewSimulatedLLM(model, 311), l, NewEmbedder(DefaultEmbedDim))
	if err != nil {
		t.Fatal(err)
	}
	// Pick a (domain, relation, value) with a known count from the table.
	tbl := l.Tables["finance"]
	col := tbl.Schema[1].Name
	idx, err := tbl.Schema.Index(col)
	if err != nil {
		t.Fatal(err)
	}
	var value string
	for _, row := range tbl.Rows {
		if s, ok := row[idx].(string); ok {
			value = s
			break
		}
	}
	if value == "" {
		t.Skip("no non-null value")
	}
	direct, err := l.Tables.Query(fmt.Sprintf("SELECT count(*) FROM finance WHERE %s = '%s'", col, value))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%v", direct.Rows[0][0])
	q := fmt.Sprintf("How many finance entities have %s %s?", strings.ReplaceAll(col, "_", " "), value)
	got, _, err := planner.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("planner count %q != direct SQL %q for %q", got, want, q)
	}
}
