package rag

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dataai/internal/corpus"
	"dataai/internal/docstore"
	"dataai/internal/embed"
	"dataai/internal/llm"
	"dataai/internal/vecdb"
)

// buildCorpusPipeline ingests a generated corpus into a fresh pipeline.
func buildCorpusPipeline(t *testing.T, client llm.Client, opts ...Option) (*Pipeline, *corpus.Corpus) {
	t.Helper()
	gen, err := corpus.NewGenerator(corpus.DefaultConfig(101))
	if err != nil {
		t.Fatal(err)
	}
	c := gen.Generate()
	e := embed.NewHashEmbedder(embed.DefaultDim)
	p, err := New(client, e, vecdb.NewFlat(e.Dim()), opts...)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]docstore.Document, len(c.Docs))
	for i, d := range c.Docs {
		docs[i] = docstore.Document{ID: d.ID, Text: d.Text}
	}
	if err := p.Ingest(docs); err != nil {
		t.Fatal(err)
	}
	return p, c
}

func perfectClient(seed uint64) *llm.Simulator {
	m := llm.LargeModel()
	m.ErrRate = 0
	m.HallucinationRate = 0
	m.ContextWindow = 1 << 20
	return llm.NewSimulator(m, seed)
}

func TestNewDimMismatch(t *testing.T) {
	e := embed.NewHashEmbedder(64)
	if _, err := New(perfectClient(1), e, vecdb.NewFlat(32)); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestRetrieveEmpty(t *testing.T) {
	e := embed.NewHashEmbedder(32)
	p, err := New(perfectClient(1), e, vecdb.NewFlat(32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Retrieve("anything", 3); !errors.Is(err, ErrEmptyIndex) {
		t.Errorf("err = %v", err)
	}
}

func TestRetrieveFindsSupportDoc(t *testing.T) {
	p, c := buildCorpusPipeline(t, perfectClient(2))
	found, total := 0, 0
	for _, qa := range c.QAs {
		if qa.Hops != 1 {
			continue
		}
		total++
		hits, err := p.Retrieve(qa.Question, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hits {
			if strings.Contains(h.Chunk.Text, qa.Answer) {
				found++
				break
			}
		}
	}
	if total == 0 {
		t.Fatal("no single-hop QAs")
	}
	if frac := float64(found) / float64(total); frac < 0.7 {
		t.Errorf("retrieval found answer chunk for only %.2f of questions", frac)
	}
}

func TestRAGBeatsClosedBook(t *testing.T) {
	client := perfectClient(3) // empty knowledge base: closed book knows nothing
	p, c := buildCorpusPipeline(t, client)
	closed, open, total := 0, 0, 0
	for _, qa := range c.QAs {
		if qa.Hops != 1 {
			continue
		}
		total++
		resp, err := client.Complete(llm.Request{Prompt: llm.AnswerPrompt(qa.Question, nil)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Text == qa.Answer {
			closed++
		}
		ans, err := p.Answer(qa.Question)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Text == qa.Answer {
			open++
		}
	}
	if closed >= open {
		t.Errorf("closed-book %d/%d >= RAG %d/%d", closed, total, open, total)
	}
	if float64(open)/float64(total) < 0.6 {
		t.Errorf("RAG accuracy %d/%d too low", open, total)
	}
}

func TestIterativeBeatsSingleShotOnMultiHop(t *testing.T) {
	client := perfectClient(4)
	p, c := buildCorpusPipeline(t, client)
	single, iter, total := 0, 0, 0
	for _, qa := range c.QAs {
		if qa.Hops != 2 {
			continue
		}
		total++
		a1, err := p.Answer(qa.Question)
		if err != nil {
			t.Fatal(err)
		}
		if a1.Text == qa.Answer {
			single++
		}
		a2, err := p.AnswerIterative(qa.Question)
		if err != nil {
			t.Fatal(err)
		}
		if a2.Text == qa.Answer {
			iter++
		}
	}
	if total == 0 {
		t.Fatal("no multi-hop QAs")
	}
	if iter < single {
		t.Errorf("iterative %d/%d worse than single %d/%d", iter, total, single, total)
	}
	if float64(iter)/float64(total) < 0.5 {
		t.Errorf("iterative accuracy %d/%d too low", iter, total)
	}
}

func TestIterativeDegradesGracefullyOnOneHop(t *testing.T) {
	client := perfectClient(5)
	p, c := buildCorpusPipeline(t, client)
	var qa corpus.QA
	for _, q := range c.QAs {
		if q.Hops == 1 {
			qa = q
			break
		}
	}
	a, err := p.AnswerIterative(qa.Question)
	if err != nil {
		t.Fatal(err)
	}
	if a.Text != qa.Answer {
		t.Errorf("iterative one-hop answer = %q, want %q", a.Text, qa.Answer)
	}
}

func TestAnswerAccountsCost(t *testing.T) {
	client := perfectClient(6)
	p, c := buildCorpusPipeline(t, client)
	a, err := p.Answer(c.QAs[0].Question)
	if err != nil {
		t.Fatal(err)
	}
	if a.CostUSD <= 0 || a.LatencyMS <= 0 {
		t.Error("answer cost/latency not accounted")
	}
	if len(a.Retrieved) == 0 || a.Hops != 1 {
		t.Error("retrieval metadata missing")
	}
}

func TestRerankImprovesOrNeutral(t *testing.T) {
	clientA := perfectClient(7)
	plain, c := buildCorpusPipeline(t, clientA)
	clientB := perfectClient(7)
	reranked, _ := buildCorpusPipeline(t, clientB, WithRerank())

	score := func(p *Pipeline) int {
		hit := 0
		for _, qa := range c.QAs[:40] {
			hits, err := p.Retrieve(qa.Question, 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range hits {
				if strings.Contains(h.Chunk.Text, qa.Answer) {
					hit++
					break
				}
			}
		}
		return hit
	}
	plainHits := score(plain)
	rerankHits := score(reranked)
	if rerankHits < plainHits-2 {
		t.Errorf("rerank hits %d much worse than plain %d", rerankHits, plainHits)
	}
}

func TestReformulate(t *testing.T) {
	q := "What is the revenue of the entity whose ceo is anor?"
	got := reformulate(q, "Zorvex Fi")
	if got != "What is the revenue of Zorvex Fi?" {
		t.Errorf("reformulate = %q", got)
	}
	if got := reformulate("plain question?", "X"); !strings.Contains(got, "X") {
		t.Errorf("fallback reformulate = %q", got)
	}
}

func TestChunkCount(t *testing.T) {
	p, _ := buildCorpusPipeline(t, perfectClient(8))
	if p.ChunkCount() == 0 {
		t.Error("no chunks indexed")
	}
}

func TestIngestDuplicateDocFails(t *testing.T) {
	e := embed.NewHashEmbedder(32)
	p, err := New(perfectClient(9), e, vecdb.NewFlat(32))
	if err != nil {
		t.Fatal(err)
	}
	docs := []docstore.Document{{ID: "a", Text: "hello world."}}
	if err := p.Ingest(docs); err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(docs); err == nil {
		t.Error("duplicate ingest accepted")
	}
}

func BenchmarkRAGAnswer(b *testing.B) {
	gen, _ := corpus.NewGenerator(corpus.DefaultConfig(1))
	c := gen.Generate()
	client := llm.NewSimulator(llm.LargeModel(), 1)
	e := embed.NewHashEmbedder(embed.DefaultDim)
	p, _ := New(client, e, vecdb.NewFlat(e.Dim()))
	docs := make([]docstore.Document, len(c.Docs))
	for i, d := range c.Docs {
		docs[i] = docstore.Document{ID: d.ID, Text: d.Text}
	}
	if err := p.Ingest(docs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Answer(c.QAs[i%len(c.QAs)].Question); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRemoveDocumentForgetsFacts(t *testing.T) {
	client := perfectClient(31)
	p, c := buildCorpusPipeline(t, client)
	// Find an answerable one-hop QA and remove every doc that states the
	// fact; the pipeline must then stop answering it.
	var qa corpus.QA
	for _, q := range c.QAs {
		if q.Hops == 1 {
			qa = q
			break
		}
	}
	before, err := p.Answer(qa.Question)
	if err != nil {
		t.Fatal(err)
	}
	if before.Text != qa.Answer {
		t.Skip("question not answered pre-removal at this seed")
	}
	removedAny := false
	for _, d := range c.Docs {
		states := false
		for _, f := range d.Facts {
			if strings.Contains(qa.Question, f.Subject) && strings.Contains(qa.Question, f.Relation) {
				states = true
			}
		}
		if states {
			if err := p.Remove(d.ID); err != nil {
				t.Fatal(err)
			}
			removedAny = true
		}
	}
	if !removedAny {
		t.Skip("no stating docs found")
	}
	after, err := p.Answer(qa.Question)
	if err != nil {
		t.Fatal(err)
	}
	if after.Text == qa.Answer {
		t.Errorf("pipeline still answers %q after removing its sources", qa.Question)
	}
	if err := p.Remove("doc-does-not-exist"); err == nil {
		t.Error("removing unknown doc succeeded")
	}
}

// ingestReference is Ingest as the package shipped it before it cut and
// embedded documents on several goroutines: one document at a time,
// chunked by the store, each chunk embedded and indexed in turn. It is
// the oracle for TestIngestMatchesSerial.
func ingestReference(p *Pipeline, docs []docstore.Document) error {
	for _, d := range docs {
		chunks, err := p.store.AddDocument(d, docstore.SentenceChunker{MaxTokens: chunkTokens})
		if err != nil {
			return fmt.Errorf("rag: ingest %s: %w", d.ID, err)
		}
		for _, c := range chunks {
			if err := p.index.Add(c.ID, p.emb.Embed(c.Text)); err != nil {
				return fmt.Errorf("rag: index %s: %w", c.ID, err)
			}
		}
	}
	return nil
}

// poisonEmbedder embeds like inner, but gives a chunk that mentions
// poison a NaN coordinate, which vecdb.Flat refuses.
type poisonEmbedder struct {
	embed.Embedder
	poison string
}

func (e poisonEmbedder) Embed(text string) []float32 {
	v := e.Embedder.Embed(text)
	if e.poison != "" && strings.Contains(text, e.poison) {
		v[0] = float32(math.NaN())
	}
	return v
}

// TestIngestMatchesSerial compares ingest at 1, 2 and 8 workers with the
// serial reference: the error, the store's chunks (IDs, order, texts),
// every indexed vector's bits via Get, search results and DistComps. Besides a clean corpus that spans several
// windows, it ingests one with a duplicate document in the middle of a
// window and one whose embedder poisons a chunk in the middle of a
// document, where both must stop with exactly the reference's partial
// state.
func TestIngestMatchesSerial(t *testing.T) {
	cfg := corpus.DefaultConfig(103)
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := gen.Generate()
	docs := make([]docstore.Document, len(c.Docs))
	for i, d := range c.Docs {
		docs[i] = docstore.Document{ID: d.ID, Text: d.Text}
	}
	if len(docs) < 2*ingestWindow+10 {
		t.Fatalf("corpus has %d documents; want more than two windows", len(docs))
	}
	mid := ingestWindow + ingestWindow/2
	dup := append([]docstore.Document(nil), docs[:mid]...)
	dup = append(dup, docstore.Document{ID: docs[7].ID, Text: "a second document under an existing id."})
	dup = append(dup, docs[mid:]...)
	// The poisoned chunk is the second of a document in the second window.
	poisonDoc := -1
	var poison string
	for i := ingestWindow + 5; i < len(docs) && poisonDoc < 0; i++ {
		if pieces := (docstore.SentenceChunker{MaxTokens: chunkTokens}).Chunk(docs[i].Text); len(pieces) >= 3 {
			poisonDoc, poison = i, pieces[1]
		}
	}
	if poisonDoc < 0 {
		t.Fatal("no document with three chunks to poison")
	}
	queries := []string{c.QAs[0].Question, c.QAs[1].Question, "merger", "the"}
	cases := []struct {
		name    string
		docs    []docstore.Document
		poison  string
		wantErr bool
	}{
		{"clean", docs, "", false},
		{"duplicate", dup, "", true},
		{"poisoned", docs, poison, true},
	}
	for _, tc := range cases {
		build := func() (*Pipeline, *vecdb.Flat) {
			e := poisonEmbedder{Embedder: embed.NewHashEmbedder(embed.DefaultDim), poison: tc.poison}
			f := vecdb.NewFlat(e.Dim())
			p, err := New(perfectClient(1), e, f)
			if err != nil {
				t.Fatal(err)
			}
			return p, f
		}
		ref, refIndex := build()
		refErr := ingestReference(ref, tc.docs)
		if (refErr != nil) != tc.wantErr {
			t.Fatalf("%s: reference error %v, want error %v", tc.name, refErr, tc.wantErr)
		}
		t.Logf("%s: reference stored %d of %d documents, %d chunks (error %v)",
			tc.name, ref.store.Len(), len(tc.docs), ref.ChunkCount(), refErr)
		for _, workers := range []int{1, 2, 8} {
			p, index := build()
			err := p.ingest(tc.docs, workers)
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Errorf("%s, %d workers: error %v, reference %v", tc.name, workers, err, refErr)
			}
			if p.store.Len() != ref.store.Len() || !reflect.DeepEqual(p.store.Chunks(), ref.store.Chunks()) {
				t.Errorf("%s, %d workers: store holds %d documents and %d chunks, reference %d and %d (or they differ)",
					tc.name, workers, p.store.Len(), p.ChunkCount(), ref.store.Len(), ref.ChunkCount())
				continue
			}
			if index.Len() != refIndex.Len() {
				t.Errorf("%s, %d workers: index holds %d vectors, reference %d", tc.name, workers, index.Len(), refIndex.Len())
				continue
			}
			for _, ch := range ref.store.Chunks() {
				want, wantErr := refIndex.Get(ch.ID)
				got, gotErr := index.Get(ch.ID)
				if (gotErr != nil) != (wantErr != nil) {
					t.Fatalf("%s, %d workers: Get(%s) error %v, reference %v", tc.name, workers, ch.ID, gotErr, wantErr)
				}
				for d := range want {
					if math.Float32bits(got[d]) != math.Float32bits(want[d]) {
						t.Fatalf("%s, %d workers: %s coordinate %d is %v, reference %v", tc.name, workers, ch.ID, d, got[d], want[d])
					}
				}
			}
			before, refBefore := index.DistComps(), refIndex.DistComps()
			for _, q := range queries {
				got, gotErr := p.Retrieve(q, 5)
				want, wantErr := ref.Retrieve(q, 5)
				if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("%s, %d workers: Retrieve(%q) = %v, %v; reference %v, %v", tc.name, workers, q, got, gotErr, want, wantErr)
				}
			}
			if d, refD := index.DistComps()-before, refIndex.DistComps()-refBefore; d != refD {
				t.Errorf("%s, %d workers: %d dist comps over the queries, reference %d", tc.name, workers, d, refD)
			}
		}
	}
}
