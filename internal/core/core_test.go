package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dataai/internal/corpus"
	"dataai/internal/dataprep"
	"dataai/internal/docstore"
	"dataai/internal/embed"
	"dataai/internal/llm"
	"dataai/internal/rag"
	"dataai/internal/vecdb"
)

func TestHubRegisterAndRoute(t *testing.T) {
	h := NewHub()
	small := llm.NewSimulator(llm.SmallModel(), 1)
	large := llm.NewSimulator(llm.LargeModel(), 1)
	if err := h.Register("small", small, false); err != nil {
		t.Fatal(err)
	}
	if err := h.Register("large", large, true); err != nil {
		t.Fatal(err)
	}
	if err := h.Register("small", small, false); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := h.Register("", nil, false); err == nil {
		t.Error("empty registration accepted")
	}
	if got := h.Models(); len(got) != 2 || got[0] != "small" {
		t.Errorf("Models = %v", got)
	}
	if h.Default() == nil {
		t.Fatal("no default")
	}
	if _, err := h.Client("large"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Client("missing"); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("err = %v", err)
	}
	if err := h.SetDefault("large"); err != nil {
		t.Fatal(err)
	}
	if err := h.SetDefault("missing"); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("err = %v", err)
	}
}

func TestHubCacheStats(t *testing.T) {
	h := NewHub()
	sim := llm.NewSimulator(llm.LargeModel(), 2)
	if err := h.Register("m", sim, true); err != nil {
		t.Fatal(err)
	}
	c, _ := h.Client("m")
	p := "hello" // a free-form prompt is a generate task
	if _, err := c.Complete(llm.Request{Prompt: p}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Complete(llm.Request{Prompt: p}); err != nil {
		t.Fatal(err)
	}
	hits, misses := h.CacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d/%d", hits, misses)
	}
}

func TestPipelineRunsPrepStages(t *testing.T) {
	gen, err := corpus.NewGenerator(corpus.DefaultConfig(91))
	if err != nil {
		t.Fatal(err)
	}
	c := gen.Generate()
	docs := c.Texts()
	mh, err := dataprep.NewMinHasher(64, 16, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(
		Stage{Name: "filter", Fn: func(in []string) ([]string, error) {
			out, _ := dataprep.ApplyFilters(in,
				dataprep.DefaultHeuristicFilter(),
				dataprep.ToxicityFilter{Lexicon: c.ToxicLexicon})
			return out, nil
		}},
		Stage{Name: "dedup", Fn: func(in []string) ([]string, error) {
			kept, _ := mh.Dedup(in, 0.6)
			return kept, nil
		}},
	).Append(Stage{Name: "select", Fn: func(in []string) ([]string, error) {
		idx, err := dataprep.RandomSelector{Seed: 3}.Select(in, 100)
		if err != nil {
			return nil, err
		}
		return dataprep.Pick(in, idx), nil
	}})

	out, reports, err := p.Run(docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Errorf("final docs = %d", len(out))
	}
	if len(reports) != 3 {
		t.Fatalf("stage reports = %d", len(reports))
	}
	if reports[0].In != len(docs) || reports[0].Out <= reports[1].Out && reports[1].In != reports[0].Out {
		t.Errorf("stage accounting broken: %+v", reports)
	}
	for i := 1; i < len(reports); i++ {
		if reports[i].In != reports[i-1].Out {
			t.Errorf("stage %d input %d != previous output %d", i, reports[i].In, reports[i-1].Out)
		}
	}
}

func TestPipelineErrors(t *testing.T) {
	if _, _, err := NewPipeline().Run(nil); !errors.Is(err, ErrNoStages) {
		t.Errorf("err = %v", err)
	}
	p := NewPipeline(Stage{Name: "boom", Fn: func([]string) ([]string, error) {
		return nil, errors.New("stage exploded")
	}})
	_, _, err := p.Run([]string{"x"})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v", err)
	}
}

// buildFlywheel constructs the E17 setup: a RAG pipeline over an
// initially *empty* index, QA traffic drawn from a corpus, and a flywheel
// folding feedback in.
func buildFlywheel(t *testing.T, feedbackRate float64) (*Flywheel, []corpus.QA) {
	t.Helper()
	gen, err := corpus.NewGenerator(corpus.DefaultConfig(93))
	if err != nil {
		t.Fatal(err)
	}
	c := gen.Generate()
	m := llm.LargeModel()
	m.ErrRate = 0
	m.HallucinationRate = 0
	m.ContextWindow = 1 << 20
	client := llm.NewSimulator(m, 7)
	e := embed.NewHashEmbedder(embed.DefaultDim)
	p, err := rag.New(client, e, vecdb.NewFlat(e.Dim()))
	if err != nil {
		t.Fatal(err)
	}
	// Seed the index with a small slice of the corpus: initial accuracy
	// is low, and the flywheel must earn the rest through feedback.
	var seedDocs []docstore.Document
	for _, d := range c.Docs[:len(c.Docs)/20] {
		seedDocs = append(seedDocs, docstore.Document{ID: d.ID, Text: d.Text})
	}
	if err := p.Ingest(seedDocs); err != nil {
		t.Fatal(err)
	}
	fw, err := NewFlywheel(p, feedbackRate, 5)
	if err != nil {
		t.Fatal(err)
	}
	var qas []corpus.QA
	for _, qa := range c.QAs {
		if qa.Hops == 1 {
			qas = append(qas, qa)
		}
	}
	return fw, qas
}

func TestFlywheelValidation(t *testing.T) {
	if _, err := NewFlywheel(nil, 0.5, 1); err == nil {
		t.Error("nil pipeline accepted")
	}
}

func TestFlywheelAccuracyCompounds(t *testing.T) {
	fw, qas := buildFlywheel(t, 0.8)
	rng := rand.New(rand.NewSource(9))
	sample := func() []corpus.QA {
		batch := make([]corpus.QA, 40)
		for i := range batch {
			batch[i] = qas[rng.Intn(len(qas))]
		}
		return batch
	}
	var accs []float64
	for iter := 0; iter < 5; iter++ {
		rep, err := fw.Iterate(sample())
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, rep.Accuracy())
		t.Logf("iteration %d: acc=%.2f feedback=%d newDocs=%d", iter, rep.Accuracy(), rep.Feedback, rep.NewDocs)
	}
	if accs[len(accs)-1] <= accs[0] {
		t.Errorf("flywheel did not improve: %v", accs)
	}
	if accs[len(accs)-1] < 0.5 {
		t.Errorf("final accuracy %v too low", accs[len(accs)-1])
	}
}

func TestFlywheelNoFeedbackNoImprovement(t *testing.T) {
	fw, qas := buildFlywheel(t, 0)
	batch := qas[:30]
	first, err := fw.Iterate(batch)
	if err != nil {
		t.Fatal(err)
	}
	second, err := fw.Iterate(batch)
	if err != nil {
		t.Fatal(err)
	}
	if second.NewDocs != 0 || first.NewDocs != 0 {
		t.Error("feedback rate 0 still ingested docs")
	}
	if second.Accuracy() != first.Accuracy() {
		t.Errorf("accuracy changed without feedback: %v -> %v", first.Accuracy(), second.Accuracy())
	}
}

func TestCorrectionDoc(t *testing.T) {
	got := correctionDoc("What is the ceo of Zorvex Fi?", "anor")
	if got != "The ceo of Zorvex Fi is anor." {
		t.Errorf("correctionDoc = %q", got)
	}
	if correctionDoc("unparseable", "x") != "" {
		t.Error("unparseable question should produce no doc")
	}
}

func ExamplePipeline_Run() {
	p := NewPipeline(Stage{Name: "upper", Fn: func(in []string) ([]string, error) {
		out := make([]string, len(in))
		for i, s := range in {
			out[i] = strings.ToUpper(s)
		}
		return out, nil
	}})
	out, reports, _ := p.Run([]string{"a", "b"})
	fmt.Println(out[0], reports[0].Name, reports[0].In, reports[0].Out)
	// Output: A upper 2 2
}

func TestFlywheelRetract(t *testing.T) {
	fw, qas := buildFlywheel(t, 1.0) // every wrong answer gets feedback
	// Find a question the pipeline cannot answer yet, teach it, then
	// retract the teaching.
	var target corpus.QA
	found := false
	for _, qa := range qas {
		rep, err := fw.Iterate([]corpus.QA{qa})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Correct == 0 && rep.NewDocs == 1 {
			target = qa
			found = true
			break
		}
	}
	if !found {
		t.Skip("no teachable question at this seed")
	}
	// Now answered correctly.
	rep, err := fw.Iterate([]corpus.QA{target})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct != 1 {
		t.Fatalf("question not learned: %+v", rep)
	}
	// Retract and verify the knowledge is gone.
	if err := fw.Retract(target.Question); err != nil {
		t.Fatal(err)
	}
	rep, err = fw.Iterate([]corpus.QA{target})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct != 0 {
		t.Error("answer survived retraction")
	}
	// The retracted correction can be re-learned (seen-set cleared): the
	// failed iteration above should have re-ingested it.
	rep, err = fw.Iterate([]corpus.QA{target})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct != 1 {
		t.Error("correction not re-learnable after retraction")
	}
	if err := fw.Retract("never corrected?"); err == nil {
		t.Error("retracting unknown question succeeded")
	}
}
