package llm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dataai/internal/corpus"
)

func perfectModel() Model {
	m := LargeModel()
	m.ErrRate = 0
	m.HallucinationRate = 0
	return m
}

func testFacts() []corpus.Fact {
	return []corpus.Fact{
		{Subject: "Zorvex Fi", Relation: "ceo", Object: "anor", Domain: "finance"},
		{Subject: "Zorvex Fi", Relation: "revenue", Object: "elim", Domain: "finance"},
		{Subject: "Lumtar Me", Relation: "treatment", Object: "osur", Domain: "medicine"},
	}
}

func TestAnswerFromKnowledgeBase(t *testing.T) {
	s := NewSimulator(perfectModel(), 1)
	s.AddKnowledge(testFacts())
	r, err := s.Complete(Request{Prompt: AnswerPrompt("What is the ceo of Zorvex Fi?", nil)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Text != "anor" {
		t.Errorf("answer = %q, want anor", r.Text)
	}
	if r.PromptTokens == 0 || r.CompletionTokens == 0 {
		t.Error("tokens not metered")
	}
	if r.CostUSD <= 0 || r.LatencyMS <= 0 {
		t.Error("cost/latency not metered")
	}
}

func TestAnswerUnknownWithoutKnowledge(t *testing.T) {
	s := NewSimulator(perfectModel(), 1)
	r, err := s.Complete(Request{Prompt: AnswerPrompt("What is the ceo of Zorvex Fi?", nil)})
	if err != nil {
		t.Fatal(err)
	}
	if !IsUnknown(r.Text) {
		t.Errorf("answer = %q, want unknown", r.Text)
	}
	if r.Confidence > 0.2 {
		t.Errorf("unknown answer confidence = %v, want low", r.Confidence)
	}
}

func TestAnswerFromContextBeatsMissingKnowledge(t *testing.T) {
	s := NewSimulator(perfectModel(), 1)
	ctx := []string{"Some filler text. The ceo of Zorvex Fi is anor. More filler."}
	r, err := s.Complete(Request{Prompt: AnswerPrompt("What is the ceo of Zorvex Fi?", ctx)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Text != "anor" {
		t.Errorf("grounded answer = %q, want anor", r.Text)
	}
}

func TestHallucinationRate(t *testing.T) {
	m := perfectModel()
	m.HallucinationRate = 1
	s := NewSimulator(m, 2)
	r, err := s.Complete(Request{Prompt: AnswerPrompt("What is the ceo of Nowhere Co?", nil)})
	if err != nil {
		t.Fatal(err)
	}
	if IsUnknown(r.Text) || r.Text == "" {
		t.Errorf("always-hallucinate model answered %q", r.Text)
	}
}

func TestTwoHopAnswer(t *testing.T) {
	s := NewSimulator(perfectModel(), 3)
	s.AddKnowledge(testFacts())
	q := "What is the revenue of the entity whose ceo is anor?"
	r, err := s.Complete(Request{Prompt: AnswerPrompt(q, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Text != "elim" {
		t.Errorf("two-hop answer = %q, want elim", r.Text)
	}
}

func TestTwoHopFromContext(t *testing.T) {
	s := NewSimulator(perfectModel(), 3)
	ctx := []string{
		"The ceo of Zorvex Fi is anor.",
		"The revenue of Zorvex Fi is elim.",
	}
	q := "What is the revenue of the entity whose ceo is anor?"
	r, err := s.Complete(Request{Prompt: AnswerPrompt(q, ctx)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Text != "elim" {
		t.Errorf("two-hop grounded answer = %q, want elim", r.Text)
	}
}

func TestBridge(t *testing.T) {
	s := NewSimulator(perfectModel(), 4)
	s.AddKnowledge(testFacts())
	q := "What is the revenue of the entity whose ceo is anor?"
	r, err := s.Complete(Request{Prompt: BridgePrompt(q, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Text != "Zorvex Fi" {
		t.Errorf("bridge = %q, want Zorvex Fi", r.Text)
	}
	// Non-two-hop question: unknown.
	r, err = s.Complete(Request{Prompt: BridgePrompt("What is the ceo of Zorvex Fi?", nil)})
	if err != nil {
		t.Fatal(err)
	}
	if !IsUnknown(r.Text) {
		t.Errorf("bridge on one-hop = %q", r.Text)
	}
}

func TestJudgeTruth(t *testing.T) {
	s := NewSimulator(perfectModel(), 5)
	r, err := s.Complete(Request{Prompt: JudgePrompt("contains:merger", "the quarterly Merger was approved")})
	if err != nil {
		t.Fatal(err)
	}
	if !IsYes(r.Text) {
		t.Errorf("judge = %q, want yes", r.Text)
	}
	r, err = s.Complete(Request{Prompt: JudgePrompt("contains:merger", "nothing relevant here")})
	if err != nil {
		t.Fatal(err)
	}
	if IsYes(r.Text) {
		t.Errorf("judge = %q, want no", r.Text)
	}
	// Multi-word term must match as a token sequence.
	r, _ = s.Complete(Request{Prompt: JudgePrompt("contains:release year", "the release year is 2009")})
	if !IsYes(r.Text) {
		t.Error("multi-word criterion failed")
	}
}

func TestJudgeErrRateFlipsSomeVerdicts(t *testing.T) {
	m := perfectModel()
	m.ErrRate = 0.5
	s := NewSimulator(m, 6)
	flips := 0
	const n = 200
	for i := 0; i < n; i++ {
		text := fmt.Sprintf("document number %d mentions merger", i)
		r, err := s.Complete(Request{Prompt: JudgePrompt("contains:merger", text)})
		if err != nil {
			t.Fatal(err)
		}
		if !IsYes(r.Text) {
			flips++
		}
	}
	if flips < n/4 || flips > 3*n/4 {
		t.Errorf("flips = %d/%d with ErrRate 0.5", flips, n)
	}
}

func TestDeterminismAcrossCalls(t *testing.T) {
	m := LargeModel() // nonzero error rates
	s := NewSimulator(m, 7)
	s.AddKnowledge(testFacts())
	p := AnswerPrompt("What is the treatment of Lumtar Me?", nil)
	r1, err := s.Complete(Request{Prompt: p})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Complete(Request{Prompt: p})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Text != r2.Text || r1.Confidence != r2.Confidence {
		t.Error("identical calls returned different responses")
	}
}

func TestExtractFormats(t *testing.T) {
	s := NewSimulator(perfectModel(), 8)
	cases := []struct{ text, attr, want string }{
		{"name: widget\nowner: acme\n", "owner", "acme"},
		{"header\nname = widget\nend", "name", "widget"},
		{"The status is active. Reviewed twice.", "status", "active"},
	}
	for _, c := range cases {
		r, err := s.Complete(Request{Prompt: ExtractPrompt(c.attr, c.text)})
		if err != nil {
			t.Fatal(err)
		}
		if r.Text != c.want {
			t.Errorf("extract %q from %q = %q, want %q", c.attr, c.text, r.Text, c.want)
		}
	}
	// Missing attribute with zero hallucination: unknown.
	r, err := s.Complete(Request{Prompt: ExtractPrompt("missing", "no such field here")})
	if err != nil {
		t.Fatal(err)
	}
	if !IsUnknown(r.Text) {
		t.Errorf("missing attr = %q", r.Text)
	}
}

func TestClassify(t *testing.T) {
	s := NewSimulator(perfectModel(), 9)
	s.RegisterLabel("finance", []string{"market", "shares", "dividend"})
	s.RegisterLabel("sports", []string{"season", "score", "playoff"})
	r, err := s.Complete(Request{Prompt: ClassifyPrompt([]string{"finance", "sports"}, "the market shares rose after the dividend")})
	if err != nil {
		t.Fatal(err)
	}
	if r.Text != "finance" {
		t.Errorf("classify = %q", r.Text)
	}
}

func TestFreeFormPromptIsGenerate(t *testing.T) {
	s := NewSimulator(perfectModel(), 11)
	r, err := s.Complete(Request{Prompt: "just some text"})
	if err != nil {
		t.Fatal(err)
	}
	if r.CompletionTokens != generateTokens {
		t.Errorf("free-form prompt generated %d tokens, want %d", r.CompletionTokens, generateTokens)
	}
}

func TestContextOverflow(t *testing.T) {
	m := perfectModel()
	m.ContextWindow = 10
	s := NewSimulator(m, 12)
	_, err := s.Complete(Request{Prompt: AnswerPrompt("What is the ceo of X?", []string{strings.Repeat("word ", 50)})})
	if !errors.Is(err, ErrContextOverflow) {
		t.Errorf("err = %v, want ErrContextOverflow", err)
	}
}

func TestMalformedPrompts(t *testing.T) {
	s := NewSimulator(perfectModel(), 13)
	for _, p := range []string{
		"TASK: answer\nno question here",
		"TASK: judge\nTEXT: only text",
		"TASK: extract\nTEXT: only text",
		"TASK: classify\nTEXT: only text",
		"TASK: frobnicate\nX: y",
	} {
		if _, err := s.Complete(Request{Prompt: p}); !errors.Is(err, ErrBadPrompt) {
			t.Errorf("prompt %q err = %v, want ErrBadPrompt", p, err)
		}
	}
}

func TestUsageAccounting(t *testing.T) {
	s := NewSimulator(perfectModel(), 14)
	s.AddKnowledge(testFacts())
	for i := 0; i < 3; i++ {
		if _, err := s.Complete(Request{Prompt: AnswerPrompt("What is the ceo of Zorvex Fi?", nil)}); err != nil {
			t.Fatal(err)
		}
	}
	u := s.Usage()
	if u.Calls != 3 {
		t.Errorf("Calls = %d", u.Calls)
	}
	if u.CostUSD <= 0 || u.PromptTokens <= 0 {
		t.Error("usage not accumulated")
	}
	s.ResetUsage()
	if s.Usage().Calls != 0 {
		t.Error("ResetUsage did not clear")
	}
}

func TestCacheHitIsFree(t *testing.T) {
	s := NewSimulator(perfectModel(), 15)
	s.AddKnowledge(testFacts())
	c := NewCache(s)
	p := AnswerPrompt("What is the ceo of Zorvex Fi?", nil)
	r1, err := c.Complete(Request{Prompt: p})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Error("first call should miss")
	}
	r2, err := c.Complete(Request{Prompt: p})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("second call should hit")
	}
	if r2.CostUSD != 0 {
		t.Error("hit should be free")
	}
	if r2.Text != r1.Text {
		t.Error("hit returned different text")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d", hits, misses)
	}
	if s.Usage().Calls != 1 {
		t.Errorf("inner model called %d times, want 1", s.Usage().Calls)
	}
}

func TestCascadeEscalation(t *testing.T) {
	cheap := NewSimulator(SmallModel(), 17)
	expensive := NewSimulator(perfectModel(), 17)
	// Threshold 1: always escalate.
	c := NewCascade(cheap, expensive, 1.0)
	r, err := c.Complete(Request{Prompt: JudgePrompt("contains:x", "x y z")})
	if err != nil {
		t.Fatal(err)
	}
	if esc, total := c.Stats(); esc != 1 || total != 1 {
		t.Errorf("stats = %d/%d", esc, total)
	}
	if expensive.Usage().Calls != 1 {
		t.Error("expensive model not consulted")
	}
	// Cost must include both tiers.
	soloCheap, _ := cheap.Complete(Request{Prompt: JudgePrompt("contains:x", "x y z")})
	if r.CostUSD <= soloCheap.CostUSD {
		t.Error("escalated cost should exceed cheap-only cost")
	}

	// Threshold 0: never escalate.
	c0 := NewCascade(cheap, expensive, 0)
	before := expensive.Usage().Calls
	if _, err := c0.Complete(Request{Prompt: JudgePrompt("contains:x", "x y")}); err != nil {
		t.Fatal(err)
	}
	if expensive.Usage().Calls != before {
		t.Error("threshold 0 escalated")
	}
}

func TestCascadeAccuracyBetweenTiers(t *testing.T) {
	// Over many judgments, cascade accuracy should exceed cheap-only and
	// cost should undercut expensive-only.
	cheap := NewSimulator(SmallModel(), 18)
	expensive := NewSimulator(LargeModel(), 18)
	cascade := NewCascade(NewSimulator(SmallModel(), 18), NewSimulator(LargeModel(), 18), 0.35)

	type verdict struct {
		text  string
		truth bool
	}
	var cases []verdict
	for i := 0; i < 300; i++ {
		truth := i%2 == 0
		text := "filler words here item" + strings.Repeat("z", i%11)
		if truth {
			text += " merger"
		}
		cases = append(cases, verdict{text, truth})
	}
	score := func(c Client) (acc float64, cost float64) {
		right := 0
		for _, v := range cases {
			r, err := c.Complete(Request{Prompt: JudgePrompt("contains:merger", v.text)})
			if err != nil {
				t.Fatal(err)
			}
			if IsYes(r.Text) == v.truth {
				right++
			}
			cost += r.CostUSD
		}
		return float64(right) / float64(len(cases)), cost
	}
	accCheap, _ := score(cheap)
	accExp, costExp := score(expensive)
	accCas, costCas := score(cascade)
	if accCas <= accCheap {
		t.Errorf("cascade accuracy %v not better than cheap %v", accCas, accCheap)
	}
	if costCas >= costExp {
		t.Errorf("cascade cost %v not cheaper than expensive %v", costCas, costExp)
	}
	if accExp < accCas-0.05 {
		t.Errorf("expensive accuracy %v unexpectedly below cascade %v", accExp, accCas)
	}
}

func BenchmarkSimulatorAnswer(b *testing.B) {
	s := NewSimulator(LargeModel(), 1)
	s.AddKnowledge(testFacts())
	p := AnswerPrompt("What is the ceo of Zorvex Fi?", []string{"The ceo of Zorvex Fi is anor. Extra context sentence here."})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Complete(Request{Prompt: p}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFewShotExamplesReduceClassifyError(t *testing.T) {
	m := perfectModel()
	m.ErrRate = 0.4
	s := NewSimulator(m, 20)
	s.RegisterLabel("finance", []string{"market", "dividend", "shares"})
	s.RegisterLabel("sports", []string{"playoff", "stadium", "referee"})
	labels := []string{"finance", "sports"}
	// Demonstrations sharing substantial distinctive vocabulary with the
	// classified text (>= 5 long tokens) — the in-context-learning model
	// discounts demonstrations that merely share generic words.
	demos := []Example{
		{Input: "the market dividend and shares moved together after earnings", Label: "finance"},
		{Input: "market watchers saw dividend shares moved together sharply", Label: "finance"},
	}
	zeroRight, fewRight := 0, 0
	const n = 150
	for i := 0; i < n; i++ {
		text := fmt.Sprintf("report %d: the market dividend and shares moved together", i)
		r0, err := s.Complete(Request{Prompt: ClassifyPrompt(labels, text)})
		if err != nil {
			t.Fatal(err)
		}
		if r0.Text == "finance" {
			zeroRight++
		}
		r1, err := s.Complete(Request{Prompt: ClassifyPromptFewShot(labels, demos, text)})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Text == "finance" {
			fewRight++
		}
	}
	if fewRight <= zeroRight {
		t.Errorf("few-shot %d/%d not better than zero-shot %d/%d", fewRight, n, zeroRight, n)
	}
}

func TestSimulatorModelAndCacheUsage(t *testing.T) {
	s := NewSimulator(LargeModel(), 21)
	if s.Model().Name != "large" {
		t.Errorf("Model = %+v", s.Model())
	}
	c := NewCache(s)
	p := "usage check" // a free-form prompt is a generate task
	if _, err := c.Complete(Request{Prompt: p}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Complete(Request{Prompt: p}); err != nil {
		t.Fatal(err)
	}
	u := c.Usage()
	if u.Calls != 2 {
		t.Errorf("cache usage calls = %d, want 2 (hit + miss)", u.Calls)
	}
	if u.CostUSD <= 0 {
		t.Error("cache usage cost missing the miss")
	}
}
