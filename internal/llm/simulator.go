package llm

import (
	"fmt"
	"strings"
	"sync"

	"dataai/internal/corpus"
	"dataai/internal/token"
)

// Simulator is the deterministic LLM stand-in. It is safe for concurrent
// use. Construct with NewSimulator.
type Simulator struct {
	model Model
	seed  uint64

	mu sync.RWMutex
	// kb maps "subject|relation" (lower-cased) to the object: the facts
	// this model "memorized during pretraining".
	kb map[string]string
	// byRelObj maps "relation|object" to the subject, for bridge queries.
	byRelObj map[string]string
	// labelLexicon maps classification labels to their keyword lists.
	labelLexicon map[string][]string

	meter usageMeter
}

// NewSimulator returns a Simulator for the given model tier. seed
// determines every stochastic behaviour.
func NewSimulator(model Model, seed uint64) *Simulator {
	return &Simulator{
		model:        model,
		seed:         seed,
		kb:           make(map[string]string),
		byRelObj:     make(map[string]string),
		labelLexicon: make(map[string][]string),
	}
}

// Model returns the simulator's model description.
func (s *Simulator) Model() Model { return s.model }

// AddKnowledge loads facts into the model's "pretraining memory". RAG
// experiments load only a subset, leaving the rest answerable solely via
// retrieval.
func (s *Simulator) AddKnowledge(facts []corpus.Fact) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range facts {
		s.kb[kbKey(f.Subject, f.Relation)] = f.Object
		s.byRelObj[strings.ToLower(f.Relation)+"|"+strings.ToLower(f.Object)] = f.Subject
	}
}

// RegisterLabel teaches the simulator the keyword lexicon of a
// classification label (its "world knowledge" about that class).
func (s *Simulator) RegisterLabel(label string, keywords []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.labelLexicon[label] = append([]string(nil), keywords...)
}

// Usage returns the accumulated consumption tally.
func (s *Simulator) Usage() Usage { return s.meter.snapshot() }

// ResetUsage zeroes the tally.
func (s *Simulator) ResetUsage() { s.meter.reset() }

func kbKey(subject, relation string) string {
	return strings.ToLower(subject) + "|" + strings.ToLower(relation)
}

// Complete implements Client.
func (s *Simulator) Complete(req Request) (Response, error) {
	promptTokens := token.Count(req.Prompt)
	if promptTokens > s.model.ContextWindow {
		return Response{}, fmt.Errorf("%w: %d > %d tokens", ErrContextOverflow, promptTokens, s.model.ContextWindow)
	}
	p, err := parsePrompt(req.Prompt)
	if err != nil {
		return Response{}, err
	}

	var text string
	var conf float64
	switch p.task {
	case taskAnswer:
		text, conf = s.answer(req.Prompt, p)
	case taskBridge:
		text, conf = s.bridge(req.Prompt, p)
	case taskJudge:
		text, conf = s.judge(req.Prompt, p)
	case taskExtract:
		text, conf = s.extract(req.Prompt, p)
	case taskClassify:
		text, conf = s.classify(req.Prompt, p)
	case taskGenerate:
		text, conf = s.generate(p)
	}
	completion := token.Count(text)
	resp := Response{
		Text:             text,
		Confidence:       conf,
		PromptTokens:     promptTokens,
		CompletionTokens: completion,
		LatencyMS:        latency(s.model, promptTokens, completion),
		CostUSD:          price(s.model, promptTokens, completion),
	}
	s.meter.record(resp)
	return resp, nil
}

// confidence mixes the correctness draw with an independent draw so that
// confidence correlates with correctness without revealing it exactly.
func (s *Simulator) confidence(prompt string, uErr float64) float64 {
	uConf := decision(prompt, s.model.Name, s.seed, "conf")
	c := 0.6*uErr + 0.4*uConf
	if c > 0.999 {
		c = 0.999
	}
	return c
}

// answer resolves a QA prompt: grounded context first, then the knowledge
// base, then hallucination or honest refusal.
func (s *Simulator) answer(prompt string, p parsedPrompt) (string, float64) {
	uErr := decision(prompt, s.model.Name, s.seed, "err")
	wrong := uErr < s.model.ErrRate

	truth, found := s.resolve(p.question, p.context)
	if found {
		if wrong {
			return fabricate(prompt, s.seed), s.confidence(prompt, uErr)
		}
		return truth, s.confidence(prompt, uErr)
	}
	// Not answerable from context or memory: hallucinate or refuse.
	if decision(prompt, s.model.Name, s.seed, "hallucinate") < s.model.HallucinationRate {
		return fabricate(prompt, s.seed), s.confidence(prompt, 0.5)
	}
	return Unknown, 0.1 * decision(prompt, s.model.Name, s.seed, "unkconf")
}

// resolve finds the true answer to a question from context passages first
// and the knowledge base second.
func (s *Simulator) resolve(question string, context []string) (string, bool) {
	if m := twoHopRe.FindStringSubmatch(question); m != nil {
		r2, r1, x := strings.ToLower(m[1]), strings.ToLower(m[2]), strings.ToLower(m[3])
		// From context: find subject with (r1 = x), then its r2.
		var subj string
		for _, c := range context {
			for _, f := range factsIn(c) {
				if strings.ToLower(f[0]) == r1 && strings.ToLower(f[2]) == x {
					subj = f[1]
				}
			}
		}
		if subj == "" {
			s.mu.RLock()
			subj = s.byRelObj[r1+"|"+x]
			s.mu.RUnlock()
		}
		if subj == "" {
			return "", false
		}
		for _, c := range context {
			for _, f := range factsIn(c) {
				if strings.EqualFold(f[1], subj) && strings.ToLower(f[0]) == r2 {
					return f[2], true
				}
			}
		}
		s.mu.RLock()
		obj, ok := s.kb[kbKey(subj, r2)]
		s.mu.RUnlock()
		return obj, ok
	}
	if m := oneHopRe.FindStringSubmatch(question); m != nil {
		rel, subj := m[1], m[2]
		for _, c := range context {
			for _, f := range factsIn(c) {
				if strings.EqualFold(f[0], rel) && strings.EqualFold(f[1], subj) {
					return f[2], true
				}
			}
		}
		s.mu.RLock()
		obj, ok := s.kb[kbKey(subj, rel)]
		s.mu.RUnlock()
		return obj, ok
	}
	return "", false
}

// bridge names the intermediate entity of a two-hop question.
func (s *Simulator) bridge(prompt string, p parsedPrompt) (string, float64) {
	m := twoHopRe.FindStringSubmatch(p.question)
	if m == nil {
		return Unknown, 0.05
	}
	r1, x := strings.ToLower(m[2]), strings.ToLower(m[3])
	uErr := decision(prompt, s.model.Name, s.seed, "err")
	if uErr < s.model.ErrRate {
		return fabricate(prompt, s.seed), s.confidence(prompt, uErr)
	}
	for _, c := range p.context {
		for _, f := range factsIn(c) {
			if strings.ToLower(f[0]) == r1 && strings.ToLower(f[2]) == x {
				return f[1], s.confidence(prompt, uErr)
			}
		}
	}
	s.mu.RLock()
	subj, ok := s.byRelObj[r1+"|"+x]
	s.mu.RUnlock()
	if !ok {
		return Unknown, 0.1
	}
	return subj, s.confidence(prompt, uErr)
}

// judge evaluates a "contains:<term>" criterion against the text, with the
// model's error rate flipping the verdict.
func (s *Simulator) judge(prompt string, p parsedPrompt) (string, float64) {
	uErr := decision(prompt, s.model.Name, s.seed, "err")
	truth := false
	if strings.HasPrefix(p.criterion, containsPre) {
		term := strings.TrimSpace(strings.TrimPrefix(p.criterion, containsPre))
		truth = containsTokens(p.text, term)
	}
	ans := truth
	if uErr < s.model.ErrRate {
		ans = !ans
	}
	if ans {
		return "yes", s.confidence(prompt, uErr)
	}
	return "no", s.confidence(prompt, uErr)
}

// containsTokens reports whether term's token sequence occurs in text.
func containsTokens(text, term string) bool {
	tt := token.Tokenize(text)
	qt := token.Tokenize(term)
	if len(qt) == 0 {
		return false
	}
outer:
	for i := 0; i+len(qt) <= len(tt); i++ {
		for j := range qt {
			if tt[i+j] != qt[j] {
				continue outer
			}
		}
		return true
	}
	return false
}

// extract pulls an attribute value from text, handling the three record
// formats the corpus generator emits plus fact sentences.
func (s *Simulator) extract(prompt string, p parsedPrompt) (string, float64) {
	uErr := decision(prompt, s.model.Name, s.seed, "err")
	val := extractValue(p.text, p.attribute)
	if val == "" {
		if decision(prompt, s.model.Name, s.seed, "hallucinate") < s.model.HallucinationRate {
			return fabricate(prompt, s.seed), s.confidence(prompt, 0.5)
		}
		return Unknown, 0.1
	}
	if uErr < s.model.ErrRate {
		return fabricate(prompt, s.seed), s.confidence(prompt, uErr)
	}
	return val, s.confidence(prompt, uErr)
}

// extractValue is the ground-truth extraction the simulator "knows how" to
// do: colon, equals, and prose conventions.
func extractValue(text, attr string) string {
	lower := strings.ToLower(text)
	attr = strings.ToLower(attr)
	for _, pat := range []string{attr + ": ", attr + " = ", "the " + attr + " is "} {
		idx := strings.Index(lower, pat)
		if idx < 0 {
			continue
		}
		rest := text[idx+len(pat):]
		end := strings.IndexAny(rest, ".\n")
		if end < 0 {
			end = len(rest)
		}
		v := strings.TrimSpace(rest[:end])
		if v != "" {
			return v
		}
	}
	return ""
}

// classify picks the label whose registered lexicon overlaps the text
// most, with the model's error rate substituting a wrong label.
//
// In-context learning: each demonstration example multiplies the
// effective error rate by a factor below one — 0.7 for a demonstration
// sharing distinctive vocabulary with the text, 0.95 for an unrelated
// one (capped at 6 demonstrations). This is the mechanism that makes
// demonstration selection (§2.2.1) measurable: similar demonstrations
// buy more accuracy per prompt token.
func (s *Simulator) classify(prompt string, p parsedPrompt) (string, float64) {
	uErr := decision(prompt, s.model.Name, s.seed, "err")
	errRate := s.model.ErrRate
	textToks := token.Frequencies(token.Tokenize(p.text))
	for i, ex := range p.examples {
		if i >= 6 {
			break
		}
		overlap := 0
		seen := map[string]bool{}
		for _, tok := range token.Tokenize(ex.Input) {
			if textToks[tok] > 0 && len(tok) > 3 && !seen[tok] {
				overlap++
				seen[tok] = true
			}
		}
		// A demonstration needs substantial shared vocabulary to teach
		// the task; generic words shared by any same-corpus document do
		// not count for much.
		if overlap >= 5 {
			errRate *= 0.7
		} else {
			errRate *= 0.95
		}
	}
	toks := token.Frequencies(token.Tokenize(p.text))
	best, bestScore := "", -1
	s.mu.RLock()
	for _, label := range p.labels {
		score := 0
		for _, kw := range s.labelLexicon[label] {
			score += toks[strings.ToLower(kw)]
		}
		if score > bestScore {
			best, bestScore = label, score
		}
	}
	s.mu.RUnlock()
	if uErr < errRate && len(p.labels) > 1 {
		// Substitute a deterministic wrong label.
		h := token.Hash64Seed(prompt, s.seed^0xbad)
		pick := p.labels[int(h%uint64(len(p.labels)))]
		if pick == best {
			pick = p.labels[(int(h%uint64(len(p.labels)))+1)%len(p.labels)]
		}
		best = pick
	}
	return best, s.confidence(prompt, uErr)
}

// generateTokens is the length of every generated continuation.
const generateTokens = 32

// generate emits deterministic filler continuation text.
func (s *Simulator) generate(p parsedPrompt) (string, float64) {
	words := []string{"data", "model", "system", "query", "cache", "index", "token", "plan", "store", "train"}
	h := token.Hash64Seed(p.free, s.seed^0x9e37)
	parts := make([]string, generateTokens)
	for i := range parts {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		parts[i] = words[h%uint64(len(words))]
	}
	return strings.Join(parts, " "), 0.5
}
