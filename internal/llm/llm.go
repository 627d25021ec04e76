// Package llm provides the simulated large language model client that every
// LLM4Data technique in this repository orchestrates.
//
// The paper's techniques (§2.2) treat the LLM as a callable oracle with four
// problematic properties — imperfect accuracy, per-call cost, latency, and
// hallucination — and every surveyed system (RAG, semantic operators,
// Evaporate, SYMPHONY, ...) is a strategy for managing those properties.
// This package substitutes a deterministic simulator that exhibits exactly
// those properties:
//
//   - A knowledge base stands in for "what the model memorized during
//     pretraining". Questions about facts outside it are answered
//     "unknown" or, with Model.HallucinationRate probability, fabricated.
//   - Judgments, extractions, and grounded answers are wrong with
//     Model.ErrRate probability. Wrongness is a deterministic function of
//     (prompt, model, seed), so identical calls return identical results —
//     which is what makes response caching semantically sound.
//   - Every call is metered: prompt/completion tokens, simulated latency
//     from a prefill+decode cost model, and dollar cost. No wall-clock
//     time is consumed; latency is returned, not slept.
//
// Two model presets, SmallModel and LargeModel, differ in cost and error
// rate, enabling the model-cascade optimization that LOTUS/PALIMPZEST-style
// systems use (experiment E2).
package llm

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"dataai/internal/token"
)

// Errors returned by clients.
var (
	// ErrBadPrompt indicates a prompt the model cannot interpret.
	ErrBadPrompt = errors.New("llm: malformed prompt")
	// ErrContextOverflow indicates a prompt exceeding the context window.
	ErrContextOverflow = errors.New("llm: prompt exceeds context window")
)

// Model describes a simulated model tier.
type Model struct {
	// Name distinguishes tiers; it is mixed into the decision hash so
	// different models disagree on the margin.
	Name string
	// ErrRate is the probability a judgment/extraction/grounded answer
	// is wrong.
	ErrRate float64
	// HallucinationRate is the probability of fabricating an answer when
	// the truth is not available (vs. admitting "unknown").
	HallucinationRate float64
	// ContextWindow is the maximum prompt size in tokens.
	ContextWindow int
	// PromptCostPer1K / CompletionCostPer1K are dollar costs per 1000
	// tokens, mirroring API pricing structure.
	PromptCostPer1K     float64
	CompletionCostPer1K float64
	// PrefillTokensPerMS / DecodeTokensPerMS set the latency model:
	// latency = promptTokens/prefillRate + completionTokens/decodeRate.
	PrefillTokensPerMS float64
	DecodeTokensPerMS  float64
}

// LargeModel returns a preset mirroring a frontier API model: accurate and
// expensive.
func LargeModel() Model {
	return Model{
		Name:                "large",
		ErrRate:             0.02,
		HallucinationRate:   0.3,
		ContextWindow:       8192,
		PromptCostPer1K:     0.01,
		CompletionCostPer1K: 0.03,
		PrefillTokensPerMS:  20,
		DecodeTokensPerMS:   0.05,
	}
}

// SmallModel returns a preset mirroring a cheap proxy model: an order of
// magnitude cheaper and several times less accurate — the cascade's first
// tier.
func SmallModel() Model {
	return Model{
		Name:                "small",
		ErrRate:             0.15,
		HallucinationRate:   0.5,
		ContextWindow:       4096,
		PromptCostPer1K:     0.0005,
		CompletionCostPer1K: 0.0015,
		PrefillTokensPerMS:  80,
		DecodeTokensPerMS:   0.4,
	}
}

// Request is one completion call.
type Request struct {
	Prompt string
}

// Response is the result of a completion call.
type Response struct {
	Text string
	// Confidence in [0,1); correlates with correctness but noisily, as
	// real calibrated-confidence signals do. Cascades escalate on it.
	Confidence float64
	// PromptTokens and CompletionTokens are the metered sizes.
	PromptTokens     int
	CompletionTokens int
	// LatencyMS is the simulated latency of this call.
	LatencyMS float64
	// CostUSD is the simulated dollar cost of this call.
	CostUSD float64
	// Cached reports whether the response was served from a cache
	// without invoking the model.
	Cached bool
	// Degraded reports that a resilience policy produced this response
	// after the primary path failed — a fallback model answered, or the
	// failure was converted into an explicit refusal so the rest of the
	// batch could proceed. Callers use it to separate "the model said
	// unknown" from "the serving path gave up".
	Degraded bool
}

// Client is anything that can complete prompts: the simulator, a cache
// wrapper, or a cascade router.
type Client interface {
	Complete(req Request) (Response, error)
}

// Usage is a running tally of client consumption.
type Usage struct {
	Calls            int64
	PromptTokens     int64
	CompletionTokens int64
	CostUSD          float64
	LatencyMS        float64
}

// usageMeter is the shared accounting primitive. Calls from concurrent
// goroutines record in scheduling order, and float addition is not
// associative, so cost and latency are summed as integer counts of a
// fixed small unit and converted once per snapshot: the tally is the
// same in any recording order.
type usageMeter struct {
	mu                      sync.Mutex
	calls, prompt, complete int64
	costUnits, latencyUnits int64
}

// The meter's units: a pico-dollar and a nanosecond. An int64 holds
// $9.2M of cost or 107 simulated days of latency.
const (
	costUnitsPerUSD   = 1e12
	latencyUnitsPerMS = 1e6
)

func (m *usageMeter) record(r Response) {
	cost := int64(math.Round(r.CostUSD * costUnitsPerUSD))
	latency := int64(math.Round(r.LatencyMS * latencyUnitsPerMS))
	m.mu.Lock()
	m.calls++
	m.prompt += int64(r.PromptTokens)
	m.complete += int64(r.CompletionTokens)
	m.costUnits += cost
	m.latencyUnits += latency
	m.mu.Unlock()
}

func (m *usageMeter) snapshot() Usage {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Usage{
		Calls:            m.calls,
		PromptTokens:     m.prompt,
		CompletionTokens: m.complete,
		CostUSD:          float64(m.costUnits) / costUnitsPerUSD,
		LatencyMS:        float64(m.latencyUnits) / latencyUnitsPerMS,
	}
}

func (m *usageMeter) reset() {
	m.mu.Lock()
	m.calls, m.prompt, m.complete, m.costUnits, m.latencyUnits = 0, 0, 0, 0, 0
	m.mu.Unlock()
}

// price computes a call's dollar cost under model m.
func price(m Model, promptTokens, completionTokens int) float64 {
	return float64(promptTokens)/1000*m.PromptCostPer1K +
		float64(completionTokens)/1000*m.CompletionCostPer1K
}

// latency computes a call's simulated latency under model m.
func latency(m Model, promptTokens, completionTokens int) float64 {
	var l float64
	if m.PrefillTokensPerMS > 0 {
		l += float64(promptTokens) / m.PrefillTokensPerMS
	}
	if m.DecodeTokensPerMS > 0 {
		l += float64(completionTokens) / m.DecodeTokensPerMS
	}
	return l
}

// decision returns a deterministic uniform value in [0,1) for a
// (prompt, model, seed, salt) tuple. It drives every stochastic choice the
// simulator makes, so repeated identical calls agree.
func decision(prompt, modelName string, seed uint64, salt string) float64 {
	return token.Uniform(prompt+"\x00"+modelName+"\x00"+salt, seed)
}

// fabricate synthesizes a plausible-but-wrong value for hallucinations,
// deterministic per prompt.
func fabricate(prompt string, seed uint64) string {
	syllables := []string{"an", "or", "el", "im", "os", "ur", "et", "ax", "on", "ir"}
	h := token.Hash64Seed(prompt, seed^0xfab)
	n := 2 + int(h%3)
	out := ""
	for i := 0; i < n; i++ {
		out += syllables[(h>>uint(8*i))%uint64(len(syllables))]
	}
	return out
}

func fmtErrBadPrompt(detail string) error {
	return fmt.Errorf("%w: %s", ErrBadPrompt, detail)
}
