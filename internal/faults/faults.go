// Package faults provides a deterministic fault injector for the LLM
// call path. Every orchestrator this repository reproduces (RAG,
// semantic operators, extraction, agents) assumes the endpoint answers;
// real endpoints time out, rate-limit, truncate, garble, and flap. The
// Injector wraps any llm.Client and injects exactly those failures as a
// pure function of (prompt, seed, attempt#), so experiment E22 can
// measure pipeline reliability under faults without losing the repo's
// byte-identical-output determinism contract.
//
// Determinism by construction: the fault drawn for a call depends only
// on the prompt text, the injector seed, and how many times this
// injector has seen that prompt before (its per-prompt attempt number).
// It never depends on wall time, global call order, or goroutine
// scheduling — two injectors with the same seed given the same
// per-prompt call sequences inject identical faults, regardless of how
// calls from different prompts interleave.
//
// The injector is a plain llm.Client wrapper with no pipeline imports,
// so it composes under caches, cascades, and the resilient middleware
// in any order an experiment needs.
package faults

import (
	"fmt"
	"strings"
	"sync"

	"dataai/internal/llm"
	"dataai/internal/token"
)

// What an injected fault charges on the simulated clock.
const (
	// retryAfterMS is the hint an injected rate-limit error carries.
	retryAfterMS float64 = 40
	// timeoutMS is the latency an injected timeout charges.
	timeoutMS float64 = 250
)

// Plan sets the per-call fault probabilities. All rates are in [0,1]
// and are evaluated independently in a fixed precedence order per
// attempt: outage, then timeout, then rate limit, then transient, then
// (on an otherwise successful call) truncation and garbling.
type Plan struct {
	// TransientRate is the probability an attempt fails with
	// llm.ErrTransient before reaching the endpoint (connection reset:
	// nothing is charged).
	TransientRate float64
	// RateLimitRate is the probability an attempt is refused with a
	// llm.RateLimitError carrying retryAfterMS.
	RateLimitRate float64
	// TimeoutRate is the probability an attempt times out: the request
	// was sent, so its prompt tokens and timeoutMS of latency are
	// charged as waste, but no answer comes back.
	TimeoutRate float64
	// OutageRate is the probability a given prompt falls inside a
	// sustained outage window: its first OutageDepth attempts all fail
	// with llm.ErrTransient no matter what, modelling an endpoint that
	// is down for a stretch rather than flapping per call.
	OutageRate float64
	// OutageDepth is how many attempts an outage swallows (default 4
	// when zero and OutageRate > 0).
	OutageDepth int
	// TruncateRate is the probability a successful completion comes
	// back cut to half its tokens (a dropped stream).
	TruncateRate float64
	// GarbleRate is the probability a successful completion comes back
	// as deterministic garbage (a corrupted payload).
	GarbleRate float64
}

// Light returns a mild plan: occasional flaps, rare timeouts.
func Light() Plan {
	return Plan{TransientRate: 0.03, RateLimitRate: 0.02, TimeoutRate: 0.02, TruncateRate: 0.01, GarbleRate: 0.01}
}

// Medium returns a plan with noticeable failure pressure.
func Medium() Plan {
	return Plan{TransientRate: 0.08, RateLimitRate: 0.06, TimeoutRate: 0.06, OutageRate: 0.03, OutageDepth: 3, TruncateRate: 0.03, GarbleRate: 0.03}
}

// Severe returns a plan modelling a badly degraded endpoint, including
// outage windows deeper than a typical retry budget.
func Severe() Plan {
	return Plan{TransientRate: 0.15, RateLimitRate: 0.12, TimeoutRate: 0.12, OutageRate: 0.10, OutageDepth: 5, TruncateRate: 0.06, GarbleRate: 0.06}
}

// Stats counts what the injector did, for experiment waste reporting.
type Stats struct {
	// Calls is every Complete invocation observed.
	Calls int64
	// Transient, RateLimited, Timeouts, and OutageHits count injected
	// errors by kind (outage hits are reported separately from the
	// per-call transient draw they share an error type with).
	Transient   int64
	RateLimited int64
	Timeouts    int64
	OutageHits  int64
	// Truncated and Garbled count corrupted-but-delivered completions.
	Truncated int64
	Garbled   int64
	// WastedPromptTokens and WastedLatencyMS total the work charged to
	// calls that returned no answer (timeouts).
	WastedPromptTokens int64
	WastedLatencyMS    float64
}

// Injected reports the total number of injected errors.
func (s Stats) Injected() int64 {
	return s.Transient + s.RateLimited + s.Timeouts + s.OutageHits
}

// Injector wraps an inner llm.Client and injects Plan faults. Safe for
// concurrent use. Construct with New.
type Injector struct {
	inner llm.Client
	plan  Plan
	seed  uint64

	mu       sync.Mutex
	attempts map[uint64]int
	stats    Stats
}

// New returns an Injector over inner driven by plan and seed.
func New(inner llm.Client, plan Plan, seed uint64) *Injector {
	return &Injector{inner: inner, plan: plan, seed: seed, attempts: make(map[uint64]int)}
}

// Stats returns a snapshot of the injection counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// draw returns a deterministic uniform in [0,1) for (prompt, seed,
// attempt, salt) — the injector's only source of randomness. It is
// token.Uniform over the injector's historical key format, so existing
// experiment outputs are unchanged.
func (in *Injector) draw(prompt string, attempt int, salt string) float64 {
	return token.Uniform(fmt.Sprintf("%s\x00%d\x00%s", prompt, attempt, salt), in.seed)
}

// Complete implements llm.Client.
func (in *Injector) Complete(req llm.Request) (llm.Response, error) {
	key := token.Hash64Seed(req.Prompt, 0x5eed)
	in.mu.Lock()
	attempt := in.attempts[key]
	in.attempts[key] = attempt + 1
	in.stats.Calls++
	in.mu.Unlock()

	outageDepth := in.plan.OutageDepth
	if outageDepth <= 0 {
		outageDepth = 4
	}

	// Sustained outage: the outage draw is attempt-independent (the
	// window belongs to the prompt), and swallows the first
	// outageDepth attempts.
	if in.plan.OutageRate > 0 && attempt < outageDepth &&
		in.draw(req.Prompt, 0, "outage") < in.plan.OutageRate {
		in.count(func(s *Stats) { s.OutageHits++ })
		return llm.Response{}, fmt.Errorf("%w: endpoint outage (attempt %d)", llm.ErrTransient, attempt)
	}
	if in.draw(req.Prompt, attempt, "timeout") < in.plan.TimeoutRate {
		wasted := token.Count(req.Prompt)
		in.count(func(s *Stats) {
			s.Timeouts++
			s.WastedPromptTokens += int64(wasted)
			s.WastedLatencyMS += timeoutMS
		})
		// The request was sent: charge its prompt tokens and the full
		// deadline as latency even though no answer comes back.
		return llm.Response{PromptTokens: wasted, LatencyMS: timeoutMS},
			fmt.Errorf("%w after %.0fms (attempt %d)", llm.ErrTimeout, timeoutMS, attempt)
	}
	if in.draw(req.Prompt, attempt, "ratelimit") < in.plan.RateLimitRate {
		in.count(func(s *Stats) { s.RateLimited++ })
		return llm.Response{}, &llm.RateLimitError{RetryAfterMS: retryAfterMS}
	}
	if in.draw(req.Prompt, attempt, "transient") < in.plan.TransientRate {
		in.count(func(s *Stats) { s.Transient++ })
		return llm.Response{}, fmt.Errorf("%w: connection reset (attempt %d)", llm.ErrTransient, attempt)
	}

	resp, err := in.inner.Complete(req)
	if err != nil {
		return resp, err
	}
	if in.draw(req.Prompt, attempt, "truncate") < in.plan.TruncateRate {
		in.count(func(s *Stats) { s.Truncated++ })
		resp.Text = truncateHalf(resp.Text)
		resp.CompletionTokens = token.Count(resp.Text)
	}
	if in.draw(req.Prompt, attempt, "garble") < in.plan.GarbleRate {
		in.count(func(s *Stats) { s.Garbled++ })
		resp.Text = garble(resp.Text, in.seed)
	}
	return resp, nil
}

func (in *Injector) count(f func(*Stats)) {
	in.mu.Lock()
	f(&in.stats)
	in.mu.Unlock()
}

// truncateHalf cuts text to the first half of its tokens (at least one),
// simulating a dropped response stream.
func truncateHalf(text string) string {
	toks := token.Tokenize(text)
	if len(toks) <= 1 {
		return text
	}
	return token.Detokenize(toks[:(len(toks)+1)/2])
}

// garble replaces text with deterministic junk of similar length,
// simulating payload corruption the caller cannot parse.
func garble(text string, seed uint64) string {
	n := len(token.Tokenize(text))
	if n < 1 {
		n = 1
	}
	syll := []string{"zx", "qv", "kj", "wq", "xr", "vz", "jq", "gk"}
	h := token.Hash64Seed(text, seed^0x6a5b1e)
	parts := make([]string, n)
	for i := range parts {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		parts[i] = syll[h%uint64(len(syll))]
	}
	return strings.Join(parts, " ")
}
