package resilient

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dataai/internal/llm"
)

// scriptClient fails according to a per-prompt script of errors, then
// succeeds, counting attempts.
type scriptClient struct {
	// failures maps prompt -> errors to return before succeeding.
	failures map[string][]error
	attempts map[string]int
	resp     llm.Response
}

func newScript(resp llm.Response) *scriptClient {
	return &scriptClient{failures: map[string][]error{}, attempts: map[string]int{}, resp: resp}
}

func (s *scriptClient) Complete(req llm.Request) (llm.Response, error) {
	n := s.attempts[req.Prompt]
	s.attempts[req.Prompt] = n + 1
	if fs := s.failures[req.Prompt]; n < len(fs) {
		// Timeouts charge simulated work, like the fault injector does.
		if errors.Is(fs[n], llm.ErrTimeout) {
			return llm.Response{PromptTokens: 5, LatencyMS: 250}, fs[n]
		}
		return llm.Response{}, fs[n]
	}
	r := s.resp
	return r, nil
}

var okResp = llm.Response{Text: "fine", CompletionTokens: 1, CostUSD: 0.01, LatencyMS: 10}

func TestRetryRecoversFromTransient(t *testing.T) {
	inner := newScript(okResp)
	inner.failures["q"] = []error{llm.ErrTransient, llm.ErrTransient}
	c := Wrap(inner, RetryOnly(3, 1))

	start := time.Now()
	r, err := c.Complete(llm.Request{Prompt: "q"})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if r.Text != "fine" {
		t.Fatalf("text = %q", r.Text)
	}
	// Two retries' backoff is charged to the response latency...
	if r.LatencyMS <= okResp.LatencyMS {
		t.Fatalf("latency = %v, want > %v (backoff charged)", r.LatencyMS, okResp.LatencyMS)
	}
	// ...but never slept: >100ms of simulated backoff must cost near
	// zero wall time.
	if elapsed > 2*time.Second {
		t.Fatalf("Complete took %v wall time; backoff must be simulated, not slept", elapsed)
	}
	s := c.Stats()
	if s.Attempts != 3 || s.Retries != 2 || s.BackoffMS <= 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRetryBackoffDeterministic(t *testing.T) {
	run := func() float64 {
		inner := newScript(okResp)
		inner.failures["q"] = []error{llm.ErrTransient, llm.ErrTransient, llm.ErrTransient}
		c := Wrap(inner, RetryOnly(3, 42))
		r, err := c.Complete(llm.Request{Prompt: "q"})
		if err != nil {
			t.Fatal(err)
		}
		return r.LatencyMS
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("backoff nondeterministic: %v vs %v", a, b)
	}
}

func TestRetryHonorsRetryAfterHint(t *testing.T) {
	inner := newScript(okResp)
	inner.failures["q"] = []error{&llm.RateLimitError{RetryAfterMS: 77}}
	c := Wrap(inner, RetryOnly(3, 1))
	r, err := c.Complete(llm.Request{Prompt: "q"})
	if err != nil {
		t.Fatal(err)
	}
	if want := okResp.LatencyMS + 77; r.LatencyMS != want {
		t.Fatalf("latency = %v, want %v (retry-after hint, not exponential backoff)", r.LatencyMS, want)
	}
	if s := c.Stats(); s.RateLimitWaits != 1 {
		t.Fatalf("RateLimitWaits = %d, want 1", s.RateLimitWaits)
	}
}

func TestNonRetryableFailsFast(t *testing.T) {
	inner := newScript(okResp)
	inner.failures["q"] = []error{llm.ErrBadPrompt, llm.ErrBadPrompt}
	c := Wrap(inner, RetryOnly(3, 1))
	_, err := c.Complete(llm.Request{Prompt: "q"})
	if !errors.Is(err, llm.ErrBadPrompt) {
		t.Fatalf("err = %v, want ErrBadPrompt", err)
	}
	if s := c.Stats(); s.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry of non-retryable)", s.Attempts)
	}
}

func TestRetriesExhaustedReturnsWaste(t *testing.T) {
	inner := newScript(okResp)
	inner.failures["q"] = []error{llm.ErrTimeout, llm.ErrTimeout, llm.ErrTimeout, llm.ErrTimeout}
	c := Wrap(inner, RetryOnly(3, 1))
	r, err := c.Complete(llm.Request{Prompt: "q"})
	if err == nil {
		t.Fatal("want error after exhausting retries")
	}
	if r.PromptTokens != 20 {
		t.Fatalf("wasted prompt tokens on error response = %d, want 20 (4 timeouts x 5)", r.PromptTokens)
	}
	s := c.Stats()
	if s.Failures != 1 || s.WastedPromptTokens != 20 || s.WastedLatencyMS < 4*250 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestHedgingAbsorbsTimeoutTail(t *testing.T) {
	inner := newScript(okResp)
	inner.failures["q"] = []error{llm.ErrTimeout}
	c := Wrap(inner, Policy{MaxRetries: 3, Seed: 1, HedgeAfterMS: 30})
	r, err := c.Complete(llm.Request{Prompt: "q"})
	if err != nil {
		t.Fatal(err)
	}
	// Timeout charged 250ms; the hedge charges its 30ms offset instead
	// of an exponential backoff wait.
	if want := 250 + 30 + okResp.LatencyMS; r.LatencyMS != want {
		t.Fatalf("latency = %v, want %v (timeout + hedge offset + success)", r.LatencyMS, want)
	}
	if s := c.Stats(); s.Hedges != 1 {
		t.Fatalf("Hedges = %d, want 1", s.Hedges)
	}
}

func TestBreakerOpensHalfOpensCloses(t *testing.T) {
	inner := newScript(okResp)
	pol := Policy{
		Breaker: &BreakerPolicy{FailureThreshold: 2, CooldownMS: fastFailMS},
	}
	c := Wrap(inner, pol)

	// Two consecutive failures trip the breaker.
	inner.failures["a"] = []error{llm.ErrTransient}
	inner.failures["b"] = []error{llm.ErrTransient}
	if _, err := c.Complete(llm.Request{Prompt: "a"}); err == nil {
		t.Fatal("want failure")
	}
	if _, err := c.Complete(llm.Request{Prompt: "b"}); err == nil {
		t.Fatal("want failure")
	}
	if st := c.BreakerState(); st != BreakerOpen {
		t.Fatalf("state = %v, want open", st)
	}

	// Open circuit fast-fails without touching the inner client, charges
	// fastFailMS, and the charge advances the simulated clock to the end
	// of the cooldown.
	r, err := c.Complete(llm.Request{Prompt: "c"})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if r.LatencyMS != fastFailMS {
		t.Fatalf("fast-fail charged %v ms, want %v", r.LatencyMS, fastFailMS)
	}
	if got := inner.attempts["c"]; got != 0 {
		t.Fatalf("inner saw %d attempts while open, want 0", got)
	}

	// Cooldown elapsed on the simulated clock: next call is the
	// half-open probe; its success closes the circuit.
	if _, err := c.Complete(llm.Request{Prompt: "d"}); err != nil {
		t.Fatal(err)
	}
	if st := c.BreakerState(); st != BreakerClosed {
		t.Fatalf("state = %v, want closed after successful probe", st)
	}
	s := c.Stats()
	if s.Breaker.Opened != 1 || s.Breaker.FastFails != 1 || s.Breaker.HalfOpens != 1 || s.Breaker.Closed != 1 {
		t.Fatalf("breaker stats = %+v", s.Breaker)
	}
}

func TestFallbackDegrades(t *testing.T) {
	inner := newScript(okResp)
	inner.failures["q"] = []error{llm.ErrTransient, llm.ErrTransient}
	fallback := newScript(llm.Response{Text: "from fallback", CostUSD: 0.001, LatencyMS: 3})
	c := Wrap(inner, Policy{MaxRetries: 1, Seed: 1, Fallback: fallback})
	r, err := c.Complete(llm.Request{Prompt: "q"})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded || r.Text != "from fallback" {
		t.Fatalf("want degraded fallback answer, got %+v", r)
	}
	if s := c.Stats(); s.FallbackCalls != 1 {
		t.Fatalf("FallbackCalls = %d, want 1", s.FallbackCalls)
	}
}

func TestDegradeToRefusal(t *testing.T) {
	inner := newScript(okResp)
	inner.failures["q"] = []error{llm.ErrTransient, llm.ErrTransient}
	c := Wrap(inner, Policy{MaxRetries: 1, Seed: 1, DegradeToRefusal: true})
	r, err := c.Complete(llm.Request{Prompt: "q"})
	if err != nil {
		t.Fatalf("refusal degradation must not error, got %v", err)
	}
	if !r.Degraded || !llm.IsUnknown(r.Text) || r.Confidence != 0 {
		t.Fatalf("want degraded refusal, got %+v", r)
	}
	if s := c.Stats(); s.DegradedRefusals != 1 {
		t.Fatalf("DegradedRefusals = %d, want 1", s.DegradedRefusals)
	}
}

func TestZeroPolicyTransparent(t *testing.T) {
	inner := newScript(okResp)
	c := Wrap(inner, Policy{})
	r, err := c.Complete(llm.Request{Prompt: "q"})
	if err != nil || r != okResp {
		t.Fatalf("zero policy must pass through: %v / %+v", err, r)
	}
	inner.failures["bad"] = []error{llm.ErrTransient}
	if _, err := c.Complete(llm.Request{Prompt: "bad"}); err == nil {
		t.Fatal("zero policy must not retry or degrade")
	}
	if s := c.Stats(); s.Attempts != 2 || s.Retries != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBackoffCappedAndJittered(t *testing.T) {
	// Backoff doubles from base and saturates at the cap; jitter keeps
	// every draw inside [b*(1-frac), b).
	const base, maxMS, frac = baseBackoffMS, maxBackoffMS, jitterFrac
	prev := 0.0
	for attempt := 1; attempt <= 8; attempt++ {
		b := backoffFor("k", attempt, 9)
		ceil := base * float64(int(1)<<uint(attempt-1))
		if ceil > maxMS {
			ceil = maxMS
		}
		if b < ceil*(1-frac) || b >= ceil {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, b, ceil*(1-frac), ceil)
		}
		if attempt >= 7 && prev != 0 {
			// Saturated region: bounded by the cap.
			if b >= maxMS {
				t.Fatalf("attempt %d: backoff %v not capped at %v", attempt, b, maxMS)
			}
		}
		prev = b
	}
}

func TestRetrierSemantics(t *testing.T) {
	// Success after k failures reports retries == k.
	fails := 2
	retries, err := Retrier{MaxRetries: 3}.Do(func(attempt int) error {
		if attempt < fails {
			return fmt.Errorf("attempt %d fails", attempt)
		}
		return nil
	})
	if err != nil || retries != 2 {
		t.Fatalf("got retries=%d err=%v, want 2/nil", retries, err)
	}

	// Exhaustion reports retries == MaxRetries and the final error.
	retries, err = Retrier{MaxRetries: 2}.Do(func(int) error { return fmt.Errorf("always") })
	if err == nil || retries != 2 {
		t.Fatalf("got retries=%d err=%v, want 2/non-nil", retries, err)
	}
}
