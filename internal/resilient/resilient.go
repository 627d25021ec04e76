// Package resilient provides middleware over llm.Client that keeps
// pipelines working when the endpoint does not: retry with capped
// exponential backoff and seeded deterministic jitter, retry-after-aware
// rate-limit handling, a circuit breaker with half-open probes, optional
// hedged requests, and graceful degradation (fallback model, explicit
// Degraded refusals instead of failing a whole batch).
//
// Two invariants distinguish this from a production retry library:
//
//   - No wall-clock time is ever consumed. Backoff, retry-after waits,
//     hedge offsets, and breaker cooldowns all run on a simulated clock:
//     the wait is *charged* to the returned Response.LatencyMS (and to
//     the breaker's clock), never slept. Experiments measure the latency
//     a real deployment would pay without paying it themselves.
//
//   - Every stochastic choice (jitter) derives from a seeded hash of
//     (prompt, attempt, seed) — never math/rand's global state — so a
//     run is a pure function of its inputs, matching the repo's
//     byte-identical determinism contract.
//
// Everything the middleware spends is metered: attempts, retries,
// wasted tokens/cost/latency from failed attempts, hedges, fallback and
// refusal degradations, and breaker transitions, all visible through
// Stats() so experiment E22 can report waste alongside success rate.
//
// The breaker and the stats are shared mutable state. With a
// deterministic inner client the *responses* stay a pure function of
// each prompt, but breaker fast-fail decisions depend on the order
// concurrent calls observe the shared state; callers that need
// bit-identical parallel-vs-serial behaviour (semop's Workers path)
// should use breakerless policies or serial execution, as E22 does.
package resilient

import (
	"errors"
	"fmt"
	"sync"

	"dataai/internal/llm"
	"dataai/internal/obs"
	"dataai/internal/token"
)

// ErrCircuitOpen is returned (wrapped) when the circuit breaker rejects
// a call without consulting the inner client. It is deliberately not
// retryable: the point of the breaker is to stop retrying a dead
// endpoint; degradation policies still apply.
var ErrCircuitOpen = errors.New("resilient: circuit open")

// Policy configures the middleware. The zero value retries nothing and
// degrades nothing — Wrap with a zero Policy is a transparent pass-through.
type Policy struct {
	// MaxRetries is how many times a retryable failure is retried
	// after the first attempt (retryWait prices the wait before each).
	MaxRetries int
	// Seed drives the jitter hash.
	Seed uint64
	// HedgeAfterMS, when positive, models a hedged request racing the
	// primary from that offset: a timed-out attempt charges only
	// HedgeAfterMS of serial latency (the hedge overlapped the
	// timeout's tail) and retries immediately without backoff. The race
	// is not free: a primary that succeeds *after* the offset has
	// already triggered its hedge, and the cancelled duplicate's prompt
	// spend is charged as waste (Stats.HedgesLost/HedgeWastedTokens) —
	// lower offsets buy shorter tails with more duplicate work. The
	// duplicate is modelled analytically rather than issued to the inner
	// client, so fault draws and attempt counts are unperturbed.
	HedgeAfterMS float64
	// Breaker, when non-nil, trips after consecutive failures and
	// fast-fails calls until cooldown expires on the simulated clock.
	Breaker *BreakerPolicy
	// Fallback, when non-nil, answers calls whose primary path
	// exhausted its retries (graceful degradation to a cheaper or
	// healthier model). Fallback responses are marked Degraded.
	Fallback llm.Client
	// DegradeToRefusal converts a still-failing call into an explicit
	// Degraded refusal (llm.Unknown) instead of an error, so one bad
	// call cannot abort a whole batch.
	DegradeToRefusal bool
}

// RetryOnly returns a policy with retry/backoff only — the middle arm
// of E22.
func RetryOnly(maxRetries int, seed uint64) Policy {
	return Policy{MaxRetries: maxRetries, Seed: seed}
}

// Full returns the complete resilient stack: retries, hedging, breaker,
// fallback, and refusal degradation.
func Full(maxRetries int, seed uint64, fallback llm.Client) Policy {
	return Policy{
		MaxRetries:       maxRetries,
		Seed:             seed,
		HedgeAfterMS:     300,
		Breaker:          &BreakerPolicy{},
		Fallback:         fallback,
		DegradeToRefusal: true,
	}
}

// The retry backoff: the first retry waits baseBackoffMS, each further
// one doubles it up to maxBackoffMS, and jitterFrac of every wait is
// randomized by the seeded jitter hash.
const (
	baseBackoffMS = 50
	maxBackoffMS  = 2000
	jitterFrac    = 0.5
)

// Stats is the middleware's consumption and decision tally.
type Stats struct {
	// Calls counts Complete invocations; Attempts counts inner-client
	// invocations (Attempts - Calls = retries + hedge re-issues).
	Calls    int64
	Attempts int64
	Retries  int64
	// RateLimitWaits counts retry-after hints honored; BackoffMS is
	// the total simulated wait charged (backoff + retry-after).
	RateLimitWaits int64
	BackoffMS      float64
	// Hedges counts timed-out attempts absorbed by the hedged request
	// (the hedge won the race). HedgesLost counts hedges that fired but
	// were cancelled when the primary succeeded first;
	// HedgeWastedTokens totals the duplicate prompt tokens those
	// cancelled hedges consumed (also folded into Wasted*).
	Hedges            int64
	HedgesLost        int64
	HedgeWastedTokens int64
	// Wasted* total what failed attempts consumed before the call
	// finally succeeded, degraded, or gave up.
	WastedPromptTokens     int64
	WastedCompletionTokens int64
	WastedCostUSD          float64
	WastedLatencyMS        float64
	// FallbackCalls and DegradedRefusals count the degradation paths.
	FallbackCalls    int64
	DegradedRefusals int64
	// Breaker reports the circuit's transition counts (zero without a
	// breaker policy).
	Breaker BreakerStats
	// Failures counts calls that still returned an error after every
	// policy was applied.
	Failures int64
}

// Client is the resilience middleware. Construct with Wrap; safe for
// concurrent use.
type Client struct {
	inner  llm.Client
	policy Policy

	// trace/clockMS are the observability seam (see trace.go): clockMS
	// is the accumulated simulated latency of traced calls, the call
	// path's logical clock.
	trace *obs.Tracer

	mu      sync.Mutex
	stats   Stats
	clockMS float64
	// breaker, when the policy has one, runs on breakerMS: the latency
	// charged by the client's attempts and fast-fails. mu guards both.
	breaker   *Breaker
	breakerMS float64
}

// Wrap builds a resilient Client over inner with the given policy.
func Wrap(inner llm.Client, policy Policy) *Client {
	c := &Client{inner: inner, policy: policy}
	if policy.Breaker != nil {
		c.breaker = NewBreaker(*policy.Breaker)
	}
	return c
}

// Stats returns a snapshot of the middleware tally.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	if c.breaker != nil {
		s.Breaker = c.breaker.stats
	}
	return s
}

// BreakerState reports the circuit's current position (BreakerClosed
// when no breaker is configured).
func (c *Client) BreakerState() BreakerState {
	if c.breaker == nil {
		return BreakerClosed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breaker.state
}

// admit reports whether the breaker lets a call through. A rejected
// call costs fastFailMS of simulated latency, which the caller charges;
// the charge is applied to the breaker clock here so repeated
// rejections walk the clock toward cooldown expiry instead of freezing
// time. The client counts its fast-fails in the breaker's stats.
func (c *Client) admit() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.breaker.StateAt(c.breakerMS) != BreakerOpen {
		return true
	}
	c.breaker.stats.FastFails++
	c.breakerMS += fastFailMS
	return false
}

// charge advances the breaker clock by ms of charged latency.
func (c *Client) charge(ms float64) {
	c.mu.Lock()
	c.breakerMS += ms
	c.mu.Unlock()
}

// settle records an admitted call's primary-path outcome (after its
// retries) at the breaker clock.
func (c *Client) settle(ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		c.breaker.OnSuccess(c.breakerMS)
	} else {
		c.breaker.OnFailure(c.breakerMS)
	}
}

// backoffFor computes the simulated wait before retry `attempt`
// (1-based): capped exponential with seeded equal-jitter.
func backoffFor(key string, attempt int, seed uint64) float64 {
	b := float64(baseBackoffMS)
	for i := 1; i < attempt; i++ {
		b *= 2
		if b >= maxBackoffMS {
			b = maxBackoffMS
			break
		}
	}
	jitter := token.Uniform(fmt.Sprintf("%s\x00backoff\x00%d", key, attempt), seed)
	return b*(1-jitterFrac) + b*jitterFrac*jitter
}

// Complete implements llm.Client.
func (c *Client) Complete(req llm.Request) (llm.Response, error) {
	c.count(func(s *Stats) { s.Calls++ })
	ct := c.traceCall()

	// waste accumulates what the failed attempts consumed; a final
	// success (or degraded answer) carries it so callers metering the
	// returned response see the true cost of the call, mirroring how
	// llm.Cascade charges the cheap tier's spend to the escalated
	// response.
	var waste llm.Response
	var lastErr error

	if c.breaker != nil {
		if !c.admit() {
			waste.LatencyMS += fastFailMS
			ct.child("breaker-fastfail", fastFailMS)
			ct.bump("resilient/fastfails")
			lastErr = fmt.Errorf("%w (cooldown pending)", ErrCircuitOpen)
			return c.degrade(req, waste, lastErr, ct)
		}
	}

	maxAttempts := 1 + c.policy.MaxRetries
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			wait, hedged := c.retryWait(req.Prompt, attempt, lastErr)
			waste.LatencyMS += wait
			ct.child("backoff", wait)
			ct.bump("resilient/retries")
			if hedged {
				ct.bump("resilient/hedges")
			}
			c.count(func(s *Stats) {
				s.Retries++
				s.BackoffMS += wait
				if hedged {
					s.Hedges++
				}
			})
		}
		c.count(func(s *Stats) { s.Attempts++ })
		resp, err := c.inner.Complete(req)
		ct.child("attempt", resp.LatencyMS)
		if c.breaker != nil {
			c.charge(resp.LatencyMS)
		}
		if err == nil {
			if c.breaker != nil {
				c.settle(true)
			}
			// A success slower than the hedge offset already triggered
			// its hedge; the cancelled duplicate's prefill is waste. No
			// serial latency is charged — the race overlapped the
			// primary — and the cancelled request never emitted output,
			// so it costs the prompt tokens and the prompt's share of
			// the call price.
			if c.policy.HedgeAfterMS > 0 && resp.LatencyMS > c.policy.HedgeAfterMS {
				dup := llm.Response{PromptTokens: resp.PromptTokens}
				if tot := resp.PromptTokens + resp.CompletionTokens; tot > 0 {
					dup.CostUSD = resp.CostUSD * float64(resp.PromptTokens) / float64(tot)
				}
				ct.bump("resilient/hedges_lost")
				c.count(func(s *Stats) {
					s.HedgesLost++
					s.HedgeWastedTokens += int64(dup.PromptTokens)
				})
				waste = merge(waste, dup)
			}
			c.chargeWaste(waste)
			c.traceDone(ct, "ok")
			return merge(resp, waste), nil
		}
		// The failed attempt's charged work (a timeout's prompt tokens
		// and deadline latency) is waste the final answer must carry.
		waste = merge(waste, resp)
		lastErr = err
		if !llm.IsRetryable(err) {
			break
		}
	}
	if c.breaker != nil {
		c.settle(false)
	}
	return c.degrade(req, waste, lastErr, ct)
}

// retryWait computes the simulated wait charged before a retry, and
// whether the hedging model absorbed it. Precedence: a timed-out
// attempt under hedging charges only the hedge offset (the hedge was
// already racing when the timeout fired); a rate-limit with a
// retry-after hint charges the hint; everything else charges the
// jittered exponential backoff.
func (c *Client) retryWait(prompt string, attempt int, lastErr error) (waitMS float64, hedged bool) {
	if c.policy.HedgeAfterMS > 0 && errors.Is(lastErr, llm.ErrTimeout) {
		return c.policy.HedgeAfterMS, true
	}
	if ms, ok := llm.RetryAfter(lastErr); ok {
		c.count(func(s *Stats) { s.RateLimitWaits++ })
		return ms, false
	}
	return backoffFor(prompt, attempt, c.policy.Seed), false
}

// degrade applies the degradation ladder once the primary path has
// failed: fallback client, then explicit refusal, then the error.
func (c *Client) degrade(req llm.Request, waste llm.Response, lastErr error, ct *callTrace) (llm.Response, error) {
	if c.policy.Fallback != nil {
		resp, err := c.policy.Fallback.Complete(req)
		ct.child("fallback", resp.LatencyMS)
		if err == nil {
			resp.Degraded = true
			ct.bump("resilient/fallbacks")
			c.count(func(s *Stats) { s.FallbackCalls++ })
			c.chargeWaste(waste)
			c.traceDone(ct, "fallback")
			return merge(resp, waste), nil
		}
		waste = merge(waste, resp)
		lastErr = err
	}
	if c.policy.DegradeToRefusal {
		ct.bump("resilient/refusals")
		c.count(func(s *Stats) { s.DegradedRefusals++ })
		c.chargeWaste(waste)
		c.traceDone(ct, "refusal")
		out := waste
		out.Text = llm.Unknown
		out.Confidence = 0
		out.Degraded = true
		return out, nil
	}
	c.count(func(s *Stats) { s.Failures++ })
	c.chargeWaste(waste)
	c.traceDone(ct, "error")
	// Return the accumulated charged work alongside the error so
	// callers that meter error responses still see the waste.
	return waste, fmt.Errorf("resilient: %w", lastErr)
}

// chargeWaste folds the accumulated failed-attempt spend into Stats.
func (c *Client) chargeWaste(w llm.Response) {
	if w.PromptTokens == 0 && w.CompletionTokens == 0 && w.CostUSD == 0 && w.LatencyMS == 0 {
		return
	}
	c.count(func(s *Stats) {
		s.WastedPromptTokens += int64(w.PromptTokens)
		s.WastedCompletionTokens += int64(w.CompletionTokens)
		s.WastedCostUSD += w.CostUSD
		s.WastedLatencyMS += w.LatencyMS
	})
}

// merge adds b's metered spend to a, keeping a's answer fields.
func merge(a, b llm.Response) llm.Response {
	a.PromptTokens += b.PromptTokens
	a.CompletionTokens += b.CompletionTokens
	a.CostUSD += b.CostUSD
	a.LatencyMS += b.LatencyMS
	return a
}

func (c *Client) count(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// Retrier applies the same bounded-retry discipline to arbitrary step
// functions — the agent's tool-invocation loop uses it in place of its
// former ad-hoc loop. Retries are immediate: a step charges no backoff.
type Retrier struct {
	// MaxRetries is how many times fn is re-run after its first
	// failure.
	MaxRetries int
}

// Do runs fn(attempt) until it returns nil or the retry budget is
// exhausted. It reports the number of retries performed and fn's final
// error (nil on success).
func (r Retrier) Do(fn func(attempt int) error) (retries int, err error) {
	for attempt := 0; ; attempt++ {
		err = fn(attempt)
		if err == nil || attempt >= r.MaxRetries {
			return attempt, err
		}
	}
}
