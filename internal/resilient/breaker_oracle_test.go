package resilient

import (
	"math/rand"
	"sync"
	"testing"

	"dataai/internal/llm"
)

// The circuit breaker the Client carried before it drove the one
// Breaker, kept verbatim as the oracle for TestClientBreakerMatchesOracle.

// breaker is the circuit state machine. It runs on the simulated clock
// its owner advances (charged latency, never wall time), so breaker
// behaviour is as reproducible as everything else in the repo.
type breaker struct {
	policy BreakerPolicy

	mu          sync.Mutex
	state       BreakerState
	consecFails int
	openedAtMS  float64
	clockMS     float64
	stats       BreakerStats
}

func newBreaker(p BreakerPolicy) *breaker {
	return &breaker{policy: p.withDefaults()}
}

// advance moves the simulated clock forward by ms of charged latency.
func (b *breaker) advance(ms float64) {
	b.mu.Lock()
	b.clockMS += ms
	b.mu.Unlock()
}

// allow reports whether a call may proceed. A rejected call costs
// fastFailMS of simulated latency, which the caller charges; the charge
// is applied to the clock here so repeated rejections walk the clock
// toward cooldown expiry instead of freezing time.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.clockMS-b.openedAtMS >= b.policy.CooldownMS {
			b.state = BreakerHalfOpen
			b.stats.HalfOpens++
			return true
		}
		b.stats.FastFails++
		b.clockMS += fastFailMS
		return false
	default: // half-open: probes are admitted, outcomes decide the state
		return true
	}
}

// onSuccess records a successful primary-path call.
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails = 0
	if b.state == BreakerHalfOpen {
		b.state = BreakerClosed
		b.stats.Closed++
	}
}

// onFailure records a failed primary-path call (after its retries).
func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAtMS = b.clockMS
		b.stats.Opened++
	case BreakerClosed:
		b.consecFails++
		if b.consecFails >= b.policy.FailureThreshold {
			b.state = BreakerOpen
			b.openedAtMS = b.clockMS
			b.stats.Opened++
		}
	}
}

// snapshot returns the state and transition counts.
func (b *breaker) snapshot() (BreakerState, BreakerStats) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.stats
}

// TestClientBreakerMatchesOracle drives the pre-merge breaker and the
// Client's breaker path (admit, charge, settle) with the same seeded
// random serial sequences: a call is admitted, charged the latency of
// its attempts, and settled by one success or failure, with free
// charges between calls. After every step the two must agree on the
// admission verdict, the state, the clock and all four counters.
// Thresholds run 0–5 (0 takes the default) and cooldowns include 0 (the
// default), 1 and 50 ms, so fast-fails alone can walk the clock to the
// cooldown's end.
func TestClientBreakerMatchesOracle(t *testing.T) {
	charges := []float64{0, 1, 2, 5, 30, 60, 400}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pol := BreakerPolicy{
			FailureThreshold: rng.Intn(6),
			CooldownMS:       []float64{0, 1, 50}[rng.Intn(3)],
		}
		oracle := newBreaker(pol)
		c := Wrap(nil, Policy{Breaker: &pol})
		inCall := false
		for step := 0; step < 400; step++ {
			var op string
			switch r := rng.Float64(); {
			case !inCall && r < 0.7:
				op = "admit"
				want := oracle.allow()
				if got := c.admit(); got != want {
					t.Fatalf("seed %d step %d: admit = %v, oracle %v", seed, step, got, want)
				}
				inCall = want
			case !inCall || r < 0.5:
				op = "charge"
				ms := charges[rng.Intn(len(charges))]
				oracle.advance(ms)
				c.charge(ms)
			case r < 0.75:
				op = "success"
				oracle.onSuccess()
				c.settle(true)
				inCall = false
			default:
				op = "failure"
				oracle.onFailure()
				c.settle(false)
				inCall = false
			}
			wantState, wantStats := oracle.snapshot()
			if got := c.BreakerState(); got != wantState {
				t.Fatalf("seed %d step %d (%s): state %v, oracle %v", seed, step, op, got, wantState)
			}
			if c.breakerMS != oracle.clockMS {
				t.Fatalf("seed %d step %d (%s): clock %v ms, oracle %v ms", seed, step, op, c.breakerMS, oracle.clockMS)
			}
			if got := c.Stats().Breaker; got != wantStats {
				t.Fatalf("seed %d step %d (%s): stats %+v, oracle %+v", seed, step, op, got, wantStats)
			}
		}
	}
}

// flakyInner fails two prompts in three (by their first byte) and
// answers the rest. It keeps no state, so any number of goroutines may call it.
type flakyInner struct{}

func (flakyInner) Complete(req llm.Request) (llm.Response, error) {
	if req.Prompt[0]%3 != 0 {
		return llm.Response{LatencyMS: 4}, llm.ErrTransient
	}
	return llm.Response{Text: "ok", LatencyMS: 2}, nil
}

// TestClientBreakerConcurrentUse makes calls from several goroutines at
// once through one breaker-ful Client, for the race detector. Outcomes
// then depend on interleaving, so it checks only what holds under every
// interleaving: each call is counted once, each fast-fail is a call the
// inner client never saw, and the transition counts agree with the final
// state (the circuit has opened once more than it half-opened exactly
// when it is open).
func TestClientBreakerConcurrentUse(t *testing.T) {
	c := Wrap(flakyInner{}, Policy{MaxRetries: 1, Seed: 1,
		Breaker: &BreakerPolicy{FailureThreshold: 2, CooldownMS: 5}})
	const workers, calls = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				_, _ = c.Complete(llm.Request{Prompt: string(rune('a'+(w*calls+i)%26)) + "q"}) // failures are the point
				_ = c.BreakerState()
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	b := s.Breaker
	if s.Calls != workers*calls || s.Attempts < s.Calls-b.FastFails {
		t.Fatalf("stats %+v", s)
	}
	if b.Opened == 0 || b.Closed > b.HalfOpens {
		t.Fatalf("breaker stats %+v", b)
	}
	if open := c.BreakerState() == BreakerOpen; (b.Opened-b.HalfOpens == 1) != open || b.Opened-b.HalfOpens > 1 {
		t.Fatalf("breaker stats %+v with state %v", b, c.BreakerState())
	}
}
