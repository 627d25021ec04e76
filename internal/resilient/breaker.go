package resilient

import "sync"

// fastFailMS is the latency charged to a call rejected by the open
// circuit — the cost of discovering the breaker state, which also
// advances the simulated clock toward cooldown expiry.
const fastFailMS = 1

// BreakerPolicy configures the circuit breaker. A half-open circuit
// closes again on its first successful probe.
type BreakerPolicy struct {
	// FailureThreshold is how many consecutive primary-path failures
	// open the circuit (default 5 when zero).
	FailureThreshold int
	// CooldownMS is how long, on the simulated clock, the circuit
	// stays open before admitting half-open probes (default 1000).
	CooldownMS float64
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.FailureThreshold <= 0 {
		p.FailureThreshold = 5
	}
	if p.CooldownMS <= 0 {
		p.CooldownMS = 1000
	}
	return p
}

// BreakerState names the circuit's position.
type BreakerState int

// The three classic circuit states.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String renders the state for tables and errors.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerStats counts state transitions and rejections.
type BreakerStats struct {
	Opened    int64
	HalfOpens int64
	Closed    int64
	FastFails int64
}

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
