package resilient

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

// Breaker is the Closed/Open/HalfOpen circuit state machine, driven by
// a logical clock its owner supplies (never wall time), so breaker
// behaviour is as reproducible as everything else in the repo. The
// serving cluster router feeds one per instance with crash detections
// and completions at engine time, and reads the state inside its
// routing score; the Client middleware drives one at its accumulated
// charged latency and counts its own fast-fails.
//
// It is NOT safe for concurrent use: discrete-event simulations are
// single-threaded by construction, and the Client holds its breaker
// under its own mutex.
type Breaker struct {
	policy      BreakerPolicy
	state       BreakerState
	consecFails int
	openedAtMS  float64
	stats       BreakerStats
}

// NewBreaker returns a closed breaker with p's defaults applied.
func NewBreaker(p BreakerPolicy) *Breaker {
	return &Breaker{policy: p.withDefaults()}
}

// StateAt reports the circuit position at absolute time nowMS, applying
// the Open→HalfOpen transition once the cooldown has elapsed.
func (b *Breaker) StateAt(nowMS float64) BreakerState {
	if b.state == BreakerOpen && nowMS-b.openedAtMS >= b.policy.CooldownMS {
		b.state = BreakerHalfOpen
		b.stats.HalfOpens++
	}
	return b.state
}

// OnSuccess records a successful call at nowMS: it resets the failure
// streak and, half-open, closes the circuit.
func (b *Breaker) OnSuccess(nowMS float64) {
	b.StateAt(nowMS)
	b.consecFails = 0
	if b.state == BreakerHalfOpen {
		b.state = BreakerClosed
		b.stats.Closed++
	}
}

// OnFailure records a failed call at nowMS. Half-open it reopens the
// circuit; closed it opens after FailureThreshold consecutive failures;
// open it extends the cooldown window from nowMS.
func (b *Breaker) OnFailure(nowMS float64) {
	b.StateAt(nowMS)
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAtMS = nowMS
		b.stats.Opened++
	case BreakerClosed:
		b.consecFails++
		if b.consecFails >= b.policy.FailureThreshold {
			b.state = BreakerOpen
			b.openedAtMS = nowMS
			b.stats.Opened++
		}
	default: // open: a further failure restarts the cooldown
		b.openedAtMS = nowMS
	}
}
