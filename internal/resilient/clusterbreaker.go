package resilient

// Breaker is an exported standalone circuit breaker driven by an
// absolute logical clock, for callers that already own a timeline — the
// serving cluster router feeds one per instance with crash detections
// and completions, and reads the state inside its routing score. It is
// the same Closed/Open/HalfOpen machine the Client middleware uses
// internally, but timestamps come from the caller's clock instead of
// accumulated charged latency.
//
// Unlike the middleware's internal breaker it is NOT safe for concurrent
// use: discrete-event simulations are single-threaded by construction,
// and a mutex would only hide misuse.
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
