package llm

import (
	"sync"

	"dataai/internal/obs"
	"dataai/internal/token"
)

// Cache wraps a Client with an exact-prompt response cache — the paper's
// §2.2.1 cost-efficiency principle ("this can be achieved through caching
// and reducing unnecessary model invocations"). A hit returns the stored
// response with zero marginal token cost and a fixed small lookup latency.
//
// Caching is sound here because the simulator is deterministic per prompt;
// for real LLMs the same design trades freshness for cost identically.
type Cache struct {
	inner Client

	mu     sync.Mutex
	m      map[uint64]Response
	flight map[uint64]*flightCall
	hits   int64
	misses int64

	// obsClockMS is the cache's logical clock when tracing: accumulated
	// simulated latency of the responses it served. obsHits/obsMisses
	// mirror the stats counters into a tracer's registry (nil = off).
	obsClockMS         float64
	obsHits, obsMisses *obs.Metric

	meter usageMeter
}

// flightCall is one in-progress inner call that concurrent identical
// misses wait on instead of re-issuing (single-flight deduplication).
type flightCall struct {
	done chan struct{}
	r    Response
	err  error
}

// CacheLookupLatencyMS is the simulated latency of serving a hit.
const CacheLookupLatencyMS = 0.01

// NewCache wraps inner with a response cache.
func NewCache(inner Client) *Cache {
	return &Cache{inner: inner, m: make(map[uint64]Response), flight: make(map[uint64]*flightCall)}
}

// SetObs mirrors the cache's hit/miss tallies into tr's metric registry
// as the cache/hits and cache/misses counters, timestamped on a logical
// clock of accumulated simulated latency. Call before issuing requests;
// a nil tracer (or never calling SetObs) leaves the cache untraced.
func (c *Cache) SetObs(tr *obs.Tracer) {
	reg := tr.Registry()
	c.mu.Lock()
	c.obsHits = reg.Counter("cache/hits")
	c.obsMisses = reg.Counter("cache/misses")
	c.mu.Unlock()
}

// Complete implements Client. Concurrent identical misses are
// deduplicated: the first caller (the leader) issues the inner call and
// every other caller waits for its result, so N racing misses cost one
// inner invocation instead of N. Waiters are accounted as hits — they
// were served without spending tokens, exactly like a lookup hit.
func (c *Cache) Complete(req Request) (Response, error) {
	key := token.Hash64Seed(req.Prompt, 1)
	c.mu.Lock()
	if r, ok := c.m[key]; ok {
		c.hits++
		c.obsHit(CacheLookupLatencyMS)
		c.mu.Unlock()
		return c.serveHit(r), nil
	}
	if f, ok := c.flight[key]; ok {
		c.mu.Unlock()
		<-f.done
		c.mu.Lock()
		if f.err != nil {
			// The shared call failed: the waiter observed a miss and
			// inherits the leader's error.
			c.misses++
			c.obsMiss(f.r.LatencyMS)
			c.mu.Unlock()
			return f.r, f.err
		}
		c.hits++
		c.obsHit(CacheLookupLatencyMS)
		c.mu.Unlock()
		return c.serveHit(f.r), nil
	}
	f := &flightCall{done: make(chan struct{})}
	c.flight[key] = f
	c.misses++
	c.mu.Unlock()

	f.r, f.err = c.inner.Complete(req)
	c.mu.Lock()
	delete(c.flight, key) // an errored flight must not poison later calls
	if f.err == nil {
		c.m[key] = f.r
	}
	c.obsMiss(f.r.LatencyMS) // the leader's miss, charged at call end
	c.mu.Unlock()
	close(f.done)
	if f.err != nil {
		return f.r, f.err
	}
	c.meter.record(f.r)
	return f.r, nil
}

// obsHit / obsMiss advance the observability clock by the latency the
// caller is charged and record the counter point. Both require c.mu and
// no-op when SetObs was never called.
func (c *Cache) obsHit(latencyMS float64) {
	if c.obsHits == nil {
		return
	}
	c.obsClockMS += latencyMS
	c.obsHits.Add(c.obsClockMS, 1)
}

func (c *Cache) obsMiss(latencyMS float64) {
	if c.obsMisses == nil {
		return
	}
	c.obsClockMS += latencyMS
	c.obsMisses.Add(c.obsClockMS, 1)
}

// serveHit marks and meters a response served without an inner call.
func (c *Cache) serveHit(r Response) Response {
	r.Cached = true
	r.CostUSD = 0
	r.LatencyMS = CacheLookupLatencyMS
	c.meter.record(r)
	return r
}

// Stats reports cache hits and misses.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Usage returns the tally of responses served through the cache,
// including zero-cost hits.
func (c *Cache) Usage() Usage { return c.meter.snapshot() }

// Cascade routes calls through a cheap model first and escalates to an
// expensive model when the cheap model's confidence falls below Threshold —
// the model-cascade optimization LOTUS/PALIMPZEST-style systems apply to
// semantic operators (experiment E2).
type Cascade struct {
	Cheap     Client
	Expensive Client
	// Threshold in [0,1]: cheap responses with Confidence below it are
	// escalated. 0 never escalates; 1 always escalates.
	Threshold float64

	mu        sync.Mutex
	escalated int64
	total     int64

	// Observability mirror of the tallies, on an accumulated-latency
	// logical clock (see Cache). Nil metrics mean tracing is off.
	obsClockMS               float64
	obsCalls, obsEscalations *obs.Metric
}

// NewCascade builds a cascade router.
func NewCascade(cheap, expensive Client, threshold float64) *Cascade {
	return &Cascade{Cheap: cheap, Expensive: expensive, Threshold: threshold}
}

// SetObs mirrors the cascade's call/escalation tallies into tr's metric
// registry as the cascade/calls and cascade/escalations counters. Call
// before issuing requests; a nil tracer leaves the cascade untraced.
func (c *Cascade) SetObs(tr *obs.Tracer) {
	reg := tr.Registry()
	c.mu.Lock()
	c.obsCalls = reg.Counter("cascade/calls")
	c.obsEscalations = reg.Counter("cascade/escalations")
	c.mu.Unlock()
}

// Complete implements Client. The returned response carries the combined
// cost and latency of every model consulted — including on the error
// path: when the expensive model fails after a cheap-model miss, the
// cheap call's spend rides on the returned response so caller-side
// metering still sees it as waste.
func (c *Cascade) Complete(req Request) (Response, error) {
	r1, err := c.Cheap.Complete(req)
	// Every call counts toward total, errored or not, so Stats()
	// denominators are consistent with the number of Complete calls.
	c.mu.Lock()
	c.total++
	if c.obsCalls != nil {
		c.obsClockMS += r1.LatencyMS
		c.obsCalls.Add(c.obsClockMS, 1)
	}
	c.mu.Unlock()
	if err != nil {
		return r1, err
	}
	if r1.Confidence >= c.Threshold {
		return r1, nil
	}
	c.mu.Lock()
	c.escalated++
	if c.obsEscalations != nil {
		c.obsEscalations.Add(c.obsClockMS, 1)
	}
	c.mu.Unlock()
	r2, err := c.Expensive.Complete(req)
	c.mu.Lock()
	if c.obsCalls != nil {
		c.obsClockMS += r2.LatencyMS // the escalated tier's own latency
	}
	c.mu.Unlock()
	r2.CostUSD += r1.CostUSD
	r2.LatencyMS += r1.LatencyMS
	r2.PromptTokens += r1.PromptTokens
	r2.CompletionTokens += r1.CompletionTokens
	if err != nil {
		return r2, err
	}
	return r2, nil
}

// Stats reports how many calls were escalated out of the total.
func (c *Cascade) Stats() (escalated, total int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.escalated, c.total
}
