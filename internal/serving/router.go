package serving

import (
	"fmt"
	"sort"

	"dataai/internal/metrics"
	"dataai/internal/obs"
	"dataai/internal/resilient"
	"dataai/internal/sim"
	"dataai/internal/token"
	"dataai/internal/workload"
)

// RouterPolicy selects how a multi-instance front end spreads requests.
type RouterPolicy int

// Supported routing policies.
const (
	// RoundRobin rotates through instances, ignoring cache and health
	// state — the naive baseline.
	RoundRobin RouterPolicy = iota
	// CacheAware routes requests sharing a prefix or session to the
	// same instance, so its KV cache serves them — the KV-centric
	// scheduling idea of Mooncake [45]: cache reuse is worth more than
	// perfect load spread. Requests with no affinity go to the instance
	// with the least outstanding token load.
	CacheAware
	// BreakerAware scores instances by live load and cache affinity, but
	// feeds each instance's circuit-breaker state (resilient.Breaker,
	// driven by crash detections) into the score so the router steers
	// around tripped instances and trickles probes at half-open ones.
	BreakerAware
)

// String names the policy.
func (p RouterPolicy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case CacheAware:
		return "cache-aware"
	case BreakerAware:
		return "breaker-aware"
	default:
		return fmt.Sprintf("router(%d)", int(p))
	}
}

// RoutedReport aggregates a routed multi-instance run.
type RoutedReport struct {
	Report
	// PrefixHits and PrefixMisses sum the per-instance prefix caches.
	PrefixHits   int
	PrefixMisses int
	// Rerouted counts sequences re-routed to another instance after a
	// crash dropped them (each hop counts once).
	Rerouted int
	// Crashes counts instance-crash windows the fault plan applied.
	Crashes int
	// Migrations counts live-migrated sequences (checkpoint → ship →
	// resume hops off distressed instances).
	Migrations int
	// ResumedFromCkpt counts re-admissions that restored host-side
	// checkpoint state instead of recomputing from token zero.
	ResumedFromCkpt int
	// WastedRecomputeTokens totals context tokens re-prefilled because
	// a crash (or migration shortfall) lost state an instance had
	// already computed — the recompute tax recovery policies shrink.
	WastedRecomputeTokens int
	// CkptWrites and CkptTokens count checkpoint captures and the
	// context tokens they shipped to host memory.
	CkptWrites int
	CkptTokens int
	// RecoveryMS summarizes crash-drop → re-admission latency per
	// dropped sequence.
	RecoveryMS metrics.Summary
	// PrefixCPUHits and PrefixDemotions sum the tiered prefix caches'
	// host-tier traffic (zero with the legacy unbounded caches).
	PrefixCPUHits   int
	PrefixDemotions int
	// AdmissionRejected counts requests the per-tenant token bucket
	// turned away at the router (a subset of Rejected);
	// AdmissionDelayed counts AdmitQueue holds.
	AdmissionRejected int
	AdmissionDelayed  int
	// Tenants summarizes per-tenant admission and service outcomes,
	// sorted by tenant ID (empty for untenanted traces).
	Tenants []TenantStats
	// Regret, when the run was priced by ReplayRegret, summarizes
	// per-decision counterfactual regret (nil otherwise).
	Regret *RegretSummary
}

// clusterTally tracks simultaneous KV occupancy across every instance of
// a routed run — the true cluster high-water mark, which summing
// per-instance peaks from unsynchronized runs used to overstate. Each
// instance settles its own allocator calls into it (instance.kvSettle).
type clusterTally struct{ used, peak int }

// Routing-score constants for BreakerAware: an open breaker pushes an
// instance past any plausible load, a half-open one costs a moderate
// token handicap (probes trickle back once the healthy instances carry
// real queues), and cache affinity halves the effective load.
const (
	openPenalty     = 1e9
	halfOpenPenalty = 2000
	affinityFactor  = 0.5
)

// excludedPenalty pushes the instance a re-routed sequence was just
// dropped by past every real score: it stays a scored candidate (so
// decisions record it and replays can force it — it ranks last) but
// never wins against any live instance, reproducing the historical
// skip exactly. 1e18 dwarfs openPenalty plus any achievable token load.
const excludedPenalty = 1e18

// cluster is a serving run in flight: n instances on one engine, a
// router making per-arrival decisions from live state, and optional
// fault windows. Run's clusters give every instance a breaker and a
// shared KV tally; RunContinuous's one-instance cluster has neither.
type cluster struct {
	eng      *sim.Engine
	gpu      GPUConfig
	insts    []*instance
	breakers []*resilient.Breaker // nil: no breakers
	policy   RouterPolicy
	plan     *FaultPlan
	// tally, when non-nil, is the instances' shared KV occupancy.
	tally *clusterTally

	rr         int // RoundRobin rotation counter
	pending    int // requests arrived-or-scheduled and not yet resolved
	rerouted   int
	crashes    int
	migrations int
	results    []Result
	pool       seqPool

	// rec is the run's crash-recovery policy and accounting; never nil,
	// inert when the RecoveryConfig is zero.
	rec *recovery

	// adm is the run's per-tenant admission controller; nil when the
	// AdmissionConfig policy is AdmitAll (the historical path).
	adm *admitter

	// trace, when non-nil, records the cluster timeline; instances share
	// it through their ContinuousOpts.
	trace *obs.Tracer

	// scores is the router's per-decision scratch (one slot per
	// instance), reused across decisions so scoring allocates nothing
	// on the route path.
	scores []candScore
	// routeCalls counts route() invocations — the 1-based decision
	// sequence a ForcedChoice matches against, kept whether or not a
	// log records the decisions.
	routeCalls uint64
	// dlog, when non-nil, records every routing decision (see
	// ContinuousOpts.Decisions).
	dlog *obs.DecisionLog
	// force, when non-nil, overrides one decision (see
	// ContinuousOpts.Force).
	force *ForcedChoice
	// rankBuf is scratch for ranking candidates under forcing,
	// allocated on first use (forced replays only).
	rankBuf []int
}

// candScore is one instance's standing in a single routing decision:
// the raw signals alongside the policy's score. route fills the
// cluster's scratch slice, recordDecision copies it into the log.
type candScore struct {
	load     int
	affinity bool
	breaker  int // breaker state BreakerAware consulted, -1 otherwise
	down     bool
	excluded bool
	score    float64
}

// traceBreaker mirrors instance i's breaker state into its gauge
// (0 closed, 1 open, 2 half-open). StateAt is idempotent at a fixed time
// — every breaker mutator calls it first — so the extra read never
// changes routing behavior.
func (c *cluster) traceBreaker(now float64, i int) {
	if c.trace == nil {
		return
	}
	in := c.insts[i]
	if in.breakerGauge == nil {
		in.breakerGauge = c.trace.Registry().Gauge(in.track + "/breaker_state")
	}
	in.breakerGauge.Set(now, float64(c.breakers[i].StateAt(now)))
}

// affinity returns the instance a request's prefix or session hashes to,
// or -1 when it has neither.
func (c *cluster) affinity(r *workload.Request) int {
	n := len(c.insts)
	if r.PrefixID != "" {
		return int(token.Hash64(r.PrefixID) % uint64(n))
	}
	if r.Session != "" {
		return int(token.Hash64(r.Session) % uint64(n))
	}
	return -1
}

// route picks the instance for a request arriving now. exclude is the
// instance a re-routed sequence was just dropped by (-1 for fresh
// arrivals): sending it straight back would race its own recovery.
// held marks an arrival the admission controller delayed first.
//
// Every policy is expressed as a candidate score vector with the
// winner the strict-less argmin, so ties always break to the lowest
// instance index (TestRouterTieBreakAtEqualScores pins this). That
// single discipline
// — shared with obs.Decision.Ranked — is what lets a counterfactual
// replay force rank-k alternatives without ever disagreeing with live
// routing on ties.
func (c *cluster) route(now float64, r *workload.Request, exclude int, held bool) int {
	c.scoreInstances(now, r, exclude)
	chosen := 0
	for i := 1; i < len(c.scores); i++ {
		if c.scores[i].score < c.scores[chosen].score {
			chosen = i
		}
	}
	c.routeCalls++
	if c.force != nil && c.force.Decision == c.routeCalls {
		chosen = c.rankedInstance(c.force.Rank)
	}
	c.recordDecision(now, r, exclude, held, chosen)
	return chosen
}

// scoreInstances fills c.scores for one routing decision. Each policy's
// scoring reproduces its historical direct-pick behavior choice for
// choice:
//
//   - RoundRobin scores rotation distance from the current counter and
//     advances the counter exactly as the direct implementation did
//     (one step, plus one more when the first pick was excluded);
//   - CacheAware scores the affinity instance below any possible load
//     (-1) and everything else by live queue load;
//   - BreakerAware keeps its load × affinity × breaker-penalty formula
//     with identical float operation order.
//
// The excluded instance is scored past every real candidate with
// excludedPenalty rather than skipped (see that constant). BreakerAware
// deliberately does not consult the excluded instance's breaker:
// StateAt applies the lazy open→half-open transition, so an extra call
// the historical path never made would perturb breaker accounting. Its
// Breaker field records -1, unconsulted — as does every candidate's
// under the policies that never read breakers.
func (c *cluster) scoreInstances(now float64, r *workload.Request, exclude int) {
	n := len(c.insts)
	switch c.policy {
	case CacheAware:
		aff := c.affinity(r)
		for i, in := range c.insts {
			cs := &c.scores[i]
			*cs = candScore{load: in.queueLoad(), breaker: -1, down: in.down}
			cs.score = float64(cs.load)
			if i == aff {
				cs.affinity = true
				cs.score = -1
			}
			if i == exclude && n > 1 {
				cs.excluded = true
				cs.score += excludedPenalty
			}
		}
	case BreakerAware:
		aff := c.affinity(r)
		for i, in := range c.insts {
			cs := &c.scores[i]
			*cs = candScore{load: in.queueLoad(), breaker: -1, down: in.down}
			score := float64(cs.load)
			if i == aff {
				cs.affinity = true
				score *= affinityFactor
			}
			if i == exclude && n > 1 {
				cs.excluded = true
				score += excludedPenalty
			} else {
				st := c.breakers[i].StateAt(now)
				cs.breaker = int(st)
				switch st {
				case resilient.BreakerOpen:
					score += openPenalty
				case resilient.BreakerHalfOpen:
					score += halfOpenPenalty
				}
			}
			cs.score = score
		}
	default: // RoundRobin
		base := c.rr % n
		c.rr++
		if base == exclude && n > 1 {
			c.rr++
		}
		for i, in := range c.insts {
			cs := &c.scores[i]
			*cs = candScore{load: in.queueLoad(), breaker: -1, down: in.down}
			cs.score = float64((i - base + n) % n)
			if i == exclude && n > 1 {
				cs.excluded = true
				cs.score += excludedPenalty
			}
		}
	}
}

// rankedInstance returns the instance at 1-based rank k of the current
// score vector: rank 1 is the argmin (the live choice), ties order by
// instance index, and k past the instance count clamps to the worst
// candidate. Called only on the forced decision of a replay.
func (c *cluster) rankedInstance(k int) int {
	n := len(c.scores)
	if c.rankBuf == nil {
		c.rankBuf = make([]int, n)
	}
	buf := c.rankBuf
	for i := range buf {
		buf[i] = i
	}
	sort.Slice(buf, func(a, b int) bool {
		if c.scores[buf[a]].score != c.scores[buf[b]].score {
			return c.scores[buf[a]].score < c.scores[buf[b]].score
		}
		return buf[a] < buf[b]
	})
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return buf[k-1]
}

// recordDecision copies the score vector into the decision log (no-op
// without one). chosen is the instance actually routed to — under
// forcing, the forced alternative.
func (c *cluster) recordDecision(now float64, r *workload.Request, exclude int, held bool, chosen int) {
	if c.dlog == nil {
		return
	}
	kind := obs.DecisionArrival
	if exclude >= 0 {
		kind = obs.DecisionReroute
	}
	cands := make([]obs.Candidate, len(c.scores))
	for i, cs := range c.scores {
		cands[i] = obs.Candidate{
			Instance: i, QueueLoad: cs.load, Affinity: cs.affinity,
			Breaker: cs.breaker, Down: cs.down, Excluded: cs.excluded,
			Score: cs.score,
		}
	}
	c.dlog.Record(obs.Decision{
		AtMS: now, ReqID: r.ID, Kind: kind, Held: held, Chosen: chosen, Candidates: cands,
	})
}

// traceDecision ties the queue span a routed delivery just opened to
// its decision-log entry: obs.Check matches the "decision" and "inst"
// attrs against the log. Only route() outcomes are annotated —
// migration hops call arrive directly and carry no decision — and only
// when both a tracer and a decision log are on, so decision-free
// traces keep their historical bytes.
func (c *cluster) traceDecision(s *seqState, chosen int) {
	if c.trace == nil || c.dlog == nil {
		return
	}
	c.trace.SpanAttrs(s.phase,
		obs.I(obs.DecisionSeqKey, int64(c.routeCalls)),
		obs.I(obs.DecisionInstKey, int64(chosen)))
}

// rerouteAttrs annotates the reroute instant with the hop when decision
// recording is on (attr-free otherwise, preserving historical bytes).
func (c *cluster) rerouteAttrs(from, to int) []obs.Attr {
	if c.dlog == nil {
		return nil
	}
	return []obs.Attr{obs.I("from", int64(from)), obs.I("to", int64(to))}
}

// ClusterConfig configures a Run.
type ClusterConfig struct {
	// GPU is every instance's cost model.
	GPU GPUConfig
	// Instances is the cluster size (at least 1).
	Instances int
	// Router picks each arrival's instance; the zero value is RoundRobin.
	Router RouterPolicy
	// Opts configures every instance's batching and the run's trace,
	// decision log and forced choice. Run builds each instance's KV
	// allocator, prefix cache and session store, so KV, Prefix and
	// SessionCache must be nil.
	Opts ContinuousOpts
	// Faults, when non-nil, crashes and slows instances on seeded
	// windows; circuit breakers observe the crashes, and the router
	// re-routes the sequences a crash drops.
	Faults *FaultPlan
	// Recovery selects checkpoints, live migration and tiered prefix
	// caches; the zero value recomputes crashed sequences from scratch.
	Recovery RecoveryConfig
	// Admission selects per-tenant token-bucket admission at the
	// router; the zero value admits every request.
	Admission AdmissionConfig
}

// validate checks what every cluster needs, whoever built it.
func (cfg ClusterConfig) validate() error {
	if err := cfg.GPU.Validate(); err != nil {
		return err
	}
	if cfg.Instances < 1 {
		return fmt.Errorf("%w: instances %d", ErrConfig, cfg.Instances)
	}
	if cfg.Opts.ChunkTokens < 0 {
		return fmt.Errorf("%w: chunk tokens %d", ErrConfig, cfg.Opts.ChunkTokens)
	}
	return nil
}

// Run serves the trace on cfg.Instances instances behind an online
// router: every request is assigned at its arrival instant from the
// cluster's live state (queue load, breaker state, cache affinity), with
// all instances sharing one discrete-event clock. Every instance gets
// its own paged KV allocator and prefix cache, and its own session store
// when sessions appear in the trace; the routing policy decides which
// instance's cache a request can hit.
func Run(cfg ClusterConfig, reqs []workload.Request) (*RoutedReport, error) {
	rep, _, err := runCluster(cfg, reqs)
	return rep, err
}

// RunRoutedRecovery is Run without admission control.
//
// Deprecated: use Run.
func RunRoutedRecovery(gpu GPUConfig, reqs []workload.Request, n int, policy RouterPolicy, opts ContinuousOpts, plan *FaultPlan, rec RecoveryConfig) (*RoutedReport, error) {
	return Run(ClusterConfig{GPU: gpu, Instances: n, Router: policy, Opts: opts, Faults: plan, Recovery: rec}, reqs)
}

// RunRoutedAdmission is Run with every ClusterConfig field as an
// argument.
//
// Deprecated: use Run.
func RunRoutedAdmission(gpu GPUConfig, reqs []workload.Request, n int, policy RouterPolicy, opts ContinuousOpts, plan *FaultPlan, rec RecoveryConfig, adm AdmissionConfig) (*RoutedReport, error) {
	return Run(ClusterConfig{GPU: gpu, Instances: n, Router: policy, Opts: opts, Faults: plan, Recovery: rec, Admission: adm}, reqs)
}

// runCluster is Run, also returning the drained cluster so invariant
// tests can inspect post-run allocator and pool state.
func runCluster(cfg ClusterConfig, reqs []workload.Request) (*RoutedReport, *cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if o := cfg.Opts; o.KV != nil || o.Prefix != nil || o.SessionCache != nil {
		return nil, nil, fmt.Errorf("%w: Run builds every instance's KV allocator, prefix cache and session store; leave ContinuousOpts.KV, .Prefix and .SessionCache nil", ErrConfig)
	}
	ordered := arrivalOrder(reqs)
	hasSessions := false
	for i := range ordered {
		if ordered[i].Session != "" {
			hasSessions = true
			break
		}
	}

	c := newCluster(cfg, len(ordered))
	c.tally = &clusterTally{}
	c.breakers = make([]*resilient.Breaker, cfg.Instances)
	cooldown := 1000.0
	if cfg.Faults != nil {
		cooldown = cfg.Faults.crashDownMS()
	}
	gpu, rec := cfg.GPU, cfg.Recovery
	for i := range c.insts {
		opts := cfg.Opts
		if rec.PrefixGPUTokens > 0 {
			// Two-tier prefix cache: cold prefixes demote to a host tier
			// that survives this instance's crashes.
			opts.Prefix = newTieredPrefixCache(rec.PrefixGPUTokens, rec.PrefixCPUTokens, gpu.PrefillTokensPerMS)
		} else {
			opts.Prefix = NewPrefixCache()
		}
		if hasSessions {
			store, err := NewSessionStore(SessionStoreConfig{
				GPUCapacityTokens:  gpu.KVBlocks * gpu.BlockSize / 4,
				Policy:             LRU,
				PrefillTokensPerMS: gpu.PrefillTokensPerMS,
			})
			if err != nil {
				return nil, nil, err
			}
			opts.SessionCache = store
		}
		c.breakers[i] = resilient.NewBreaker(resilient.BreakerPolicy{FailureThreshold: 2, CooldownMS: cooldown})
		c.addInstance(i, opts)
	}
	return c.run(ordered), c, nil
}

// newCluster returns a cluster for a trace of n requests, with its
// instance slots still empty: the caller fills each with addInstance,
// and gives the cluster breakers and a KV tally if it has them.
func newCluster(cfg ClusterConfig, n int) *cluster {
	c := &cluster{
		eng: sim.NewEngine(), gpu: cfg.GPU, policy: cfg.Router, plan: cfg.Faults,
		insts:   make([]*instance, cfg.Instances),
		pending: n,
		results: make([]Result, 0, n), // every request resolves once
		trace:   cfg.Opts.Trace,
		rec:     newRecovery(cfg.Recovery),
		scores:  make([]candScore, cfg.Instances),
		dlog:    cfg.Opts.Decisions,
		force:   cfg.Opts.Force,
	}
	// Attach the log so Tracer.Check verifies decisions against the
	// timeline (nil-safe both ways).
	c.trace.AttachDecisions(c.dlog)
	if cfg.Admission.Policy != AdmitAll {
		c.adm = newAdmitter(cfg.Admission, cfg.Opts.Trace.Registry())
	}
	return c
}

// addInstance builds instance i on opts. Its finishes resolve requests
// (and close its breaker, when the cluster has breakers), and the
// sequences a crash drops go back through the router.
func (c *cluster) addInstance(i int, opts ContinuousOpts) {
	in := newInstance(i, c.gpu, opts, c.eng, &c.pool, func(now float64) *Result {
		if c.breakers != nil {
			c.breakers[i].OnSuccess(now)
			c.traceBreaker(now, i)
		}
		c.pending--
		return nextResult(&c.results)
	})
	in.rec = c.rec
	in.tally = c.tally
	in.onDrop = func(now float64, dropped []*seqState) {
		// The router learns of the losses a detection delay later and
		// re-routes the sequences, in drop order, away from the crashed
		// instance. One event carries the whole crash: the per-sequence
		// events it replaces had consecutive seqs at one instant, so
		// nothing fired between them, and whatever they scheduled fired
		// after all of them.
		c.eng.At(now+detectMS, func(t float64) {
			for _, s := range dropped {
				c.breakers[i].OnFailure(t)
				c.traceBreaker(t, i)
				c.rerouted++
				g := c.route(t, &s.req, i, false)
				if c.trace != nil {
					c.trace.Instant(t, "router", "reroute", c.rerouteAttrs(i, g)...)
					c.trace.Registry().Counter("router/reroute_crash").Add(t, 1)
				}
				c.insts[g].arrive(t, s)
				c.traceDecision(s, g)
			}
		})
	}
	c.insts[i] = in
}

// run serves the arrival-ordered trace on the built cluster: it streams
// the arrivals through the router, drives the fault windows and
// migration scans the configuration asks for, runs the engine dry,
// reports every sequence no instance could ever admit as rejected, and
// returns the report.
func (c *cluster) run(ordered []workload.Request) *RoutedReport {
	c.streamArrivals(ordered)
	if c.plan != nil {
		c.scheduleFaults()
	}
	if c.rec.cfg.Migrate {
		c.scheduleMigration()
	}
	c.eng.Run()
	for _, in := range c.insts {
		for in.waiting.Len() > 0 {
			// Never admittable: report rejected, reclaim the state —
			// Result copies the request, so pooling is safe, and the
			// pool drops any checkpoint the sequence left behind.
			s := in.waiting.PopFront()
			in.load -= seqLoad(s)
			in.traceReject(c.eng.Now(), s)
			c.results = append(c.results, Result{Req: s.req, Rejected: true})
			c.pool.put(s)
		}
	}
	return c.report()
}

// streamArrivals delivers the trace to the router. One shared
// ArgHandler delivers every arrival; the event argument is the
// request's index in the ordered trace, so scheduling n arrivals
// allocates one closure instead of n, and the engine streams them,
// keeping one queued at a time. The router reads each request in place;
// only the sequence the pool hands out copies it.
func (c *cluster) streamArrivals(ordered []workload.Request) {
	capacityTokens := c.insts[0].kv.Capacity() * c.gpu.BlockSize
	// deliverHeld lands a request the admission controller reserved a
	// refill window for; deliver runs first, at the arrival instant.
	deliverHeld := func(now float64, idx uint64) {
		r := &ordered[idx]
		c.adm.delivered(now, r.Tenant)
		c.dispatch(now, r, true)
	}
	deliver := func(now float64, idx uint64) {
		r := &ordered[idx]
		if neverFits(r, capacityTokens, c.gpu.MaxSeqLen) {
			c.rejectArrival(now, r)
			return
		}
		if c.adm != nil {
			delay, ok := c.adm.decide(now, *r)
			if !ok {
				c.rejectArrival(now, r)
				return
			}
			if delay > 0 {
				c.eng.AtArg(now+delay, deliverHeld, idx)
				return
			}
		}
		c.dispatch(now, r, false)
	}
	c.eng.Stream(len(ordered), func(i int) float64 { return ordered[i].ArrivalMS }, deliver)
}

// neverFits reports whether r's footprint, its prompt plus output
// tokens, is more than a GPU whose KV holds capacityTokens can ever
// serve. Run and RunDisaggregated reject such a request at arrival,
// before any GPU time is spent on it.
func neverFits(r *workload.Request, capacityTokens, maxSeqLen int) bool {
	footprint := r.PromptTokens + r.OutputTokens
	return footprint > capacityTokens || footprint > maxSeqLen
}

// dispatch routes an arriving request and queues its sequence on the
// chosen instance; held marks a request admission delayed first.
func (c *cluster) dispatch(now float64, r *workload.Request, held bool) {
	g := c.route(now, r, -1, held)
	s := c.pool.get(*r)
	c.insts[g].arrive(now, s)
	c.traceDecision(s, g)
}

// rejectArrival resolves a request turned away before any instance saw
// it.
func (c *cluster) rejectArrival(now float64, r *workload.Request) {
	traceRejectArrival(c.trace, now, *r)
	c.results = append(c.results, Result{Req: *r, Rejected: true})
	c.pending--
}

// scheduleFaults chains the fault plan's windows on the engine: at each
// window boundary every live instance takes the window's straggler
// factor and crash draw, and the survivors of a crash pay the plan's
// overload cascade. The chain stops once the trace is fully resolved.
func (c *cluster) scheduleFaults() {
	plan := c.plan
	var windowAt func(w int)
	windowAt = func(w int) {
		c.eng.At(float64(w)*faultWindowMS, func(now float64) {
			if c.pending == 0 {
				return // trace fully resolved: stop driving windows
			}
			for i, in := range c.insts {
				if in.down {
					continue
				}
				in.setSlowdown(plan.slowdownAt(i, w))
				if plan.crashAt(i, w) {
					c.crashes++
					if c.trace != nil {
						c.trace.Registry().Counter("router/crashes").Add(now, 1)
					}
					in.crash(now)
					c.eng.At(now+detectMS, func(t float64) {
						// Health check: the detector notices the dead
						// instance even when nothing was in flight.
						c.breakers[i].OnFailure(t)
						c.traceBreaker(t, i)
					})
					c.eng.At(now+plan.crashDownMS(), func(t float64) {
						in.setSlowdown(1)
						in.recoverAt(t)
					})
				}
			}
			if plan.OverloadAlpha > 0 {
				// Post-crash cascade: survivors absorbing the down
				// instances' rerouted load run slower for the window, on
				// top of any straggler draw.
				downCount := 0
				for _, in := range c.insts {
					if in.down {
						downCount++
					}
				}
				if ov := plan.overloadFactor(downCount, len(c.insts)); ov > 1 {
					for i, in := range c.insts {
						if in.down {
							continue
						}
						in.setSlowdown(plan.slowdownAt(i, w) * ov)
					}
				}
			}
			windowAt(w + 1)
		})
	}
	windowAt(0)
}

// report sums the drained cluster's results and counters.
func (c *cluster) report() *RoutedReport {
	out := &RoutedReport{Report: *buildReport(c.results)}
	for _, in := range c.insts {
		h, m := in.opts.Prefix.Stats()
		out.PrefixHits += h
		out.PrefixMisses += m
		ch, d := in.opts.Prefix.TierStats()
		out.PrefixCPUHits += ch
		out.PrefixDemotions += d
		out.Preemptions += in.preemptions
	}
	if c.tally != nil {
		out.PeakKVBlocks = c.tally.peak
	} else {
		// One instance on the caller's allocator (RunContinuous).
		out.PeakKVBlocks = c.insts[0].kv.PeakBlocks()
	}
	out.Rerouted = c.rerouted
	out.Crashes = c.crashes
	out.Migrations = c.migrations
	out.ResumedFromCkpt = c.rec.resumes
	out.WastedRecomputeTokens = c.rec.wasted
	out.CkptWrites = c.rec.writes
	out.CkptTokens = c.rec.writeTokens
	out.RecoveryMS = c.rec.recoveryMS
	out.Tenants = tenantStats(c.adm, c.results)
	if c.adm != nil {
		for _, t := range out.Tenants {
			out.AdmissionRejected += t.AdmissionRejected
			out.AdmissionDelayed += t.Delayed
		}
		if tl, ok := c.adm.tallies[""]; ok {
			out.AdmissionRejected += tl.rejected
			out.AdmissionDelayed += tl.delayed
		}
	}
	return out
}
