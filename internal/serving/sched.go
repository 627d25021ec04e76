package serving

import (
	"fmt"
	"sort"

	"dataai/internal/obs"
	"dataai/internal/workload"
)

// seqState tracks one request through the simulator.
type seqState struct {
	req workload.Request
	// kvh is the handle the sequence's KV blocks are held under on its
	// instance, from a successful admission until preemption, finish,
	// crash or migration frees them. Handles are dense per instance
	// (instance.kvAlloc) and never derived from the request ID, so two
	// live requests sharing an ID never share state.
	kvh int
	// ckpt is the context tokens (prompt + generated at capture time)
	// covered by the sequence's newest host-side checkpoint, 0 when none.
	// The sequence is the router's object and survives the crash that
	// kills an instance's state, so the checkpoint survives with it.
	ckpt int
	// prefillLeft is the number of prompt tokens still to prefill.
	prefillLeft int
	// prefilled is the number actually prefilled (after cache savings).
	prefilled int
	// generated counts emitted output tokens. While the sequence runs
	// on a reserve-full instance, generated and finishMS are current as
	// of that instance's decode step joinStep; instance.sync brings them
	// up to date.
	generated    int
	firstTokenMS float64
	finishMS     float64
	joinStep     int
	// stamp is the run-unique stamp of the sequence's join to a
	// reserve-full running batch, carried by its finish-heap entry; 0
	// while it is not running there.
	stamp    uint64
	admitted bool
	// preempted marks a sequence evicted during the current iteration
	// pass (decodeOnDemand); the next successful admission clears it.
	preempted bool
	// saved is the prompt span satisfied from a prefix/session cache.
	saved int
	// crashDropped / migrated mark a sequence in flight between
	// instances (crash reroute or live migration); the next successful
	// admission consumes them for recovery accounting. droppedAtMS is
	// the crash instant, for the drop→re-admission latency sample.
	crashDropped bool
	migrated     bool
	droppedAtMS  float64
	// root and phase are the request's lifecycle spans when tracing is
	// on (zero refs otherwise, safe to End): root covers arrival to
	// terminal, phase is the currently open queue/prefill/decode/reroute
	// child. track names their span track, built on first use.
	root, phase obs.SpanRef
	track       string
}

// served writes into r, the slot a finished request is reported in
// (see nextResult), the Result of req served on instance: its first
// token at firstTokenMS, its last at finishMS, after prefilling
// prefilled prompt tokens. Every entry point's finish writes through it.
func (r *Result) served(req *workload.Request, firstTokenMS, finishMS float64, prefilled, instance int) {
	r.Req = *req
	r.FinishMS = finishMS
	r.TTFTms = firstTokenMS - req.ArrivalMS
	r.PrefilledTokens = prefilled
	r.Instance = instance
	if req.OutputTokens > 1 {
		r.TBTms = (finishMS - firstTokenMS) / float64(req.OutputTokens-1)
	}
}

// nextResult appends a zero Result to *results and returns the new
// slot, so a finished sequence's Result is built once, where it is
// reported, instead of being copied there.
func nextResult(results *[]Result) *Result {
	*results = append(*results, Result{})
	return &(*results)[len(*results)-1]
}

// arrivalOrder returns reqs stably sorted by ArrivalMS. A trace already
// in that order — every generated one — comes back as is: a stable sort
// would not move it, and the runs only read it. Otherwise the sort
// works on a copy, leaving the caller's slice untouched.
func arrivalOrder(reqs []workload.Request) []workload.Request {
	for i := 1; i < len(reqs); i++ {
		// <= is false for a NaN, so such a trace takes the sort.
		if !(reqs[i-1].ArrivalMS <= reqs[i].ArrivalMS) {
			ordered := append([]workload.Request(nil), reqs...)
			sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].ArrivalMS < ordered[j].ArrivalMS })
			return ordered
		}
	}
	return reqs
}

// RunStatic serves the trace with static batching: requests are grouped
// in arrival order into batches of batchSize; each batch is prefilled
// then decoded to the *longest* member's completion before the next
// batch starts — early finishers hold their slot, which is exactly the
// inefficiency continuous batching removes. A request whose KV
// reservation fails is rejected: it leaves its batch and is neither
// prefilled nor decoded.
func RunStatic(gpu GPUConfig, reqs []workload.Request, batchSize int) (*Report, error) {
	if err := gpu.Validate(); err != nil {
		return nil, err
	}
	if batchSize < 1 {
		return nil, fmt.Errorf("%w: batch size %d", ErrConfig, batchSize)
	}
	kv := NewContiguousKV(gpu)
	maxBatch := kv.Capacity() / ((gpu.MaxSeqLen + gpu.BlockSize - 1) / gpu.BlockSize)
	if batchSize > maxBatch && maxBatch > 0 {
		batchSize = maxBatch
	}
	ordered := arrivalOrder(reqs)

	var results []Result
	clock := 0.0
	for start := 0; start < len(ordered); start += batchSize {
		end := start + batchSize
		if end > len(ordered) {
			end = len(ordered)
		}
		batch := make([]*seqState, 0, end-start)
		for _, r := range ordered[start:end] {
			// A sequence's KV handle is its index in the batch.
			if !kv.Alloc(len(batch), r.PromptTokens+r.OutputTokens) {
				results = append(results, Result{Req: r, Rejected: true})
				continue
			}
			if r.ArrivalMS > clock {
				clock = r.ArrivalMS // batch forms when its members arrived
			}
			batch = append(batch, &seqState{req: r, prefillLeft: r.PromptTokens})
		}
		// Sequential prefill; each member's first token arrives at the
		// end of its own prefill.
		for _, s := range batch {
			clock += gpu.prefillMS(s.prefillLeft)
			s.prefilled = s.prefillLeft
			s.prefillLeft = 0
			s.generated = 1
			s.firstTokenMS = clock
			s.finishMS = clock
		}
		// Lock-step decode until the longest output completes. The
		// iteration cost always charges the full batch width.
		maxOut := 0
		for _, s := range batch {
			if s.req.OutputTokens > maxOut {
				maxOut = s.req.OutputTokens
			}
		}
		for it := 1; it < maxOut; it++ {
			clock += gpu.decodeIterMS(len(batch))
			for _, s := range batch {
				if s.generated < s.req.OutputTokens {
					s.generated++
					s.finishMS = clock
				}
			}
		}
		for j, s := range batch {
			kv.Free(j)
			nextResult(&results).served(&s.req, s.firstTokenMS, s.finishMS, s.prefilled, 0)
		}
	}
	rep := buildReport(results)
	rep.PeakKVBlocks = kv.PeakBlocks()
	return rep, nil
}

// ContinuousOpts configures continuous batching: RunContinuous's one
// GPU, or every instance of a Run. KV, Prefix and SessionCache are the
// caller's objects for RunContinuous only, since Run builds each
// instance its own; Decisions and Force are for Run only. An entry
// point given a field it does not take returns ErrConfig.
type ContinuousOpts struct {
	// KV selects the allocator; nil defaults to paged.
	KV KVManager
	// ChunkTokens > 0 enables Sarathi-style chunked prefill: each
	// iteration processes at most ChunkTokens prefill tokens *alongside*
	// the decode batch, so decodes never stall behind a long prompt.
	// 0 runs whole prompts in dedicated prefill iterations (Orca/vLLM
	// default), stalling decodes for the duration.
	ChunkTokens int
	// Prefix enables shared-prefix KV reuse.
	Prefix *PrefixCache
	// SessionCache enables multi-turn KV reuse across a conversation
	// (AttentionStore-style); see store.go.
	SessionCache *SessionStore
	// Sched selects batch-formation order across SLO classes at
	// iteration boundaries (see SchedPolicy). The zero value is FCFS,
	// the historical behavior.
	Sched SchedPolicy
	// PreemptBatch lets an interactive sequence that cannot be admitted
	// evict the most recently admitted batch-class running sequence and
	// take its slot; the victim recomputes later, as after any
	// preemption. Only meaningful alongside a priority-aware Sched.
	PreemptBatch bool
	// OnDemand switches KV management to vLLM's actual discipline [28]:
	// output lengths are unknown to the scheduler, admission reserves
	// only the prompt (behind a watermark), blocks grow one step at a
	// time during decoding, and exhaustion preempts the most recently
	// admitted sequence with all-or-nothing eviction — every block it
	// holds is freed and its state is recomputed by a later prefill.
	// The default (false) reserves each sequence's full footprint up
	// front using the trace's known output length (an oracle real
	// servers lack).
	OnDemand bool
	// Trace, when non-nil, records the run's timeline (spans, instants,
	// and registry gauges — see trace.go and internal/obs). Tracing only
	// observes the simulation: a nil Trace (the default) changes nothing
	// and costs nothing.
	Trace *obs.Tracer
	// Decisions, when non-nil, appends one obs.Decision per routing
	// decision of a routed run (fresh arrivals and crash reroutes): the
	// scored candidate vector, the chosen instance, and the logical
	// decision time — the record ReplayRegret replays against. When a
	// Trace is also set, the log is attached to it, so obs.Check
	// verifies decisions against the timeline. Nil (the default)
	// records nothing and adds nothing to the route path.
	Decisions *obs.DecisionLog
	// Force, when non-nil, overrides one routing decision during a
	// counterfactual replay: the Force.Decision-th route call returns
	// its Force.Rank-th scored alternative instead of the argmin, with
	// every other decision re-decided live by the policy.
	Force *ForcedChoice
}

// admissionWatermark is the occupancy fraction above which OnDemand mode
// stops admitting: vLLM keeps headroom so fresh admissions don't
// immediately force preemptions of running sequences.
const admissionWatermark = 0.95

// RunContinuous serves the trace with iteration-level (continuous)
// batching on one GPU: a one-instance cluster on the caller's KV
// allocator (paged when nil), prefix cache and session store, with no
// circuit breaker, served through Run's arrival, drain and report path.
// A single GPU makes no routing decisions, so Decisions and Force must
// be nil.
func RunContinuous(gpu GPUConfig, reqs []workload.Request, opts ContinuousOpts) (*Report, error) {
	rep, _, err := runContinuous(gpu, reqs, opts)
	return rep, err
}

// runContinuous is RunContinuous, also returning the drained cluster.
func runContinuous(gpu GPUConfig, reqs []workload.Request, opts ContinuousOpts) (*Report, *cluster, error) {
	cfg := ClusterConfig{GPU: gpu, Instances: 1, Opts: opts}
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	if opts.Decisions != nil || opts.Force != nil {
		return nil, nil, fmt.Errorf("%w: one GPU makes no routing decisions; ContinuousOpts.Decisions and .Force need Run", ErrConfig)
	}
	ordered := arrivalOrder(reqs)
	c := newCluster(cfg, len(ordered))
	c.addInstance(0, opts)
	return &c.run(ordered).Report, c, nil
}
