package serving

import (
	"fmt"

	"dataai/internal/obs"
	"dataai/internal/sim"
	"dataai/internal/workload"
)

// instance is one GPU running iteration-level continuous batching as an
// event-driven process on a shared sim.Engine. It reproduces, step for
// step, the scheduling loop RunContinuous historically ran standalone —
// admission, dedicated vs chunked prefill, OnDemand preemption — so a
// single instance on a fresh engine yields byte-identical reports; what
// the engine adds is that many instances (and a router, and fault
// windows) can now share one cluster-wide clock.
//
// The instance schedules exactly one event at a time: the end of its
// current iteration. Arrivals land in the waiting queue as engine events
// and are admitted at iteration boundaries, exactly when the historical
// loop ingested them.
//
// The schedule/fire path is allocation-free in steady state: iteration
// events reuse three ArgHandlers bound once at construction (the event
// argument carries the epoch; per-event state like the pending prefill
// sequence lives in pendPrefill/pendCompleting, which is safe because
// the instance has at most one live iteration event — stale pre-crash
// events fail the epoch check before reading anything), the waiting and
// prefill queues are ring deques, and sequences come from a free-listed
// pool (seqpool.go).
//
// In reserve-full mode a decode step costs O(1), plus O(log n) for each
// sequence that finishes in it, plus one O(len(running)) compaction of
// the batch on steps where something finishes, instead of a visit per
// running sequence on every step: the instance counts its steps, a
// running sequence records the count it joined at, and its generated
// count and finish time are brought up to date only where they are read
// (sync). Finishers come off a min-heap keyed by the step of their last
// token. OnDemand mode
// must grow every sequence's KV each step, so it keeps a pass over the
// batch (decodeOnDemand) and its sequences are always current.
type instance struct {
	id   int
	gpu  GPUConfig
	opts ContinuousOpts
	kv   KVManager
	eng  *sim.Engine
	pool *seqPool

	waiting  seqRing
	prefillQ seqRing
	running  []*seqState

	// steps counts the reserve-full decode steps applied, and stepMS is
	// the end time of the last one. fin holds one entry per join to
	// running, keyed by (step of the last token, join stamp); entries of
	// sequences that left early are stale and skipped when popped.
	steps  int
	stepMS float64
	fin    finHeap

	// load is the incrementally maintained sum of seqLoad over every
	// sequence the instance owns (waiting + prefillQ + running). The
	// router reads it on every routing decision, so recomputing it by
	// scanning the queues is quadratic under backlog; instead every
	// ownership change and every seqLoad-relevant field mutation adjusts
	// it in place. queueLoadScan (a test helper) is the reference
	// implementation.
	load int

	// busy is true while an iteration-end event is scheduled.
	busy bool
	// down is true inside a crash window (cluster fault plans only).
	down bool
	// slow is the straggler cost multiplier (1 = healthy); it scales
	// every iteration scheduled while active.
	slow float64
	// epoch invalidates in-flight iteration events across a crash.
	epoch uint64

	// kickH, prefillEndH, and mixedEndH are the instance's reusable event
	// handlers; pendPrefill and pendCompleting carry the live iteration
	// event's payload.
	kickH, prefillEndH, mixedEndH sim.ArgHandler
	pendPrefill                   *seqState
	pendCompleting                bool

	// kvFree recycles the instance's KV handles and kvNext is the next
	// unused one. Handles are dense per instance, so an allocator's
	// handle table spans the sequences this instance holds at once, not
	// every live sequence of the run.
	kvFree []int
	kvNext int
	// tally, when non-nil, is the cluster's shared KV occupancy, and
	// kvGauge, when traced, the instance's kv_used_blocks gauge: every
	// allocator call settles both (kvSettle).
	tally   *clusterTally
	kvGauge *obs.Metric

	preemptions int

	// rec, when non-nil, is the cluster's shared crash-recovery policy
	// and accounting (ckpt.go); the cluster installs it after
	// construction. sinceCkpt counts mixed iterations since the last
	// checkpoint capture.
	rec       *recovery
	sinceCkpt int

	// trace, when non-nil, records the instance's timeline (see
	// trace.go); track is its span-track name, depthGauge its live
	// queue-depth gauge, and iterSpan the currently open iteration span
	// (closed by the iteration-end event, or by crash with the event
	// invalidated). breakerGauge is its breaker-state gauge, resolved on
	// first use so the registry gains it with the first recorded state.
	trace        *obs.Tracer
	track        string
	depthGauge   *obs.Metric
	iterSpan     obs.SpanRef
	breakerGauge *obs.Metric

	// onFinish is told of every completed sequence and returns the slot
	// its Result is written into.
	onFinish func(now float64) *Result
	// onDrop receives the sequences lost to a crash, in drop order, for
	// the cluster router to re-route; nil for an instance built outside
	// a cluster.
	onDrop func(now float64, dropped []*seqState)
}

// newInstance builds an idle instance on eng. A nil opts.KV gets a
// private paged allocator, mirroring RunContinuous's default. pool
// recycles finished sequences and issues the run's join stamps; it is
// shared by every instance of a run, and may be nil only for an
// instance that never serves.
func newInstance(id int, gpu GPUConfig, opts ContinuousOpts, eng *sim.Engine, pool *seqPool, onFinish func(float64) *Result) *instance {
	kv := opts.KV
	if kv == nil {
		kv = NewPagedKV(gpu)
	}
	in := &instance{id: id, gpu: gpu, opts: opts, kv: kv, eng: eng, pool: pool, slow: 1, onFinish: onFinish}
	in.kickH = in.onKick
	in.prefillEndH = in.onPrefillEnd
	in.mixedEndH = in.onMixedEnd
	if opts.Trace != nil {
		in.trace = opts.Trace
		in.track = fmt.Sprintf("gpu%d", id)
		reg := opts.Trace.Registry()
		in.depthGauge = reg.Gauge(in.track + "/queue_depth")
		reg.Gauge(in.track+obs.KVCapacitySuffix).Set(eng.Now(), float64(kv.Capacity()))
		in.kvGauge = reg.Gauge(in.track + obs.KVUsedSuffix)
	}
	return in
}

func (in *instance) active() int { return in.prefillQ.Len() + len(in.running) }

// join appends s, which has emitted its first token and has more to
// emit, to the running batch. In reserve-full mode s records the step
// count it is current at and a fresh stamp from the run's pool, and is
// queued on the finish heap under the step of its last token.
func (in *instance) join(now float64, s *seqState) {
	in.tracePhase(now, s, "decode")
	in.running = append(in.running, s)
	if in.opts.OnDemand {
		return
	}
	in.pool.stamps++
	s.stamp = in.pool.stamps
	s.joinStep = in.steps
	in.fin.push(finEntry{step: in.steps + s.req.OutputTokens - s.generated, stamp: s.stamp, s: s})
}

// generatedNow is a running sequence's generated count as of the
// instance's last decode step, without writing it back.
func (in *instance) generatedNow(s *seqState) int {
	return s.generated + in.steps - s.joinStep
}

// sync brings a running sequence's generated count and finish time up
// to the instance's last decode step. It is a no-op in OnDemand mode,
// where steps stays zero.
func (in *instance) sync(s *seqState) {
	if d := in.steps - s.joinStep; d > 0 {
		s.generated += d
		s.finishMS = in.stepMS
		s.joinStep = in.steps
	}
}

// leave syncs a running sequence that is leaving the batch before its
// last token (migration, slot preemption, crash) and voids its finish
// heap entry.
func (in *instance) leave(s *seqState) {
	in.sync(s)
	s.stamp = 0
}

// seqLoad is one sequence's outstanding token work: remaining prefill
// plus remaining decode.
func seqLoad(s *seqState) int {
	remaining := s.req.OutputTokens - s.generated
	if remaining < 0 {
		remaining = 0
	}
	if s.admitted {
		return s.prefillLeft + remaining
	}
	return s.req.PromptTokens - s.saved + s.generated + remaining
}

// queueLoad is the router's live-load signal: tokens of outstanding work
// across every sequence the instance currently owns, waiting included.
// It is O(1): the load field tracks the queueLoadScan sum exactly.
func (in *instance) queueLoad() int { return in.load }

// queueDepth is the router's congestion signal: sequences owned.
func (in *instance) queueDepth() int { return in.waiting.Len() + in.active() }

// arrive enqueues a routed request. An idle instance defers its wake to
// a same-instant event, so that simultaneous arrivals are all queued
// before the boundary runs — the event-driven analogue of the historical
// loop jumping its clock to the next arrival and ingesting everything due.
func (in *instance) arrive(now float64, s *seqState) {
	in.waiting.PushBack(s)
	in.load += seqLoad(s)
	in.traceArrive(now, s)
	in.kick()
}

// kick schedules an immediate iteration boundary on an idle instance.
func (in *instance) kick() {
	if in.busy || in.down {
		return
	}
	in.busy = true
	in.eng.AfterArg(0, in.kickH, in.epoch)
}

// onKick is the kick event's handler; the argument is the epoch the
// event was scheduled in.
func (in *instance) onKick(t float64, epoch uint64) {
	if in.epoch != epoch {
		return
	}
	in.busy = false
	in.step(t)
}

// kvAlloc reserves KV for s under a free handle, reporting false (and
// keeping the handle free) when the reservation does not fit.
func (in *instance) kvAlloc(s *seqState, tokens int) bool {
	if len(in.kvFree) == 0 {
		in.kvFree = append(in.kvFree, in.kvNext)
		in.kvNext++
	}
	h := in.kvFree[len(in.kvFree)-1]
	before := in.kv.UsedBlocks()
	ok := in.kv.Alloc(h, tokens)
	in.kvSettle(before)
	if !ok {
		return false
	}
	in.kvFree = in.kvFree[:len(in.kvFree)-1]
	s.kvh = h
	return true
}

// kvExtend grows s's reservation to tokens, reporting false on
// exhaustion.
func (in *instance) kvExtend(s *seqState, tokens int) bool {
	before := in.kv.UsedBlocks()
	ok := in.kv.Extend(s.kvh, tokens)
	in.kvSettle(before)
	return ok
}

// kvRelease frees every block s holds and recycles its handle.
func (in *instance) kvRelease(s *seqState) {
	before := in.kv.UsedBlocks()
	in.kv.Free(s.kvh)
	in.kvSettle(before)
	in.kvFree = append(in.kvFree, s.kvh)
}

// kvSettle records one allocator call, made with before blocks in use:
// it moves the cluster's simultaneous-occupancy tally by the call's
// delta and sets the traced kv_used_blocks gauge. Every call records a
// gauge point, a failed Alloc and an Extend that grows nothing
// included: the pinned traces hold those points.
func (in *instance) kvSettle(before int) {
	used := in.kv.UsedBlocks()
	if t := in.tally; t != nil {
		t.used += used - before
		t.peak = max(t.peak, t.used)
	}
	in.kvGauge.Set(in.eng.Now(), float64(used))
}

// admit mirrors the historical admission rule: cache lookups happen on
// first admission only, OnDemand reserves behind the watermark, the
// default reserves the oracle footprint.
func (in *instance) admit(now float64, s *seqState) bool {
	if in.gpu.MaxBatch > 0 && in.active() >= in.gpu.MaxBatch {
		return false
	}
	resumed := 0     // checkpointed context tokens this admission restores
	recomputed := 0  // previously computed tokens lost and re-prefilled here
	if !s.admitted { // cache lookups happen once, not on re-admission
		if in.opts.Prefix != nil {
			s.saved = in.opts.Prefix.SavedTokens(s.req.PrefixID, s.req.PrefixTokens)
		}
		if in.opts.SessionCache != nil {
			if hit := in.opts.SessionCache.Lookup(now, s.req.Session, s.req.HistoryTokens, s.req.PromptTokens); hit > s.saved {
				s.saved = hit
			}
		}
		// generated > 0 only for crash-dropped or migrated sequences
		// being re-admitted elsewhere: context KV not covered by a cache
		// or checkpoint must be recomputed, exactly as after a
		// preemption.
		total := s.req.PromptTokens + s.generated
		cover := s.saved
		restore := 0
		if in.rec != nil {
			if ctx := s.ckpt; ctx > 0 {
				if ctx > total {
					ctx = total
				}
				if ctx > cover {
					// Resume from the host-side checkpoint: the covered
					// context ships back to the device, priced in
					// prefill-token equivalents like every other
					// transfer in the store.
					cover = ctx
					restore = int(float64(ctx) * restoreMSPerToken * in.gpu.PrefillTokensPerMS)
					resumed = ctx
				}
			}
		}
		s.prefillLeft = total - cover + restore
		recomputed = total - cover
		if done := s.prefilled + s.generated; recomputed > done {
			recomputed = done // never computed more than this: cap the waste
		}
		if in.trace != nil && s.saved > 0 {
			in.trace.Registry().Counter(in.track+"/cache_saved_tokens").Add(now, float64(s.saved))
		}
	}
	if in.opts.OnDemand {
		// Admit behind the watermark, reserving only what must be
		// prefilled now (plus already-generated tokens of a resumed
		// sequence).
		if float64(in.kv.UsedBlocks()) >= admissionWatermark*float64(in.kv.Capacity()) {
			return false
		}
		if !in.kvAlloc(s, s.prefillLeft+s.generated) {
			return false
		}
	} else {
		// Oracle reservation of the full eventual footprint.
		need := s.req.PromptTokens - s.saved + s.req.OutputTokens
		if resumed > 0 {
			// Checkpoint-restored context replaces part of the prompt
			// recompute: reserve what will actually be materialized.
			need = s.prefillLeft + s.req.OutputTokens - s.generated
		}
		if !in.kvAlloc(s, need) {
			return false
		}
	}
	s.admitted = true
	s.preempted = false
	if in.rec != nil && (s.crashDropped || s.migrated) {
		in.rec.wasted += recomputed
		if s.crashDropped {
			in.rec.recoveryMS.Add(now - s.droppedAtMS)
		}
		if resumed > 0 {
			in.rec.resumes++
			if in.trace != nil {
				in.trace.Registry().Counter("router/resume_from_checkpoint").Add(now, 1)
			}
		}
	}
	s.crashDropped, s.migrated = false, false
	return true
}

// preempt frees every block the victim holds (all-or-nothing), marks it
// preempted for the rest of the current iteration pass, and requeues it
// at the head of the waiting queue; a later prefill recomputes its
// prompt plus everything it had generated.
func (in *instance) preempt(now float64, v *seqState) {
	in.kvRelease(v)
	before := seqLoad(v)
	v.preempted = true
	v.prefillLeft = v.req.PromptTokens - v.saved + v.generated
	in.load += seqLoad(v) - before
	in.waiting.PushFront(v)
	in.preemptions++
	if in.trace != nil {
		in.trace.Instant(now, in.track, "preempt")
		in.tracePhase(now, v, "queue")
	}
}

func (in *instance) finish(now float64, s *seqState) {
	in.kvRelease(s)
	if in.opts.SessionCache != nil && s.req.Session != "" {
		in.opts.SessionCache.Store(now, s.req.Session, s.req.PromptTokens+s.req.OutputTokens)
	}
	in.traceFinish(now, s)
	in.onFinish(now).served(&s.req, s.firstTokenMS, s.finishMS, s.prefilled, in.id)
	in.pool.put(s) // nothing references s past its Result; drops its checkpoint
}

// step runs at an iteration boundary: admit FCFS, then start the next
// iteration or go idle. One call reproduces one pass of the historical
// RunContinuous loop; the engine's (time, seq) order delivers arrivals
// exactly where the loop used to ingest them.
func (in *instance) step(now float64) {
	if in.down {
		in.busy = false
		return
	}
	for in.waiting.Len() > 0 {
		// The scheduling policy picks the candidate (FCFS picks the head
		// without scanning); it leaves the queue before the admission
		// attempt so a slot preemption's PushFront cannot shift its index.
		s := in.waiting.RemoveAt(in.nextWaiting())
		// admit mutates saved/prefillLeft even when the KV allocation
		// fails, so the load delta applies on both outcomes.
		before := seqLoad(s)
		ok := in.admit(now, s)
		in.load += seqLoad(s) - before
		if !ok && in.opts.PreemptBatch && s.req.SLOClass == workload.Interactive {
			// Evict batch-class running sequences (most recent first)
			// until the interactive candidate fits or none remain.
			for !ok && in.preemptForSlot(now) {
				before = seqLoad(s)
				ok = in.admit(now, s)
				in.load += seqLoad(s) - before
			}
		}
		if !ok {
			in.waiting.PushFront(s)
			break
		}
		in.tracePhase(now, s, "prefill")
		in.prefillQ.PushBack(s)
	}
	if in.active() == 0 {
		in.busy = false
		return // idle: the next arrival (or recovery) re-kicks
	}
	in.busy = true

	if in.opts.ChunkTokens == 0 && in.prefillQ.Len() > 0 {
		// Dedicated prefill iteration: one whole prompt; decodes stall
		// behind it. Effects (including the pop) apply at the end so a
		// crash mid-prefill drops the sequence with everything else.
		s := in.prefillQ.Front()
		iterMS := in.gpu.prefillMS(s.prefillLeft) * in.slow
		in.iterSpan = in.trace.Begin(now, in.track, obs.CatGPU, "prefill", 0)
		in.pendPrefill = s
		in.eng.AtArg(now+iterMS, in.prefillEndH, in.epoch)
		return
	}

	// Periodic decode-state checkpoint: every CkptEveryIters mixed
	// iterations, ship each running sequence's newly covered context
	// tokens to the host-side store. The write cost rides this
	// iteration; it is PCIe traffic, not GPU compute, so the straggler
	// factor does not scale it (added after the slowdown below).
	ckptMS := 0.0
	if in.rec != nil && in.rec.cfg.CkptEveryIters > 0 && len(in.running) > 0 {
		in.sinceCkpt++
		if in.sinceCkpt >= in.rec.cfg.CkptEveryIters {
			in.sinceCkpt = 0
			delta := 0
			for _, rs := range in.running {
				in.sync(rs)
				delta += in.rec.save(rs, rs.req.PromptTokens+rs.generated)
			}
			if delta > 0 {
				ckptMS = float64(delta) * ckptMSPerToken
				if in.trace != nil {
					in.trace.Registry().Counter(in.track+"/ckpt_tokens").Add(now, float64(delta))
				}
			}
		}
	}

	// One mixed iteration: an optional prefill chunk plus one decode
	// step for every running sequence. Chunk bookkeeping applies now,
	// as the historical loop did; decode effects at the iteration end.
	var iterMS float64
	completing := false
	chunked := false
	if in.opts.ChunkTokens > 0 && in.prefillQ.Len() > 0 {
		s := in.prefillQ.Front()
		chunk := in.opts.ChunkTokens
		if chunk > s.prefillLeft {
			chunk = s.prefillLeft
		}
		iterMS += in.gpu.prefillMS(chunk)
		s.prefillLeft -= chunk
		s.prefilled += chunk
		in.load -= chunk
		chunked = true
		completing = s.prefillLeft == 0 // first token lands at iteration end
	}
	if len(in.running) > 0 {
		iterMS += in.gpu.decodeIterMS(len(in.running))
	}
	if iterMS == 0 {
		iterMS = in.gpu.DecodeBaseMS // defensive: never stall the clock
	}
	iterMS *= in.slow
	iterMS += ckptMS
	iterName := "decode"
	if chunked {
		iterName = "prefill"
		if len(in.running) > 0 {
			iterName = "prefill+decode"
		}
	}
	in.iterSpan = in.trace.Begin(now, in.track, obs.CatGPU, iterName, 0)
	in.pendCompleting = completing
	in.eng.AtArg(now+iterMS, in.mixedEndH, in.epoch)
}

// onPrefillEnd is the dedicated prefill iteration's end event.
func (in *instance) onPrefillEnd(end float64, epoch uint64) {
	if in.epoch != epoch {
		return
	}
	in.trace.End(end, in.iterSpan)
	in.iterSpan = 0
	s := in.pendPrefill
	in.pendPrefill = nil
	in.endPrefill(end, s)
}

// onMixedEnd is the mixed iteration's end event.
func (in *instance) onMixedEnd(end float64, epoch uint64) {
	if in.epoch != epoch {
		return
	}
	in.trace.End(end, in.iterSpan)
	in.iterSpan = 0
	in.endMixed(end, in.pendCompleting)
}

// endPrefill applies a dedicated prefill iteration's effects. The
// prefill emits the first token unless this is a preempted sequence
// being recomputed, whose first token was already served.
func (in *instance) endPrefill(now float64, s *seqState) {
	in.prefillQ.PopFront()
	before := seqLoad(s)
	s.prefilled += s.prefillLeft
	s.prefillLeft = 0
	if s.generated == 0 {
		s.generated = 1
		s.firstTokenMS = now
	}
	s.finishMS = now
	if s.req.OutputTokens <= s.generated {
		in.load -= before
		in.finish(now, s)
	} else {
		in.load += seqLoad(s) - before
		in.join(now, s)
	}
	in.step(now)
}

// endMixed applies a mixed iteration's decode step, then the completing
// prefill's first token.
func (in *instance) endMixed(now float64, completing bool) {
	var comp *seqState
	if completing {
		comp = in.prefillQ.PopFront()
	}
	if in.opts.OnDemand {
		in.decodeOnDemand(now)
	} else {
		in.decodeStep(now)
	}
	if comp != nil && !comp.preempted {
		before := seqLoad(comp)
		if comp.generated == 0 {
			comp.generated = 1
			comp.firstTokenMS = now
		}
		comp.finishMS = now
		if comp.req.OutputTokens <= comp.generated {
			in.load -= before
			in.finish(now, comp)
		} else {
			in.load += seqLoad(comp) - before
			in.join(now, comp)
		}
	}
	in.step(now)
}

// decodeStep applies one reserve-full decode step to the running batch
// without visiting it. Every running sequence has prefillLeft == 0 and
// at least one token left, so each one's seqLoad falls by exactly one:
// the load falls by len(running). The sequences whose last token this
// step emits come off the finish heap in (step, stamp) order, and stamp
// order is running-slice order (joins append, removals keep the
// relative order), so they finish in the order a pass over the batch
// would finish them. running is compacted after the last finish, so the
// trace's depth gauge still counts the batch the step ran.
func (in *instance) decodeStep(now float64) {
	in.steps++
	in.stepMS = now
	in.load -= len(in.running)
	finished := false
	for len(in.fin) > 0 && in.fin[0].step <= in.steps {
		e := in.fin.pop()
		if e.s.stamp != e.stamp {
			continue // left the batch early, or rejoined since
		}
		in.sync(e.s)
		e.s.stamp = 0
		finished = true
		in.finish(now, e.s)
	}
	if !finished {
		return
	}
	kept := in.running[:0]
	for _, s := range in.running {
		if s.stamp != 0 {
			kept = append(kept, s)
		}
	}
	clear(in.running[len(kept):])
	in.running = kept
}

// finEntry is one join to an instance's running batch: the step at
// which the sequence emits its last token, and the join's stamp. The
// entry is live while s.stamp == stamp.
type finEntry struct {
	step  int
	stamp uint64
	s     *seqState
}

// finHeap is a min-heap of finEntry ordered by (step, stamp), typed like
// sim's overflowHeap so a push boxes nothing.
type finHeap []finEntry

func finLess(a, b finEntry) bool {
	return a.step < b.step || (a.step == b.step && a.stamp < b.stamp)
}

func (h *finHeap) push(e finEntry) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !finLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *finHeap) pop() finEntry {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && finLess(s[l], s[min]) {
			min = l
		}
		if r < n && finLess(s[r], s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// decodeOnDemand applies one OnDemand decode step, a pass over the
// running batch: each sequence emits a token and grows its KV by it,
// and KV exhaustion preempts all-or-nothing. Preemption marks are
// per-pass: preempt sets the sequence's preempted flag and the next
// successful admission clears it, so a sequence marked by an earlier
// index of this loop is skipped for the rest of the pass — exactly the
// per-call set the historical code kept (without its per-iteration map
// allocation).
func (in *instance) decodeOnDemand(now float64) {
	stillRunning := in.running[:0]
	for idx, s := range in.running {
		if s.preempted {
			continue
		}
		before := seqLoad(s)
		s.generated++
		s.finishMS = now
		if s.generated >= s.req.OutputTokens {
			in.load -= before
			in.finish(now, s)
			continue
		}
		in.load += seqLoad(s) - before
		ok := true
		for !in.kvExtend(s, s.req.PromptTokens-s.saved+s.generated) {
			// Victim: the most recently admitted running sequence that
			// is not s and not already preempted.
			var victim *seqState
			for j := len(in.running) - 1; j > idx; j-- {
				if !in.running[j].preempted {
					victim = in.running[j]
					break
				}
			}
			if victim == nil {
				// No lower-priority sequence to evict: all-or-nothing
				// now applies to s itself — free everything it holds
				// and recompute it later.
				in.preempt(now, s)
				ok = false
				break
			}
			in.preempt(now, victim)
		}
		if !ok {
			continue
		}
		stillRunning = append(stillRunning, s)
	}
	in.running = stillRunning
}

// crash drops the instance: every owned sequence (in-flight first, then
// the waiting queue) is surrendered through onDrop with its KV freed and
// its cache savings forgotten, the in-flight iteration is invalidated,
// and GPU-resident cache state (prefix cache, session store GPU tier)
// dies with the device.
func (in *instance) crash(now float64) {
	in.down = true
	in.busy = false
	in.epoch++
	in.pendPrefill = nil
	if in.trace != nil {
		// The in-flight iteration's end event is invalidated with the
		// epoch, so its span must close here or dangle.
		in.trace.EndReason(now, in.iterSpan, "crash")
		in.iterSpan = 0
		in.trace.Instant(now, in.track, "crash")
	}
	dropped := make([]*seqState, 0, in.prefillQ.Len()+len(in.running)+in.waiting.Len())
	for i := 0; i < in.prefillQ.Len(); i++ {
		s := in.prefillQ.At(i)
		in.kvRelease(s)
		// Admitted sequences held device state the crash destroyed; mark
		// them so the next admission samples recovery latency and wasted
		// recompute. Waiting sequences held nothing, so they reroute
		// unmarked.
		s.crashDropped, s.droppedAtMS = true, now
		dropped = append(dropped, s)
	}
	for _, s := range in.running {
		in.leave(s)
		in.kvRelease(s)
		s.crashDropped, s.droppedAtMS = true, now
		dropped = append(dropped, s)
	}
	in.fin = in.fin[:0]
	in.sinceCkpt = 0
	for i := 0; i < in.waiting.Len(); i++ {
		dropped = append(dropped, in.waiting.At(i)) // never admitted: hold no KV
	}
	in.prefillQ.Clear()
	in.waiting.Clear()
	for i := range in.running {
		in.running[i] = nil
	}
	in.running = in.running[:0]
	in.load = 0 // every owned sequence just left; resets below touch unowned seqs
	if in.opts.Prefix != nil {
		in.opts.Prefix.Invalidate()
	}
	if in.opts.SessionCache != nil {
		in.opts.SessionCache.DropGPU()
	}
	for _, s := range dropped {
		// Emitted tokens were already streamed to the client and are
		// kept; their KV (and any cache savings) must be recomputed
		// wherever the sequence lands next.
		s.admitted = false
		s.preempted = false
		s.saved = 0
		s.prefillLeft = 0
		// The reroute hop spans detection delay + routing; it closes when
		// the sequence arrives at its next instance.
		in.tracePhase(now, s, "reroute")
	}
	if in.onDrop != nil && len(dropped) > 0 {
		in.onDrop(now, dropped)
	}
	if in.trace != nil {
		in.traceDepth(now)
	}
}

// recoverAt brings a crashed instance back empty; anything queued while
// it was down (routed by a policy that kept trying) starts immediately.
func (in *instance) recoverAt(now float64) {
	in.down = false
	if in.waiting.Len() > 0 {
		in.kick()
	}
}

// setSlowdown applies a straggler window's cost factor; it takes effect
// from the next scheduled iteration.
func (in *instance) setSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	in.slow = factor
}
