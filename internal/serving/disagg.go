package serving

import (
	"fmt"

	"dataai/internal/obs"
	"dataai/internal/sim"
	"dataai/internal/workload"
)

// DisaggOpts configures RunDisaggregated.
type DisaggOpts struct {
	// PrefillGPUs and DecodeGPUs split a fixed device budget between the
	// two phases — the DistServe/Splitwise architecture.
	PrefillGPUs int
	DecodeGPUs  int
	// Trace, when non-nil, records the run's timeline: prefill-pool and
	// decode-pool iteration spans plus per-request lifecycle phases
	// (queue → prefill → transfer → queue → decode). Nil (the default)
	// changes nothing and costs nothing.
	Trace *obs.Tracer
}

// RunDisaggregated serves the trace with prefill and decode on separate
// GPU pools. Prefill instances each process one prompt at a time FCFS;
// finished KV ships to decode instances round-robin in readiness order;
// decode GPUs batch continuously and are never stalled by a prefill.
// The KV transfer streams layer-wise behind the prefill computation, the
// common optimization of [19, 45], so a sequence is ready to decode the
// moment its prefill ends. Both pools run on one shared sim.Engine
// clock: arrivals claim the earliest-available prefill GPU, and each
// transfer-completion event hands the sequence to the decode pool. A
// request no decode GPU could ever hold is rejected at arrival, before
// its prefill.
func RunDisaggregated(gpu GPUConfig, reqs []workload.Request, opts DisaggOpts) (*Report, error) {
	if err := gpu.Validate(); err != nil {
		return nil, err
	}
	if opts.PrefillGPUs < 1 || opts.DecodeGPUs < 1 {
		return nil, fmt.Errorf("%w: pool sizes %d/%d", ErrConfig, opts.PrefillGPUs, opts.DecodeGPUs)
	}
	ordered := arrivalOrder(reqs)

	eng := sim.NewEngine()
	perPool := make([][]Result, opts.DecodeGPUs)
	pools := make([]*decodeInstance, opts.DecodeGPUs)
	for i := range pools {
		i := i
		pools[i] = &decodeInstance{
			id: i, gpu: gpu, kv: NewPagedKV(gpu), eng: eng,
			onFinish: func(float64) *Result { return nextResult(&perPool[i]) },
		}
		if opts.Trace != nil {
			pools[i].trace = opts.Trace
			pools[i].track = fmt.Sprintf("decode%d", i)
		}
	}

	// Prefill pool state: per-GPU next-free time, advanced in arrival
	// order (the engine fires arrivals in exactly that order).
	prefillFree := make([]float64, opts.PrefillGPUs)
	nextPool := 0
	capacityTokens := pools[0].kv.Capacity() * gpu.BlockSize
	var rejected []Result
	// One ArgHandler takes every arrival; its argument is the request's
	// index in the trace, which is also the request's KV handle.
	arrive := func(now float64, idx uint64) {
		r := ordered[idx]
		if neverFits(&r, capacityTokens, gpu.MaxSeqLen) {
			traceRejectArrival(opts.Trace, now, r)
			rejected = append(rejected, Result{Req: r, Rejected: true})
			return
		}
		// Earliest-available prefill GPU.
		g := 0
		for i := 1; i < len(prefillFree); i++ {
			if prefillFree[i] < prefillFree[g] {
				g = i
			}
		}
		start := now
		if prefillFree[g] > start {
			start = prefillFree[g]
		}
		end := start + gpu.prefillMS(r.PromptTokens)
		prefillFree[g] = end
		job := decodeJob{req: r, idx: int(idx), firstToken: end}
		if tr := opts.Trace; tr != nil {
			// The prefill pool's schedule is fully decided here, so its
			// spans are recorded now with their (future) logical times;
			// the exporter's (time, seq) sort puts them in place.
			gSpan := tr.Begin(start, fmt.Sprintf("prefill%d", g), obs.CatGPU, "prefill", 0)
			tr.End(end, gSpan)
			job.root = tr.Begin(now, reqTrack(r), obs.CatRequest, "request", 0)
			q := tr.Begin(now, reqTrack(r), obs.CatRequest, "queue", job.root)
			tr.End(start, q)
			p := tr.Begin(start, reqTrack(r), obs.CatRequest, "prefill", job.root)
			tr.End(end, p)
			job.transfer = tr.Begin(end, reqTrack(r), obs.CatRequest, "transfer", job.root)
		}
		// The transfer completes with the prefill: hand the sequence to
		// the decode pool round-robin.
		eng.At(end, func(now float64) {
			opts.Trace.End(now, job.transfer)
			p := pools[nextPool%len(pools)]
			nextPool++
			p.arrive(now, job)
		})
	}
	eng.Stream(len(ordered), func(i int) float64 { return ordered[i].ArrivalMS }, arrive)
	eng.Run()

	results := make([]Result, 0, len(ordered)) // every request resolves once
	results = append(results, rejected...)
	peak := 0
	for i, pool := range pools {
		for _, d := range pool.waiting {
			if tr := opts.Trace; tr != nil {
				tr.End(eng.Now(), d.phase)
				tr.EndReason(eng.Now(), d.job.root, "reject")
			}
			perPool[i] = append(perPool[i], Result{Req: d.job.req, Rejected: true})
		}
		results = append(results, perPool[i]...)
		peak += pool.kv.PeakBlocks()
	}
	rep := buildReport(results)
	rep.PeakKVBlocks = peak
	return rep, nil
}

// decodeInstance is one decode-pool GPU as an event process: it batches
// decode-only iterations over sequences whose KV arrived by transfer,
// reproducing the historical per-pool loop step for step.
type decodeInstance struct {
	id  int
	gpu GPUConfig
	kv  KVManager
	eng *sim.Engine

	waiting []*dstate
	running []*dstate
	busy    bool

	// trace/track mirror instance's observability seam (nil/"" when
	// tracing is off).
	trace *obs.Tracer
	track string

	// onFinish returns the slot a finished sequence's Result is written
	// into.
	onFinish func(now float64) *Result
}

type dstate struct {
	job       decodeJob
	generated int
	finishMS  float64
	// phase is the open lifecycle child span (queue, then decode) under
	// job.root when tracing is on.
	phase obs.SpanRef
}

func (di *decodeInstance) finish(now float64, d *dstate) {
	di.kv.Free(d.job.idx)
	if di.trace != nil {
		di.trace.End(now, d.phase)
		d.phase = 0
		di.trace.EndReason(now, d.job.root, "finish")
	}
	di.onFinish(d.finishMS).served(&d.job.req, d.job.firstToken, d.finishMS, d.job.req.PromptTokens, di.id)
}

// arrive queues a transferred sequence. An idle instance defers its wake
// to a same-instant event so that simultaneous transfers are all queued
// before the boundary runs — exactly the historical loop's clock jump.
func (di *decodeInstance) arrive(now float64, job decodeJob) {
	d := &dstate{job: job, generated: 1} // token 1 came from prefill
	if di.trace != nil {
		d.phase = di.trace.Begin(now, reqTrack(job.req), obs.CatRequest, "queue", job.root)
	}
	di.waiting = append(di.waiting, d)
	if !di.busy {
		di.busy = true
		di.eng.After(0, func(t float64) {
			di.busy = false
			di.step(t)
		})
	}
}

// step runs an iteration boundary: finalize zero-decode sequences, admit
// what fits, then start the next decode iteration or go idle.
func (di *decodeInstance) step(now float64) {
	keep := di.waiting[:0]
	for _, d := range di.waiting {
		if d.job.req.OutputTokens <= 1 {
			// The prefill's token was the whole output.
			d.finishMS = d.job.firstToken
			di.kv.Alloc(d.job.idx, 0)
			di.finish(now, d)
			continue
		}
		keep = append(keep, d)
	}
	di.waiting = keep

	admitted := di.waiting[:0]
	for _, d := range di.waiting {
		if (di.gpu.MaxBatch == 0 || len(di.running) < di.gpu.MaxBatch) &&
			di.kv.Alloc(d.job.idx, d.job.req.PromptTokens+d.job.req.OutputTokens) {
			if di.trace != nil {
				di.trace.End(now, d.phase)
				d.phase = di.trace.Begin(now, reqTrack(d.job.req), obs.CatRequest, "decode", d.job.root)
			}
			di.running = append(di.running, d)
			continue
		}
		admitted = append(admitted, d)
	}
	di.waiting = admitted

	if len(di.running) == 0 {
		di.busy = false
		return // idle: the next transfer re-kicks; stuck waiters reject at drain
	}
	di.busy = true
	iterSpan := di.trace.Begin(now, di.track, obs.CatGPU, "decode", 0)
	di.eng.At(now+di.gpu.decodeIterMS(len(di.running)), func(end float64) {
		di.trace.End(end, iterSpan)
		di.endIter(end)
	})
}

func (di *decodeInstance) endIter(now float64) {
	still := di.running[:0]
	for _, d := range di.running {
		d.generated++
		d.finishMS = now
		if d.generated >= d.job.req.OutputTokens {
			di.finish(now, d)
			continue
		}
		still = append(still, d)
	}
	di.running = still
	di.step(now)
}

// decodeJob is a prefilled sequence in flight to the decode pool.
type decodeJob struct {
	req workload.Request
	// idx is the request's index in the arrival-ordered trace: its KV
	// handle on the decode pool.
	idx        int
	firstToken float64
	// root and transfer are the request's lifecycle spans when tracing
	// is on: transfer closes on delivery.
	root, transfer obs.SpanRef
}
