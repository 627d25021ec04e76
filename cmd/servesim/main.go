// Command servesim runs the LLM-serving simulator on a synthetic trace and
// prints latency/throughput/goodput for a chosen scheduler configuration.
//
// Usage:
//
//	servesim -policy continuous -n 400 -rate 50
//	servesim -policy chunked -chunk 128
//	servesim -policy disagg -prefill 2 -decode 2
//	servesim -policy static -batch 16
//	servesim -policy routed -instances 4 -router breaker-aware -faults severe
//	servesim -policy routed -spec multi-tenant -admission reject -sched priority
//	servesim -policy routed -faults severe -trace out.json -parallel 8
//	servesim -policy routed -faults severe -domains 4 -ckpt-every 8 -migrate
//	servesim -policy routed -faults severe -decisions -counterfactual-k 2 -regret-top 5
//	servesim -sweep -parallel 8
//
// The recovery flags drive the crash-survivable serving stack: -domains R
// overlays correlated fault domains (racks of R instances crash together,
// with a post-crash overload cascade on survivors) on the chosen fault
// plan, -ckpt-every K checkpoints decode state every K mixed iterations so
// crash-rerouted sequences resume from the host-side store instead of
// re-prefilling from token zero, and -migrate turns on the periodic live
// migration scan that drains long sequences off distressed instances.
//
// -trace writes the run's request timeline as Chrome trace-event JSON
// (load it at https://ui.perfetto.dev). The trace is checked against the
// structural invariants in internal/obs before it is written. -parallel N
// runs N identical replicas concurrently and verifies their traces are
// byte-identical — the simulator's determinism contract — before emitting
// replica 0's bytes.
//
// -spec multi-tenant swaps the single anonymous stream for the canonical
// three-tenant mix (workload.DefaultMultiTenant): an interactive "chat"
// tenant plus two bursty batch tenants. -admission picks the router's
// per-tenant token-bucket policy (none | reject | queue, buckets weighted
// by each tenant's purchased rate fraction) and -sched the batch-formation
// order (fcfs | priority | sjf; priority and sjf admit interactive
// sequences first and may preempt a batch-class slot for them). With a
// multi-tenant spec the report adds interactive-class latency, per-tenant
// admission/service rows, and the weighted Jain fairness index.
//
// -decisions records the router's per-decision log (request, scored
// candidates, chosen instance); with -trace it also annotates each
// request's span with its decision seq and verifies the decision
// invariants. -counterfactual-k K prices every decision by replaying the
// identical run with that one decision forced to each rank in [2, K]
// (all other decisions re-decided live) and reports per-decision regret:
// the mean-TTFT and goodput delta the recorded choice saved. -regret-top
// N bounds the printed most-expensive-decisions table; -parallel N fans
// the replay batch over N workers with byte-identical output.
//
// -sweep runs the routed configuration over the full router × fault-plan
// × load grid (27 cells) via sim.Sweep and prints one labeled row per
// cell. -parallel N runs N cells concurrently; because every cell owns
// its engine and writes only its own output slot, the printed bytes are
// identical at any worker count (scripts/check.sh diffs serial vs 8).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"

	"dataai/internal/metrics"
	"dataai/internal/obs"
	"dataai/internal/par"
	"dataai/internal/serving"
	"dataai/internal/sim"
	"dataai/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("servesim: ")
	policy := flag.String("policy", "continuous", "static | continuous | chunked | disagg | routed")
	n := flag.Int("n", 400, "number of requests")
	rate := flag.Float64("rate", 50, "arrival rate (req/s)")
	seed := flag.Int64("seed", 1, "trace seed")
	batch := flag.Int("batch", 16, "static batch size")
	chunk := flag.Int("chunk", 128, "chunked prefill chunk tokens")
	prefill := flag.Int("prefill", 2, "disagg: prefill GPUs")
	decode := flag.Int("decode", 2, "disagg: decode GPUs")
	instances := flag.Int("instances", 4, "routed: cluster instance count")
	router := flag.String("router", "round-robin", "routed: round-robin | cache-aware | breaker-aware")
	faultsArg := flag.String("faults", "none", "routed: cluster fault plan (none | medium | severe)")
	faultSeed := flag.Uint64("fault-seed", 7, "routed: fault plan seed")
	domains := flag.Int("domains", 0, "routed: rack size for correlated fault domains (0 = independent draws)")
	migrate := flag.Bool("migrate", false, "routed: enable live session migration off distressed instances")
	ckptEvery := flag.Int("ckpt-every", 0, "routed: checkpoint decode state every K mixed iterations (0 = off)")
	spec := flag.String("spec", "", `workload spec: "" = single anonymous stream | multi-tenant`)
	admission := flag.String("admission", "none", "routed: per-tenant token-bucket admission (none | reject | queue)")
	sched := flag.String("sched", "fcfs", "batch formation order (fcfs | priority | sjf)")
	ttftSLO := flag.Float64("slo-ttft", 1000, "TTFT SLO (ms)")
	tbtSLO := flag.Float64("slo-tbt", 12, "TBT SLO (ms)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON timeline to this path")
	replicas := flag.Int("parallel", 1, "with -trace: identical replicas to run concurrently for the byte-identity self-check; with -sweep: grid worker count; with -counterfactual-k: replay worker count")
	sweep := flag.Bool("sweep", false, "run the routed router×faults×load grid instead of a single configuration")
	decisions := flag.Bool("decisions", false, "routed: record the per-decision routing log (with -trace, annotate request spans and check the decision invariants)")
	counterK := flag.Int("counterfactual-k", 0, "routed: price every routing decision by counterfactual replay against ranks 2..K (0 = off, minimum 2)")
	regretTop := flag.Int("regret-top", 10, "with -counterfactual-k: list the N most expensive decisions")
	flag.Parse()

	if (*decisions || *counterK != 0) && *policy != "routed" {
		log.Fatalf("-decisions and -counterfactual-k need -policy routed (decisions live at the router)")
	}
	if *counterK != 0 && *counterK < 2 {
		log.Fatalf("-counterfactual-k %d: need at least 2 (rank 1 is the recorded choice)", *counterK)
	}
	if *counterK != 0 && *tracePath != "" {
		log.Fatal("-counterfactual-k does not combine with -trace (the replay batch runs untraced)")
	}

	if *sweep {
		if err := runSweep(os.Stdout, *seed, *n, *instances, *chunk, *faultSeed,
			*replicas, *ttftSLO, *tbtSLO); err != nil {
			log.Fatal(err)
		}
		return
	}

	var reqs []workload.Request
	var weights map[string]float64 // tenant → purchased rate fraction
	var err error
	switch *spec {
	case "":
		reqs, err = workload.Generate(workload.DefaultTrace(*seed, *n, *rate))
	case "multi-tenant":
		ws := workload.DefaultMultiTenant(*seed, *n, *rate)
		weights = make(map[string]float64, len(ws.Clients))
		for _, c := range ws.Clients {
			weights[c.TenantID] = c.RateFraction
		}
		reqs, err = workload.GenerateSpec(ws)
	default:
		log.Fatalf("unknown spec %q (want \"\" or multi-tenant)", *spec)
	}
	if err != nil {
		log.Fatal(err)
	}

	var schedPol serving.SchedPolicy
	switch *sched {
	case "fcfs":
		schedPol = serving.SchedFCFS
	case "priority":
		schedPol = serving.SchedPriority
	case "sjf":
		schedPol = serving.SchedSJF
	default:
		log.Fatalf("unknown sched %q (want fcfs, priority, or sjf)", *sched)
	}
	preempt := schedPol != serving.SchedFCFS
	if preempt && (*policy == "static" || *policy == "disagg") {
		log.Fatalf("-sched %s needs a continuous-batching policy (continuous, chunked, or routed)", *sched)
	}

	// The bucket charges prompt+output trace tokens; these demo allowances
	// match E25 (a burst of ~half a second of cluster output, sustained
	// refill just under the saturation rate), scaled per tenant by its
	// purchased fraction.
	adm := serving.AdmissionConfig{}
	switch *admission {
	case "none":
	case "reject", "queue":
		adm = serving.AdmissionConfig{
			Policy:       serving.AdmitReject,
			BurstTokens:  30000,
			RefillPerSec: 36000,
			Weights:      weights,
		}
		if *admission == "queue" {
			adm.Policy = serving.AdmitQueue
			adm.MaxQueueMS = 2000
		}
		if *policy != "routed" {
			log.Fatalf("-admission %s needs -policy routed (admission lives at the router)", *admission)
		}
	default:
		log.Fatalf("unknown admission %q (want none, reject, or queue)", *admission)
	}
	gpu := serving.DefaultGPU()
	opts := serving.ContinuousOpts{Sched: schedPol, PreemptBatch: preempt}
	if *policy == "chunked" || *policy == "routed" {
		opts.ChunkTokens = *chunk
	}
	// The routed flags become one cluster configuration, which every
	// replica and replay shares: a fault plan is only read during a run.
	var cluster serving.ClusterConfig
	if *policy == "routed" {
		cluster = serving.ClusterConfig{GPU: gpu, Instances: *instances, Opts: opts, Admission: adm,
			Recovery: serving.RecoveryConfig{CkptEveryIters: *ckptEvery, Migrate: *migrate}}
		switch *router {
		case "round-robin":
			cluster.Router = serving.RoundRobin
		case "cache-aware":
			cluster.Router = serving.CacheAware
		case "breaker-aware":
			cluster.Router = serving.BreakerAware
		default:
			log.Fatalf("unknown router %q", *router)
		}
		switch *faultsArg {
		case "none":
		case "medium":
			cluster.Faults = serving.MediumFaultPlan(*faultSeed)
		case "severe":
			cluster.Faults = serving.SevereFaultPlan(*faultSeed)
		default:
			log.Fatalf("unknown fault plan %q", *faultsArg)
		}
		if *domains > 0 {
			if cluster.Faults == nil {
				log.Fatal("-domains needs a fault plan (-faults medium|severe)")
			}
			cluster.Faults.Correlate(*domains)
		}
	}

	runOnce := func(tr *obs.Tracer, dl *obs.DecisionLog) (*serving.Report, *serving.RoutedReport, error) {
		switch *policy {
		case "static":
			if tr != nil {
				return nil, nil, fmt.Errorf("-trace is not supported for the static policy (no event engine)")
			}
			rep, err := serving.RunStatic(gpu, reqs, *batch)
			return rep, nil, err
		case "continuous", "chunked":
			o := opts
			o.Trace = tr
			rep, err := serving.RunContinuous(gpu, reqs, o)
			return rep, nil, err
		case "disagg":
			rep, err := serving.RunDisaggregated(gpu, reqs, serving.DisaggOpts{
				PrefillGPUs: *prefill, DecodeGPUs: *decode, Trace: tr,
			})
			return rep, nil, err
		case "routed":
			c := cluster
			c.Opts.Trace, c.Opts.Decisions = tr, dl
			routed, err := serving.Run(c, reqs)
			if routed != nil {
				return &routed.Report, routed, err
			}
			return nil, nil, err
		default:
			return nil, nil, fmt.Errorf("unknown policy %q", *policy)
		}
	}

	var rep *serving.Report
	var routed *serving.RoutedReport
	var dlog *obs.DecisionLog
	switch {
	case *counterK >= 2:
		// Counterfactual pricing: the baseline run records the decision
		// log, then every decision is replayed forced to each rank in
		// [2, K] and priced against the baseline (see serving.ReplayRegret).
		routed, err = serving.ReplayRegret(cluster, reqs,
			serving.ReplayConfig{MaxRank: *counterK, Workers: *replicas,
				TTFTSLOms: *ttftSLO, TBTSLOms: *tbtSLO, TopN: *regretTop})
		if err != nil {
			log.Fatal(err)
		}
		rep = &routed.Report
	case *tracePath == "":
		if *decisions {
			dlog = obs.NewDecisionLog()
		}
		rep, routed, err = runOnce(nil, dlog)
		if err != nil {
			log.Fatal(err)
		}
	default:
		rep, routed, err = runTraced(runOnce, *tracePath, *replicas, *decisions)
		if err != nil {
			log.Fatal(err)
		}
	}

	t := metrics.NewTable(fmt.Sprintf("servesim: %s (%d reqs @ %.0f/s)", *policy, *n, *rate),
		"metric", "value")
	t.AddRowf("throughput (tok/s)", rep.Throughput())
	t.AddRowf("makespan (ms)", rep.MakespanMS)
	t.AddRowf("p50 TTFT (ms)", rep.TTFT.P50())
	t.AddRowf("p95 TTFT (ms)", rep.TTFT.P95())
	t.AddRowf("p50 TBT (ms)", rep.TBT.P50())
	t.AddRowf("p95 TBT (ms)", rep.TBT.P95())
	t.AddRowf(fmt.Sprintf("goodput @ (%.0f, %.0f)ms", *ttftSLO, *tbtSLO), rep.Goodput(*ttftSLO, *tbtSLO))
	t.AddRowf("peak KV blocks", rep.PeakKVBlocks)
	t.AddRowf("rejected", rep.Rejected)
	if *spec == "multi-tenant" {
		inter := rep.ClassTTFT(workload.Interactive)
		t.AddRowf("interactive p99 TTFT (ms)", inter.P99())
		t.AddRowf(fmt.Sprintf("interactive attain @ %.0fms", *ttftSLO), inter.FractionBelow(*ttftSLO))
		t.AddRowf("batch output tok", rep.ClassOutputTokens(workload.Batch))
	}
	if dlog != nil {
		t.AddRowf("decisions recorded", dlog.Len())
	}
	if routed != nil {
		t.AddRowf("preemptions", routed.Preemptions)
		t.AddRowf("prefix hits/misses", fmt.Sprintf("%d/%d", routed.PrefixHits, routed.PrefixMisses))
		t.AddRowf("rerouted", routed.Rerouted)
		t.AddRowf("crashes", routed.Crashes)
		if *ckptEvery > 0 || *migrate {
			t.AddRowf("wasted recompute (tok)", routed.WastedRecomputeTokens)
			t.AddRowf("resumed from ckpt", routed.ResumedFromCkpt)
			t.AddRowf("migrations", routed.Migrations)
		}
		if adm.Policy != serving.AdmitAll {
			t.AddRowf("adm rejected / delayed",
				fmt.Sprintf("%d/%d", routed.AdmissionRejected, routed.AdmissionDelayed))
		}
		if len(routed.Tenants) > 0 {
			xs := make([]float64, 0, len(routed.Tenants))
			ws := make([]float64, 0, len(routed.Tenants))
			for _, ts := range routed.Tenants {
				t.AddRowf("tenant "+ts.Tenant, fmt.Sprintf(
					"admitted %d rejected %d served %d output tok %d",
					ts.Admitted, ts.AdmissionRejected, ts.Served, ts.OutputTokens))
				xs = append(xs, float64(ts.OutputTokens))
				ws = append(ws, weights[ts.Tenant])
			}
			t.AddRowf("jain (weighted by paid share)", metrics.JainWeighted(xs, ws))
		}
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if routed != nil && routed.Regret != nil {
		if err := renderRegret(os.Stdout, routed.Regret); err != nil {
			log.Fatal(err)
		}
	}
}

// renderRegret prints the counterfactual-replay summary and the
// most-expensive-decisions table. Both are pure functions of the regret
// summary, which ReplayRegret guarantees is identical at every
// -parallel count.
func renderRegret(w io.Writer, reg *serving.RegretSummary) error {
	t := metrics.NewTable(
		fmt.Sprintf("decision regret (counterfactual replay, ranks 2..%d)", reg.MaxRank),
		"metric", "value")
	t.AddRowf("decisions / replays", fmt.Sprintf("%d/%d", reg.Decisions, reg.Replays))
	t.AddRowf("total regret (mean-TTFT ms)", reg.TotalRegretMS)
	rerouteShare := 0.0
	if reg.TotalRegretMS > 0 {
		rerouteShare = reg.RerouteRegretMS / reg.TotalRegretMS
	}
	t.AddRowf("reroute-decision share", rerouteShare)
	t.AddRowf(fmt.Sprintf("goodput regret @ (%.0f, %.0f)ms", reg.TTFTSLOms, reg.TBTSLOms),
		reg.TotalGoodputRegret)
	t.AddRowf("improvable decisions", reg.Improvable)
	t.AddRowf("top-10% regret share", reg.TopShare)
	if err := t.Render(w); err != nil {
		return err
	}
	top := metrics.NewTable(fmt.Sprintf("top %d decisions by regret", len(reg.Top)),
		"seq", "t (ms)", "kind", "request", "chosen", "regret (ms)", "best Δ (ms)", "goodput Δ")
	for _, dr := range reg.Top {
		d := dr.Decision
		top.AddRowf(d.Seq, d.AtMS, d.Kind, d.ReqID, d.Chosen,
			dr.RegretMS, dr.BestDeltaMS, dr.GoodputRegret)
	}
	return top.Render(w)
}

// runSweep runs the routed configuration over every cell of the
// router-policy × fault-plan × load grid with sim.Sweep and writes one
// labeled metrics row per cell, in grid order. Each cell generates its
// own trace (same seed, its own arrival rate) and runs on its own
// engine, so the output is a pure function of the flags: serial and
// -parallel 8 runs print byte-identical rows.
func runSweep(w io.Writer, seed int64, n, instances, chunk int, faultSeed uint64, workers int, ttftSLO, tbtSLO float64) error {
	grid := sim.Grid{Dims: []sim.Dim{
		{Name: "router", Values: []string{"round-robin", "cache-aware", "breaker-aware"}},
		{Name: "faults", Values: []string{"none", "medium", "severe"}},
		{Name: "load", Values: []string{"25", "50", "100"}},
	}}
	policies := map[string]serving.RouterPolicy{
		"round-robin":   serving.RoundRobin,
		"cache-aware":   serving.CacheAware,
		"breaker-aware": serving.BreakerAware,
	}
	gpu := serving.DefaultGPU()
	type cellOut struct {
		line string
		err  error
	}
	cells := sim.Sweep(grid, workers, func(cell int, coords []int) cellOut {
		rate, err := strconv.ParseFloat(grid.Value(2, cell), 64)
		if err != nil {
			return cellOut{err: err}
		}
		reqs, err := workload.Generate(workload.DefaultTrace(seed, n, rate))
		if err != nil {
			return cellOut{err: err}
		}
		var plan *serving.FaultPlan
		switch grid.Value(1, cell) {
		case "medium":
			plan = serving.MediumFaultPlan(faultSeed)
		case "severe":
			plan = serving.SevereFaultPlan(faultSeed)
		}
		routed, err := serving.Run(serving.ClusterConfig{GPU: gpu, Instances: instances,
			Router: policies[grid.Value(0, cell)], Opts: serving.ContinuousOpts{ChunkTokens: chunk}, Faults: plan}, reqs)
		if err != nil {
			return cellOut{err: err}
		}
		rep := &routed.Report
		return cellOut{line: fmt.Sprintf(
			"%-52s thpt=%8.1f tok/s  p50ttft=%8.2f ms  p95tbt=%7.2f ms  goodput=%5.3f  rejected=%4d  crashes=%3d\n",
			grid.Label(cell), rep.Throughput(), rep.TTFT.P50(), rep.TBT.P95(),
			rep.Goodput(ttftSLO, tbtSLO), rep.Rejected, routed.Crashes)}
	})
	// The header deliberately omits the worker count: the sweep output is
	// a pure function of the simulation flags, diffable across -parallel.
	fmt.Fprintf(w, "servesim sweep: %d cells (%d reqs each, %d instances, chunk %d)\n",
		grid.Cells(), n, instances, chunk)
	for cell, c := range cells {
		if c.err != nil {
			return fmt.Errorf("cell %d (%s): %w", cell, grid.Label(cell), c.err)
		}
		if _, err := io.WriteString(w, c.line); err != nil {
			return err
		}
	}
	return nil
}

// runTraced runs `replicas` identical traced replicas concurrently,
// verifies every replica exported byte-identical trace JSON and that the
// trace passes the structural invariant checker, then writes replica 0's
// bytes to path. With decisions on, every replica records its own
// decision log, which the tracer attachment folds into both the span
// args and the invariant check.
func runTraced(runOnce func(*obs.Tracer, *obs.DecisionLog) (*serving.Report, *serving.RoutedReport, error), path string, replicas int, decisions bool) (*serving.Report, *serving.RoutedReport, error) {
	if replicas < 1 {
		replicas = 1
	}
	type replica struct {
		rep    *serving.Report
		routed *serving.RoutedReport
		trace  []byte
		err    error
	}
	runs := par.Map(replicas, replicas, func(i int) replica {
		tr := obs.NewTracer()
		var dl *obs.DecisionLog
		if decisions {
			dl = obs.NewDecisionLog()
		}
		rep, routed, err := runOnce(tr, dl)
		if err != nil {
			return replica{err: err}
		}
		if err := tr.Check(); err != nil {
			return replica{err: fmt.Errorf("trace invariants: %w", err)}
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			return replica{err: err}
		}
		return replica{rep: rep, routed: routed, trace: buf.Bytes()}
	})
	for i, r := range runs {
		if r.err != nil {
			return nil, nil, fmt.Errorf("replica %d: %w", i, r.err)
		}
		if !bytes.Equal(r.trace, runs[0].trace) {
			return nil, nil, fmt.Errorf("determinism violation: replica %d trace differs from replica 0", i)
		}
	}
	if err := os.WriteFile(path, runs[0].trace, 0o644); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "servesim: wrote %s (%d bytes, %d replica(s) byte-identical)\n",
		path, len(runs[0].trace), replicas)
	return runs[0].rep, runs[0].routed, nil
}
