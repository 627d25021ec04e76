package experiments

import (
	"fmt"

	"dataai/internal/metrics"
	"dataai/internal/obs"
	"dataai/internal/serving"
	"dataai/internal/sim"
)

func init() {
	register("E11", "Static vs continuous vs chunked-prefill batching (§2.3.2)", runE11)
	register("E12", "Prefill/decode disaggregation goodput (DistServe, §2.3.2)", runE12)
	register("E13", "Paged KV cache and prefix sharing (vLLM/Prompt Cache, §2.3.2)", runE13)
	register("E14", "KV store eviction policies and hierarchy (AttentionStore, §2.3.2)", runE14)
	register("E15", "KV cache vs per-step recomputation (§2.3.2)", runE15)
	register("E21", "KV-cache-aware request routing (Mooncake, §2.3.2)", runE21)
	registerX("E23", "Routing policies under cluster fault plans (§2.3.2)", runE23)
	registerX("E24", "Crash recovery: checkpoints, migration, correlated faults (§2.3.2)", runE24)
}

func runE11() (*metrics.Table, error) {
	gpu := serving.DefaultGPU()
	reqs, err := batchingWorkload()
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("E11: batching policies (400 reqs @ 40/s)",
		"policy", "throughput (tok/s)", "p50 TTFT (ms)", "p95 TTFT", "p50 TBT", "p95 TBT")
	addRow := func(name string, rep *serving.Report) {
		t.AddRowf(name, rep.Throughput(), rep.TTFT.P50(), rep.TTFT.P95(), rep.TBT.P50(), rep.TBT.P95())
	}
	static, err := serving.RunStatic(gpu, reqs, 16)
	if err != nil {
		return nil, err
	}
	addRow("static (batch=16)", static)
	cont, err := serving.RunContinuous(gpu, reqs, serving.ContinuousOpts{})
	if err != nil {
		return nil, err
	}
	addRow("continuous (Orca)", cont)
	for _, chunk := range []int{64, 128, 256} {
		rep, err := serving.RunContinuous(gpu, reqs, serving.ContinuousOpts{ChunkTokens: chunk})
		if err != nil {
			return nil, err
		}
		addRow(fmt.Sprintf("chunked prefill (%d tok)", chunk), rep)
	}
	return t, nil
}

func runE12() (*metrics.Table, error) {
	gpu := serving.DefaultGPU()
	reqs, err := overloadWorkload()
	if err != nil {
		return nil, err
	}
	const ttftSLO, tbtSLO = 1000, 12
	t := metrics.NewTable(
		fmt.Sprintf("E12: 4-GPU budget, goodput @ SLO(TTFT<=%.0fms, TBT<=%.0fms), 100 req/s", float64(ttftSLO), float64(tbtSLO)),
		"architecture", "p95 TTFT", "p95 TBT", "goodput")
	colo, err := serving.Run(serving.ClusterConfig{GPU: gpu, Instances: 4, Router: serving.RoundRobin}, reqs)
	if err != nil {
		return nil, err
	}
	t.AddRowf("colocated 4x", colo.TTFT.P95(), colo.TBT.P95(), colo.Goodput(ttftSLO, tbtSLO))
	for _, split := range [][2]int{{1, 3}, {2, 2}, {3, 1}} {
		rep, err := serving.RunDisaggregated(gpu, reqs, serving.DisaggOpts{
			PrefillGPUs: split[0], DecodeGPUs: split[1],
		})
		if err != nil {
			return nil, err
		}
		t.AddRowf(fmt.Sprintf("disaggregated %dP+%dD", split[0], split[1]),
			rep.TTFT.P95(), rep.TBT.P95(), rep.Goodput(ttftSLO, tbtSLO))
	}
	return t, nil
}

func runE13() (*metrics.Table, error) {
	gpu := serving.DefaultGPU()
	gpu.KVBlocks = 512
	t := metrics.NewTable("E13: KV allocation and prefix reuse",
		"configuration", "max concurrent (256p+64o)", "makespan (ms)", "mean TTFT", "prefill tokens")

	reqs, err := pagedKVWorkload()
	if err != nil {
		return nil, err
	}
	contigRep, err := serving.RunContinuous(gpu, reqs, serving.ContinuousOpts{KV: serving.NewContiguousKV(gpu)})
	if err != nil {
		return nil, err
	}
	t.AddRowf("contiguous prealloc",
		serving.MaxConcurrent(serving.NewContiguousKV(gpu), 256, 64),
		contigRep.MakespanMS, contigRep.TTFT.Mean(), contigRep.PrefillTokens)
	pagedRep, err := serving.RunContinuous(gpu, reqs, serving.ContinuousOpts{KV: serving.NewPagedKV(gpu)})
	if err != nil {
		return nil, err
	}
	t.AddRowf("paged (vLLM)",
		serving.MaxConcurrent(serving.NewPagedKV(gpu), 256, 64),
		pagedRep.MakespanMS, pagedRep.TTFT.Mean(), pagedRep.PrefillTokens)
	onDemandRep, err := serving.RunContinuous(gpu, reqs, serving.ContinuousOpts{
		KV: serving.NewPagedKV(gpu), OnDemand: true,
	})
	if err != nil {
		return nil, err
	}
	t.AddRowf(fmt.Sprintf("paged on-demand (%d preemptions)", onDemandRep.Preemptions),
		serving.MaxConcurrent(serving.NewPagedKV(gpu), 256, 64),
		onDemandRep.MakespanMS, onDemandRep.TTFT.Mean(), onDemandRep.PrefillTokens)
	prefixRep, err := serving.RunContinuous(gpu, reqs, serving.ContinuousOpts{
		KV: serving.NewPagedKV(gpu), Prefix: serving.NewPrefixCache(),
	})
	if err != nil {
		return nil, err
	}
	t.AddRowf("paged + prefix cache",
		serving.MaxConcurrent(serving.NewPagedKV(gpu), 256, 64),
		prefixRep.MakespanMS, prefixRep.TTFT.Mean(), prefixRep.PrefillTokens)
	return t, nil
}

func runE14() (*metrics.Table, error) {
	gpu := serving.DefaultGPU()
	reqs, err := conversationWorkload()
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("E14: conversation KV store (multi-turn trace)",
		"store", "hit rate", "saved tokens", "mean TTFT (ms)")
	plain, err := serving.RunContinuous(gpu, reqs, serving.ContinuousOpts{})
	if err != nil {
		return nil, err
	}
	t.AddRowf("none (re-prefill history)", 0.0, 0, plain.TTFT.Mean())

	type armSpec struct {
		name string
		cfg  serving.SessionStoreConfig
	}
	arms := []armSpec{
		{"GPU-only LRU (2k tok)", serving.SessionStoreConfig{GPUCapacityTokens: 2000, Policy: serving.LRU}},
		{"GPU-only LFU (2k tok)", serving.SessionStoreConfig{GPUCapacityTokens: 2000, Policy: serving.LFU}},
		{"GPU-only TreeLRU (2k tok)", serving.SessionStoreConfig{GPUCapacityTokens: 2000, Policy: serving.TreeLRU}},
		{"hierarchical LRU, blocking xfer", serving.SessionStoreConfig{
			GPUCapacityTokens: 2000, CPUCapacityTokens: 1 << 20,
			Policy: serving.LRU, TransferMSPerToken: 0.02}},
		{"hierarchical LRU, overlapped xfer", serving.SessionStoreConfig{
			GPUCapacityTokens: 2000, CPUCapacityTokens: 1 << 20,
			Policy: serving.LRU, TransferMSPerToken: 0.02, OverlapTransfer: true}},
	}
	for _, a := range arms {
		a.cfg.PrefillTokensPerMS = gpu.PrefillTokensPerMS
		store, err := serving.NewSessionStore(a.cfg)
		if err != nil {
			return nil, err
		}
		rep, err := serving.RunContinuous(gpu, reqs, serving.ContinuousOpts{SessionCache: store})
		if err != nil {
			return nil, err
		}
		t.AddRowf(a.name, store.HitRate(), store.SavedTokens, rep.TTFT.Mean())
	}
	return t, nil
}

func runE15() (*metrics.Table, error) {
	m := serving.DefaultDecodeCost()
	t := metrics.NewTable("E15: KV cache vs recomputing K/V each step (256-token prompt)",
		"output tokens", "with KV cache (ms)", "without (ms)", "speedup")
	for _, out := range []int{16, 64, 256, 1024} {
		with, err := m.GenerateLatencyMS(256, out, true)
		if err != nil {
			return nil, err
		}
		without, err := m.GenerateLatencyMS(256, out, false)
		if err != nil {
			return nil, err
		}
		t.AddRowf(out, with, without, metrics.Ratio(without, with))
	}
	return t, nil
}

func runE21() (*metrics.Table, error) {
	gpu := serving.DefaultGPU()
	reqs, err := routingWorkload()
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("E21: multi-instance routing (4 instances, 8 shared prefixes)",
		"router", "prefix hit rate", "prefill tokens", "mean TTFT (ms)", "p95 TTFT")
	for _, pol := range []serving.RouterPolicy{serving.RoundRobin, serving.CacheAware, serving.BreakerAware} {
		rep, err := serving.Run(serving.ClusterConfig{GPU: gpu, Instances: 4, Router: pol}, reqs)
		if err != nil {
			return nil, err
		}
		hitRate := 0.0
		if rep.PrefixHits+rep.PrefixMisses > 0 {
			hitRate = float64(rep.PrefixHits) / float64(rep.PrefixHits+rep.PrefixMisses)
		}
		t.AddRowf(pol.String(), hitRate, rep.PrefillTokens, rep.TTFT.Mean(), rep.TTFT.P95())
	}
	return t, nil
}

func runE23() (*Output, error) {
	// The same trace under three routing policies and three cluster fault
	// plans, on the shared discrete-event clock. Goodput is the DistServe
	// measure at SLO(TTFT<=1500ms, TBT<=25ms); faults are pure functions
	// of (plan seed, instance, window), so every cell is reproducible.
	gpu := serving.DefaultGPU()
	reqs, err := faultWorkload()
	if err != nil {
		return nil, err
	}
	const ttftSLO, tbtSLO = 1500, 25
	t := metrics.NewTable(
		fmt.Sprintf("E23: routing under cluster faults (4 instances, 600 reqs @ 60/s, SLO TTFT<=%.0fms TBT<=%.0fms)",
			float64(ttftSLO), float64(tbtSLO)),
		"faults", "router", "goodput", "p50 TTFT (ms)", "p99 TTFT", "p99 TBT", "preempt", "rerouted", "crashes")
	plans := []struct {
		name string
		plan *serving.FaultPlan
	}{
		{"none", nil},
		{"medium", serving.MediumFaultPlan(2303)},
		{"severe", serving.SevereFaultPlan(2303)},
	}
	// The severe cells run traced (tracing only observes, so their rows
	// are unchanged) for the time breakdown below.
	policies := []serving.RouterPolicy{serving.RoundRobin, serving.CacheAware, serving.BreakerAware}
	severe := make([]*obs.Tracer, len(policies))
	for _, pc := range plans {
		for i, pol := range policies {
			opts := serving.ContinuousOpts{ChunkTokens: 256}
			if pc.name == "severe" {
				severe[i] = obs.NewTracer()
				opts.Trace = severe[i]
			}
			rep, err := serving.Run(serving.ClusterConfig{GPU: gpu, Instances: 4, Router: pol,
				Opts: opts, Faults: pc.plan}, reqs)
			if err != nil {
				return nil, err
			}
			t.AddRowf(pc.name, pol.String(), rep.Goodput(ttftSLO, tbtSLO),
				rep.TTFT.P50(), rep.TTFT.P99(), rep.TBT.P99(),
				rep.Preemptions, rep.Rerouted, rep.Crashes)
		}
	}

	// Where does a request's time go under the severe plan? Each policy's
	// severe trace folds its request spans into per-phase summaries. The
	// reroute column is the crash tax: time between a crash dropping a
	// sequence and another instance queueing it.
	bt := metrics.NewTable("E23 time breakdown under the severe plan (per-request phase ms)",
		"router", "queue mean", "queue p99", "prefill mean", "prefill p99",
		"decode mean", "decode p99", "reroute mean", "reroute p99")
	for i, tr := range severe {
		if err := tr.Check(); err != nil {
			return nil, fmt.Errorf("E23 trace invariants (%s): %w", policies[i], err)
		}
		_, byPhase := obs.PhaseBreakdown(tr)
		cells := []interface{}{policies[i].String()}
		for _, phase := range []string{"queue", "prefill", "decode", "reroute"} {
			s := byPhase[phase]
			if s == nil {
				s = &metrics.Summary{}
			}
			cells = append(cells, s.Mean(), s.P99())
		}
		bt.AddRowf(cells...)
	}
	return &Output{Tables: []*metrics.Table{t, bt}, Trace: severe[len(severe)-1]}, nil
}

// e24Grid is the E24 recovery-policy × fault-plan product. The sweep
// reads cells by dimension name (ValueNamed), so the axes can be
// reordered without silently misreading a cell.
func e24Grid() sim.Grid {
	return sim.Grid{Dims: []sim.Dim{
		{Name: "faults", Values: []string{"independent", "rack", "cascade"}},
		{Name: "recovery", Values: []string{"reroute-only", "checkpoint", "ckpt+migrate"}},
	}}
}

// e24Plan maps a fault-plan cell value to its plan: "independent" is the
// E23 severe plan (per-instance draws), "rack" adds correlated
// rack-crash draws (8 instances in racks of 4 — one draw can take out
// half the cluster), "cascade" additionally slows the survivors in
// proportion to how many instances are down.
func e24Plan(name string) *serving.FaultPlan {
	switch name {
	case "independent":
		return serving.SevereFaultPlan(2403)
	case "rack":
		return serving.CorrelatedFaultPlan(2403, 4)
	default:
		return serving.CascadeFaultPlan(2403, 4)
	}
}

// e24Recovery maps a recovery-policy cell value to its config. Every arm
// shares the same tiered prefix cache, so the goodput and wasted-token
// gaps isolate checkpointing and migration rather than cache geometry.
func e24Recovery(name string) serving.RecoveryConfig {
	rec := serving.RecoveryConfig{PrefixGPUTokens: 1024, PrefixCPUTokens: 8192}
	switch name {
	case "checkpoint":
		rec.CkptEveryIters = 8
	case "ckpt+migrate":
		rec.CkptEveryIters = 8
		rec.Migrate = true
		rec.HotLoadFactor = 3
		rec.MigrateMinTokens = 128
	}
	return rec
}

func runE24() (*Output, error) { return runE24Workers(3) }

// runE24Workers runs the E24 grid on the given number of sweep workers.
// The rendered output is identical at every worker count — sim.Sweep
// commits each cell into its own slot — which the worker-invariance
// test pins.
func runE24Workers(workers int) (*Output, error) {
	gpu := serving.DefaultGPU()
	reqs, err := recoveryWorkload()
	if err != nil {
		return nil, err
	}
	const ttftSLO, tbtSLO = 1500, 25
	grid := e24Grid()
	type cellOut struct {
		rep *serving.RoutedReport
		tr  *obs.Tracer // the cascade cells' trace, for the breakdown
		err error
	}
	cells := sim.Sweep(grid, workers, func(cell int, coords []int) cellOut {
		var out cellOut
		faults := grid.ValueNamed("faults", cell)
		if faults == "cascade" {
			out.tr = obs.NewTracer() // tracing only observes: the row is unchanged
		}
		out.rep, out.err = serving.Run(serving.ClusterConfig{GPU: gpu, Instances: 8, Router: serving.BreakerAware,
			Opts:     serving.ContinuousOpts{ChunkTokens: 256, Trace: out.tr},
			Faults:   e24Plan(faults),
			Recovery: e24Recovery(grid.ValueNamed("recovery", cell))}, reqs)
		return out
	})
	t := metrics.NewTable(
		fmt.Sprintf("E24: crash recovery (8 instances, racks of 4, 900 reqs @ 75/s, SLO TTFT<=%.0fms TBT<=%.0fms)",
			float64(ttftSLO), float64(tbtSLO)),
		"faults", "recovery", "goodput", "wasted tok", "p99 TTFT (ms)", "recovery p50 (ms)",
		"resumed", "migrations", "demotions", "crashes")
	for cell, co := range cells {
		if co.err != nil {
			return nil, co.err
		}
		rep := co.rep
		t.AddRowf(grid.ValueNamed("faults", cell), grid.ValueNamed("recovery", cell),
			rep.Goodput(ttftSLO, tbtSLO), rep.WastedRecomputeTokens,
			rep.TTFT.P99(), rep.RecoveryMS.P50(),
			rep.ResumedFromCkpt, rep.Migrations, rep.PrefixDemotions, rep.Crashes)
	}

	// Where does recovery time go under the cascade plan? Each arm's
	// cascade trace folds its request spans into per-phase summaries. The
	// migrate column only fills in for the ckpt+migrate arm; reroute is
	// the crash tax checkpoints shrink.
	bt := metrics.NewTable("E24 time breakdown under the cascade plan (per-request phase ms)",
		"recovery", "queue mean", "prefill mean", "decode mean",
		"reroute mean", "reroute p99", "migrate mean", "migrate p99")
	var lastTrace *obs.Tracer
	for cell, co := range cells {
		tr := co.tr
		if tr == nil {
			continue
		}
		arm := grid.ValueNamed("recovery", cell)
		if err := tr.Check(); err != nil {
			return nil, fmt.Errorf("E24 trace invariants (%s): %w", arm, err)
		}
		_, byPhase := obs.PhaseBreakdown(tr)
		row := []interface{}{arm}
		for _, phase := range []string{"queue", "prefill", "decode"} {
			s := byPhase[phase]
			if s == nil {
				s = &metrics.Summary{}
			}
			row = append(row, s.Mean())
		}
		for _, phase := range []string{"reroute", "migrate"} {
			s := byPhase[phase]
			if s == nil {
				s = &metrics.Summary{}
			}
			row = append(row, s.Mean(), s.P99())
		}
		bt.AddRowf(row...)
		lastTrace = tr
	}
	return &Output{Tables: []*metrics.Table{t, bt}, Trace: lastTrace}, nil
}
