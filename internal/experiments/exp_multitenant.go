package experiments

import (
	"fmt"

	"dataai/internal/metrics"
	"dataai/internal/obs"
	"dataai/internal/serving"
	"dataai/internal/sim"
	"dataai/internal/workload"
)

func init() {
	registerX("E25", "Multi-tenant admission control and SLO-class scheduling (§2.3.2)", runE25)
}

// E25 answers the ROADMAP question the multi-tenant refactor opened: can
// a cluster hold interactive p99 TTFT inside its SLO while batch tenants
// saturate it? The grid crosses admission policy (none, token-bucket
// reject, token-bucket queue) with batch-formation policy (FCFS,
// class-priority, class-SJF — the latter two with batch-slot preemption)
// at two loads. The interactive tenant buys 30% of the rate; the bucket
// weights match purchased fractions, so Jain's index over
// fraction-normalized served tokens reads 1 as "everyone got what they
// paid for".

// e25TTFTSLOms is the interactive tenant's TTFT bound.
const e25TTFTSLOms = 500

// e25Instances is the cluster width every cell runs on.
const e25Instances = 4

func e25Grid() sim.Grid {
	return sim.Grid{Dims: []sim.Dim{
		{Name: "load", Values: []string{"moderate", "saturate"}},
		{Name: "admission", Values: []string{"none", "reject", "queue"}},
		{Name: "sched", Values: []string{"fcfs", "priority", "sjf"}},
	}}
}

// e25Workload is the shared three-tenant trace at the cell's load:
// "moderate" sits inside cluster capacity, "saturate" is past the decode
// limit — only shedding or reordering can protect the interactive class.
func e25Workload(load string) ([]workload.Request, error) {
	rate := 60.0
	if load == "saturate" {
		rate = 130
	}
	return workload.GenerateSpec(multiTenantSpec(2501, 600, rate))
}

// e25Admission maps an admission cell value to its config. The bucket
// charges trace tokens (prompt+output) against per-tenant allowances
// weighted by purchased rate fraction; "queue" holds the overflow up to
// 2s instead of shedding it.
func e25Admission(name string) serving.AdmissionConfig {
	if name == "none" {
		return serving.AdmissionConfig{}
	}
	cfg := serving.AdmissionConfig{
		Policy:       serving.AdmitReject,
		BurstTokens:  30000,
		RefillPerSec: 36000,
		Weights:      e25Weights(),
	}
	if name == "queue" {
		cfg.Policy = serving.AdmitQueue
		cfg.MaxQueueMS = 2000
	}
	return cfg
}

// e25Weights is the tenant → purchased-rate-fraction map, shared by the
// admission bucket and the fairness index.
func e25Weights() map[string]float64 {
	spec := multiTenantSpec(2501, 600, 60)
	w := make(map[string]float64, len(spec.Clients))
	for _, c := range spec.Clients {
		w[c.TenantID] = c.RateFraction
	}
	return w
}

// e25Opts maps a sched cell value to instance options: both priority
// policies run with batch-slot preemption (an interactive arrival may
// evict the most recent batch sequence), FCFS is the class-blind
// baseline.
func e25Opts(sched string) serving.ContinuousOpts {
	opts := serving.ContinuousOpts{ChunkTokens: 256}
	switch sched {
	case "priority":
		opts.Sched = serving.SchedPriority
		opts.PreemptBatch = true
	case "sjf":
		opts.Sched = serving.SchedSJF
		opts.PreemptBatch = true
	}
	return opts
}

// e25Cell runs one grid cell. Exposed (package-private) so the margin
// test can pin individual cells without rendering the whole table.
func e25Cell(load, admission, sched string, tr *obs.Tracer) (*serving.RoutedReport, error) {
	reqs, err := e25Workload(load)
	if err != nil {
		return nil, err
	}
	opts := e25Opts(sched)
	opts.Trace = tr
	return serving.Run(serving.ClusterConfig{GPU: serving.DefaultGPU(), Instances: e25Instances,
		Router: serving.CacheAware, Opts: opts, Admission: e25Admission(admission)}, reqs)
}

// e25Jain is the weighted Jain index over per-tenant served output
// tokens, normalized by purchased rate fraction.
func e25Jain(rep *serving.RoutedReport) float64 {
	weights := e25Weights()
	xs := make([]float64, 0, len(rep.Tenants))
	ws := make([]float64, 0, len(rep.Tenants))
	for _, t := range rep.Tenants {
		xs = append(xs, float64(t.OutputTokens))
		ws = append(ws, weights[t.Tenant])
	}
	return metrics.JainWeighted(xs, ws)
}

func runE25() (*Output, error) { return runE25Workers(3) }

// runE25Workers runs the E25 grid on the given number of sweep workers;
// rendered output is identical at every worker count (sim.Sweep commits
// each cell into its own slot), which the worker-invariance test pins.
func runE25Workers(workers int) (*Output, error) {
	grid := e25Grid()
	type cellOut struct {
		rep *serving.RoutedReport
		tr  *obs.Tracer // the flagship cell's trace, for the breakdown
		err error
	}
	cells := sim.Sweep(grid, workers, func(cell int, coords []int) cellOut {
		var out cellOut
		// The flagship saturation cell — token-bucket shedding plus
		// class-priority scheduling — runs traced, so the per-tenant
		// counters and gauges land in the registry and the span
		// invariants are checked. Tracing only observes: its row is
		// unchanged.
		if grid.Label(cell) == "load=saturate admission=reject sched=priority" {
			out.tr = obs.NewTracer()
		}
		out.rep, out.err = e25Cell(grid.ValueNamed("load", cell),
			grid.ValueNamed("admission", cell), grid.ValueNamed("sched", cell), out.tr)
		return out
	})
	t := metrics.NewTable(
		fmt.Sprintf("E25: multi-tenant admission x scheduling (%d instances, 600 reqs, interactive SLO TTFT<=%dms)",
			e25Instances, e25TTFTSLOms),
		"load", "admission", "sched", "inter p99 TTFT (ms)", "inter attain",
		"batch tok/s", "adm rejected", "delayed", "preempt", "jain")
	var flagship cellOut
	for cell, co := range cells {
		if co.err != nil {
			return nil, co.err
		}
		if co.tr != nil {
			flagship = co
		}
		rep := co.rep
		inter := rep.ClassTTFT(workload.Interactive)
		t.AddRowf(grid.ValueNamed("load", cell), grid.ValueNamed("admission", cell),
			grid.ValueNamed("sched", cell),
			inter.P99(), inter.FractionBelow(e25TTFTSLOms),
			float64(rep.ClassOutputTokens(workload.Batch))/(rep.MakespanMS/1000),
			rep.AdmissionRejected, rep.AdmissionDelayed, rep.Preemptions, e25Jain(rep))
	}

	// Per-tenant breakdown of the flagship cell.
	rep, tr := flagship.rep, flagship.tr
	if err := tr.Check(); err != nil {
		return nil, fmt.Errorf("E25 trace invariants: %w", err)
	}
	bt := metrics.NewTable("E25 per-tenant outcomes (saturate, token-bucket, priority)",
		"tenant", "admitted", "adm rejected", "served", "output tok", "share", "paid share")
	weights := e25Weights()
	totalOut := 0
	for _, ts := range rep.Tenants {
		totalOut += ts.OutputTokens
	}
	for _, ts := range rep.Tenants {
		share := 0.0
		if totalOut > 0 {
			share = float64(ts.OutputTokens) / float64(totalOut)
		}
		bt.AddRowf(ts.Tenant, ts.Admitted, ts.AdmissionRejected, ts.Served,
			ts.OutputTokens, share, weights[ts.Tenant])
	}
	return &Output{Tables: []*metrics.Table{t, bt}, Trace: tr}, nil
}
