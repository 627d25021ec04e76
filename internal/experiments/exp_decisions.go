package experiments

import (
	"dataai/internal/metrics"
	"dataai/internal/serving"
)

func init() {
	registerX("E26", "Pricing routing decisions by counterfactual replay (§2.3.2)", runE26)
}

// e26Plans are the E23 fault-plan shapes the regret study prices the
// breaker-aware router's decisions under. The plan seed differs from
// E23's (2304, not 2303) because E26 runs a 4-second trace — a quarter
// of E23's — and 2303's medium-plan draws all land past it; with 2304
// the medium plan fires one mid-run crash and the severe plan three, so
// the regret gradient none → medium → severe is populated at every
// level. A run only reads its plan, so every replay shares one.
var e26Plans = []struct {
	name string
	plan *serving.FaultPlan
}{
	{"none", nil},
	{"medium", serving.MediumFaultPlan(2304)},
	{"severe", serving.SevereFaultPlan(2304)},
}

func runE26() (*Output, error) { return runE26Workers(3) }

// e26Regret prices every routing decision of the E26 configuration under
// one fault plan: a baseline run records the decision log, then each
// decision is replayed forced to its first runner-up while everything
// else is re-decided live (serving.ReplayRegret).
func e26Regret(plan *serving.FaultPlan, workers int) (*serving.RoutedReport, error) {
	gpu := serving.DefaultGPU()
	reqs, err := decisionWorkload()
	if err != nil {
		return nil, err
	}
	cluster := serving.ClusterConfig{GPU: gpu, Instances: 4, Router: serving.BreakerAware,
		Opts: serving.ContinuousOpts{ChunkTokens: 256}, Faults: plan}
	return serving.ReplayRegret(cluster, reqs, serving.ReplayConfig{
		MaxRank: 2, Workers: workers, TTFTSLOms: 1500, TBTSLOms: 25, TopN: 5})
}

// runE26Workers runs the E26 replay batches on the given worker count.
// ReplayRegret commits every forced run into its own slot and aggregates
// serially, so the rendered tables are identical at every worker count —
// the invariance test pins it.
func runE26Workers(workers int) (*Output, error) {
	t := metrics.NewTable(
		"E26: decision regret by counterfactual replay (breaker-aware, 4 instances, 240 reqs @ 60/s, rank-2 forcing, SLO TTFT<=1500ms TBT<=25ms)",
		"faults", "decisions", "replays", "total regret (ms)", "reroute share",
		"goodput regret", "improvable", "top-10% share")
	top := metrics.NewTable("E26 most expensive decisions per plan (vs first runner-up)",
		"faults", "seq", "t (ms)", "kind", "req", "chosen", "regret (ms)", "goodput Δ")
	for _, pc := range e26Plans {
		rep, err := e26Regret(pc.plan, workers)
		if err != nil {
			return nil, err
		}
		reg := rep.Regret
		rerouteShare := 0.0
		if reg.TotalRegretMS > 0 {
			rerouteShare = reg.RerouteRegretMS / reg.TotalRegretMS
		}
		t.AddRowf(pc.name, reg.Decisions, reg.Replays, reg.TotalRegretMS, rerouteShare,
			reg.TotalGoodputRegret, reg.Improvable, reg.TopShare)
		for _, dr := range reg.Top {
			d := dr.Decision
			top.AddRowf(pc.name, d.Seq, d.AtMS, d.Kind, d.ReqID, d.Chosen,
				dr.RegretMS, dr.GoodputRegret)
		}
	}
	return &Output{Tables: []*metrics.Table{t, top}}, nil
}
