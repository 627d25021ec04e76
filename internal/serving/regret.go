package serving

import (
	"fmt"
	"sort"

	"dataai/internal/obs"
	"dataai/internal/par"
	"dataai/internal/workload"
)

// ForcedChoice pins one routing decision to a ranked alternative during
// a counterfactual replay (see ReplayRegret). Decision is the 1-based
// decision sequence number from the recorded run's DecisionLog; Rank is
// the 1-based position in that decision's (score, instance-index)
// order — rank 1 is the instance the live policy picks, so forcing
// rank 1 reproduces the recorded run byte for byte
// (TestReplayRank1Identity pins this). Ranks past the instance count
// clamp to the worst candidate.
type ForcedChoice struct {
	Decision uint64
	Rank     int
}

// ReplayConfig parameterizes ReplayRegret.
type ReplayConfig struct {
	// MaxRank is the deepest alternative to price: every decision is
	// replayed forced to each rank in [2, MaxRank]. Values below 2
	// default to 2 (the first runner-up only).
	MaxRank int
	// Workers is the worker count for the replay batch (<= 0 means
	// GOMAXPROCS). The regret table is byte-identical at any count:
	// each replay commits to its own slot and aggregation is serial.
	Workers int
	// TTFTSLOms and TBTSLOms define the goodput SLO the regret prices.
	TTFTSLOms, TBTSLOms float64
	// TopN bounds the summary's most-expensive-decisions list
	// (<= 0 means 10).
	TopN int
}

// AltOutcome prices one forced alternative of one decision against the
// recorded run. Positive deltas mean the recorded choice was better.
type AltOutcome struct {
	// Rank is the forced 1-based rank; Instance the instance it maps to.
	Rank     int
	Instance int
	// TTFTDeltaMS = forced-run mean TTFT − recorded-run mean TTFT.
	TTFTDeltaMS float64
	// GoodputDelta = recorded goodput − forced goodput.
	GoodputDelta float64
}

// DecisionRegret is one decision's priced counterfactuals.
type DecisionRegret struct {
	Decision obs.Decision
	// Alts holds one outcome per forced rank, ascending.
	Alts []AltOutcome
	// RegretMS is the worst alternative's TTFTDeltaMS: the mean-TTFT
	// cost the cluster would have paid had this decision gone the most
	// damaging other way — the decision's value. With MaxRank 2 it is
	// simply the first runner-up's delta.
	RegretMS float64
	// BestDeltaMS is the best alternative's TTFTDeltaMS; negative means
	// some alternative would have strictly improved mean TTFT (the
	// decision is improvable).
	BestDeltaMS float64
	// GoodputRegret is the worst alternative's GoodputDelta.
	GoodputRegret float64
}

// RegretSummary aggregates a run's per-decision counterfactual regret.
type RegretSummary struct {
	// Decisions is the recorded decision count; Replays the number of
	// forced re-runs priced (Decisions × (MaxRank-1)).
	Decisions, Replays, MaxRank int
	// TTFTSLOms and TBTSLOms echo the goodput SLO used.
	TTFTSLOms, TBTSLOms float64
	// TotalRegretMS sums the positive per-decision RegretMS values;
	// TotalGoodputRegret the positive GoodputRegret values.
	TotalRegretMS      float64
	TotalGoodputRegret float64
	// RerouteRegretMS is the share of TotalRegretMS carried by
	// "reroute"-kind decisions (crash reroutes).
	RerouteRegretMS float64
	// Improvable counts decisions with a strictly better alternative
	// (BestDeltaMS < 0).
	Improvable int
	// TopShare is the fraction of TotalRegretMS carried by the top 10%
	// (by regret) of decisions — how concentrated the win is.
	TopShare float64
	// Top lists the most expensive decisions, regret-descending (ties
	// to the lowest decision seq), capped at ReplayConfig.TopN.
	Top []DecisionRegret
}

// ReplayRegret prices every routing decision of a deterministic routed
// run by counterfactual replay. It runs cluster once with a fresh
// DecisionLog to record the baseline, then re-runs the identical
// simulation — same trace, fault plan, and seeds — once per
// (decision, rank ∈ [2, MaxRank]) pair, each replay forcing exactly
// that one decision to that ranked alternative while every other
// decision is re-decided live by the policy. Each forced run is priced
// against the baseline (see AltOutcome), and the per-decision worst
// case becomes the decision's regret: what the recorded choice saved.
// ReplayRegret sets each run's Opts.Decisions and Opts.Force itself and
// runs untraced, so cluster.Opts must leave Trace, Decisions and Force
// nil. Every run builds its own engine and instances; a FaultPlan is
// only read during a run, so the concurrent replays share one.
//
// The replay batch fans out through par.Map with ordered commits and
// the aggregation is serial in decision order, so the returned summary
// (and any table rendered from it) is byte-identical at every worker
// count. The returned report is the baseline run's, with Regret
// attached.
func ReplayRegret(cluster ClusterConfig, reqs []workload.Request, cfg ReplayConfig) (*RoutedReport, error) {
	if o := cluster.Opts; o.Trace != nil || o.Decisions != nil || o.Force != nil {
		return nil, fmt.Errorf("%w: ReplayRegret records and forces decisions itself and runs untraced; leave ContinuousOpts.Trace, .Decisions and .Force nil", ErrConfig)
	}
	run := func(dl *obs.DecisionLog, force *ForcedChoice) (*RoutedReport, error) {
		c := cluster
		c.Opts.Decisions, c.Opts.Force = dl, force
		return Run(c, reqs)
	}
	maxRank := cfg.MaxRank
	if maxRank < 2 {
		maxRank = 2
	}
	topN := cfg.TopN
	if topN <= 0 {
		topN = 10
	}

	dl := obs.NewDecisionLog()
	base, err := run(dl, nil)
	if err != nil {
		return nil, err
	}
	decs := dl.Decisions()
	baseTTFT := base.TTFT.Mean()
	baseGoodput := base.Goodput(cfg.TTFTSLOms, cfg.TBTSLOms)

	ranks := maxRank - 1
	type arm struct {
		out AltOutcome
		err error
	}
	arms := par.Map(len(decs)*ranks, cfg.Workers, func(j int) arm {
		d := decs[j/ranks]
		rank := 2 + j%ranks
		rep, err := run(nil, &ForcedChoice{Decision: d.Seq, Rank: rank})
		if err != nil {
			return arm{err: err}
		}
		order := d.Ranked()
		inst := order[len(order)-1]
		if rank-1 < len(order) {
			inst = order[rank-1]
		}
		return arm{out: AltOutcome{
			Rank:         rank,
			Instance:     inst,
			TTFTDeltaMS:  rep.TTFT.Mean() - baseTTFT,
			GoodputDelta: baseGoodput - rep.Goodput(cfg.TTFTSLOms, cfg.TBTSLOms),
		}}
	})
	for _, a := range arms {
		if a.err != nil {
			return nil, a.err
		}
	}

	sum := &RegretSummary{
		Decisions: len(decs), Replays: len(arms), MaxRank: maxRank,
		TTFTSLOms: cfg.TTFTSLOms, TBTSLOms: cfg.TBTSLOms,
	}
	regrets := make([]DecisionRegret, len(decs))
	for i, d := range decs {
		dr := DecisionRegret{Decision: d, Alts: make([]AltOutcome, ranks)}
		for k := 0; k < ranks; k++ {
			dr.Alts[k] = arms[i*ranks+k].out
		}
		dr.RegretMS = dr.Alts[0].TTFTDeltaMS
		dr.BestDeltaMS = dr.Alts[0].TTFTDeltaMS
		dr.GoodputRegret = dr.Alts[0].GoodputDelta
		for _, a := range dr.Alts[1:] {
			if a.TTFTDeltaMS > dr.RegretMS {
				dr.RegretMS = a.TTFTDeltaMS
			}
			if a.TTFTDeltaMS < dr.BestDeltaMS {
				dr.BestDeltaMS = a.TTFTDeltaMS
			}
			if a.GoodputDelta > dr.GoodputRegret {
				dr.GoodputRegret = a.GoodputDelta
			}
		}
		regrets[i] = dr
		if dr.RegretMS > 0 {
			sum.TotalRegretMS += dr.RegretMS
			if d.Kind == obs.DecisionReroute {
				sum.RerouteRegretMS += dr.RegretMS
			}
		}
		if dr.GoodputRegret > 0 {
			sum.TotalGoodputRegret += dr.GoodputRegret
		}
		if dr.BestDeltaMS < 0 {
			sum.Improvable++
		}
	}

	// Rank decisions by regret (ties to the lowest seq — deterministic)
	// for the concentration measure and the top-N list.
	order := make([]int, len(regrets))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := regrets[order[a]].RegretMS, regrets[order[b]].RegretMS
		if ra != rb {
			return ra > rb
		}
		return regrets[order[a]].Decision.Seq < regrets[order[b]].Decision.Seq
	})
	if sum.TotalRegretMS > 0 {
		topCount := (len(regrets) + 9) / 10
		topSum := 0.0
		for _, idx := range order[:topCount] {
			if r := regrets[idx].RegretMS; r > 0 {
				topSum += r
			}
		}
		sum.TopShare = topSum / sum.TotalRegretMS
	}
	if topN > len(order) {
		topN = len(order)
	}
	sum.Top = make([]DecisionRegret, topN)
	for i := 0; i < topN; i++ {
		sum.Top[i] = regrets[order[i]]
	}

	out := *base
	out.Regret = sum
	return &out, nil
}
