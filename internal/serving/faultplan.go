package serving

import (
	"dataai/internal/faults"
	"dataai/internal/token"
)

// Fault-plan timing on the logical clock.
const (
	// faultWindowMS is the fault-window width: every draw is per
	// (instance or rack, window).
	faultWindowMS = 2000
	// detectMS is the failure-detection delay before the router learns
	// of a crash and re-routes the dropped sequences.
	detectMS = 50
)

// FaultPlan injects cluster-side faults into a routed serving run. It is
// the serving-layer sibling of the call-path faults.Injector: every
// fault is a pure function of (Seed, instance, time-window) drawn
// through token.Uniform, so a run is byte-identical across repetitions
// and worker counts — faults never depend on wall time or event
// interleaving, only on which faultWindowMS window of the logical clock
// an instance is in.
//
// Two fault kinds, both optional:
//
//   - Crashes: at the start of a window whose crash draw fires, the
//     instance goes down for CrashDownMS, dropping every in-flight
//     sequence (their KV and GPU-resident caches die with the device);
//     after detectMS the router observes the failure and re-routes the
//     dropped sequences to surviving instances.
//   - Stragglers: during a window whose straggler draw fires, the
//     instance's iteration costs are scaled by StragglerFactor — the
//     GPU is alive but slow (thermal throttling, a noisy neighbour).
//
// A plan may additionally carry a rack topology (RackSize): crash draws
// then correlate within a rack, and OverloadAlpha adds a post-crash
// cascade that slows the survivors.
type FaultPlan struct {
	// Seed drives every draw.
	Seed uint64
	// CrashProb is the per-(instance, window) probability of a crash at
	// the window boundary.
	CrashProb float64
	// CrashDownMS is how long a crashed instance stays down (default
	// 1500).
	CrashDownMS float64
	// StragglerProb is the per-(instance, window) probability the
	// instance runs slow for that window.
	StragglerProb float64
	// StragglerFactor scales iteration cost during straggler windows
	// (default 2.5; values below 1 are clamped to 1).
	StragglerFactor float64

	// RackSize > 0 overlays a failure topology: instances are grouped
	// into racks of RackSize consecutive indexes, and a per-(rack,
	// window) draw of RackCrashProb crashes the whole rack at once —
	// the correlated-domain regime where recovery policies separate
	// hardest. 0 keeps every draw independent.
	RackSize      int
	RackCrashProb float64
	// OverloadAlpha > 0 models the post-crash cascade: while d of the
	// cluster's n instances are down, every survivor's iteration cost is
	// scaled by 1 + OverloadAlpha·d/(n−d) — the rerouted load makes the
	// remaining GPUs effectively slower, which is when checkpointed
	// recovery and migration matter most.
	OverloadAlpha float64
}

// MediumFaultPlan returns a plan with noticeable but survivable cluster
// failure pressure: occasional crashes, some slow windows.
func MediumFaultPlan(seed uint64) *FaultPlan {
	return &FaultPlan{Seed: seed, CrashProb: 0.05, StragglerProb: 0.10}
}

// SevereFaultPlan returns a plan modelling a badly degraded cluster:
// frequent crashes with slow recovery and widespread stragglers.
func SevereFaultPlan(seed uint64) *FaultPlan {
	return &FaultPlan{
		Seed: seed, CrashProb: 0.15, CrashDownMS: 2500,
		StragglerProb: 0.25, StragglerFactor: 3,
	}
}

// CorrelatedFaultPlan returns a topology-aware plan: moderate
// independent crash/straggler pressure plus per-(rack, window) draws
// that take whole racks of rackSize instances down together —
// correlated failure domains, per the ROADMAP's fault-plan realism
// item. A rack draw firing is far more damaging than the same number
// of independent crashes: every sequence in the rack loses its device
// state in the same instant and the survivors absorb the whole rack's
// load at once.
func CorrelatedFaultPlan(seed uint64, rackSize int) *FaultPlan {
	return &FaultPlan{
		Seed: seed, CrashProb: 0.05, CrashDownMS: 2500,
		StragglerProb: 0.25, StragglerFactor: 3,
		RackSize: rackSize, RackCrashProb: 0.25,
	}
}

// CascadeFaultPlan is CorrelatedFaultPlan plus post-crash overload:
// while a rack is down, survivors absorbing its rerouted load run
// slower (OverloadAlpha), the cascading regime where checkpointed
// recovery and live migration separate most from plain rerouting.
func CascadeFaultPlan(seed uint64, rackSize int) *FaultPlan {
	p := CorrelatedFaultPlan(seed, rackSize)
	p.OverloadAlpha = 0.75
	return p
}

func (p *FaultPlan) crashDownMS() float64 {
	if p.CrashDownMS > 0 {
		return p.CrashDownMS
	}
	return 1500
}

func (p *FaultPlan) stragglerFactor() float64 {
	if p.StragglerFactor > 1 {
		return p.StragglerFactor
	}
	if p.StragglerFactor > 0 {
		return 1
	}
	return 2.5
}

// crashAt reports whether instance crashes at the start of window w:
// its independent draw, then its rack's. The independent draw fires
// first and uses the exact key it always did, so plans without a
// topology keep byte-identical fault sequences.
func (p *FaultPlan) crashAt(instance, w int) bool {
	if p == nil {
		return false
	}
	if p.CrashProb > 0 && token.Uniform(faults.WindowKey("crash", instance, w), p.Seed) < p.CrashProb {
		return true
	}
	if p.RackSize <= 0 {
		return false
	}
	return p.RackCrashProb > 0 &&
		token.Uniform(faults.WindowKey("rackcrash", instance/p.RackSize, w), p.Seed) < p.RackCrashProb
}

// overloadFactor is the cascade multiplier applied to every surviving
// instance's iteration cost while down of n instances are crashed
// (1 = no cascade).
func (p *FaultPlan) overloadFactor(down, n int) float64 {
	if p == nil || p.OverloadAlpha <= 0 || down <= 0 || down >= n {
		return 1
	}
	return 1 + p.OverloadAlpha*float64(down)/float64(n-down)
}

// Correlate overlays a rack topology on the plan: racks of rackSize
// instances with a correlated per-(rack, window) crash draw and a
// post-crash overload cascade on survivors. Fields already set are
// respected; only zero ones receive defaults. It returns p for
// chaining.
func (p *FaultPlan) Correlate(rackSize int) *FaultPlan {
	p.RackSize = rackSize
	if p.RackCrashProb == 0 {
		p.RackCrashProb = 0.05
	}
	if p.OverloadAlpha == 0 {
		p.OverloadAlpha = 0.75
	}
	return p
}

// slowdownAt reports instance's cost multiplier during window w
// (1 = healthy).
func (p *FaultPlan) slowdownAt(instance, w int) float64 {
	if p == nil || p.StragglerProb <= 0 {
		return 1
	}
	if token.Uniform(faults.WindowKey("straggler", instance, w), p.Seed) < p.StragglerProb {
		return p.stragglerFactor()
	}
	return 1
}
