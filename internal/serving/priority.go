package serving

import (
	"fmt"

	"dataai/internal/workload"
)

// SchedPolicy selects the order in which an instance admits waiting
// sequences into its batch at iteration boundaries. The zero value is
// FCFS — the historical behavior, and byte-identical to it.
//
// Both priority policies are class-prioritized: every Interactive
// sequence outranks every Batch sequence, and the policy only chooses
// the order *within* a class. That matters for PreemptBatch: after an
// interactive arrival evicts a batch victim for its slot, the victim
// (now at the head of the waiting queue) can never outrank the
// interactive candidate at re-selection, so slot preemption cannot
// livelock.
type SchedPolicy int

// Supported batch-formation policies.
const (
	// SchedFCFS admits strictly in queue order, blocking on the head —
	// SLO-class blind, exactly the historical loop.
	SchedFCFS SchedPolicy = iota
	// SchedPriority admits the earliest-queued sequence of the best
	// (lowest) SLO class: interactive requests jump the batch backlog
	// but stay FCFS among themselves.
	SchedPriority
	// SchedSJF admits the shortest job (least outstanding token work)
	// within the best SLO class — favors short interactive prompts under
	// pressure at the cost of long-job fairness.
	SchedSJF
)

// String names the policy.
func (p SchedPolicy) String() string {
	switch p {
	case SchedFCFS:
		return "fcfs"
	case SchedPriority:
		return "priority"
	case SchedSJF:
		return "sjf"
	default:
		return fmt.Sprintf("sched(%d)", int(p))
	}
}

// nextWaiting picks the waiting-queue index the scheduler admits next.
// FCFS returns the head without scanning; the priority policies scan the
// ring (arrival order, preempted victims pushed back at the front) and
// break ties to the lowest index, so selection is deterministic.
func (in *instance) nextWaiting() int {
	switch in.opts.Sched {
	case SchedPriority:
		best := 0
		for i := 1; i < in.waiting.Len(); i++ {
			if in.waiting.At(i).req.SLOClass < in.waiting.At(best).req.SLOClass {
				best = i
			}
		}
		return best
	case SchedSJF:
		best := 0
		for i := 1; i < in.waiting.Len(); i++ {
			s, b := in.waiting.At(i), in.waiting.At(best)
			if s.req.SLOClass < b.req.SLOClass ||
				(s.req.SLOClass == b.req.SLOClass && seqLoad(s) < seqLoad(b)) {
				best = i
			}
		}
		return best
	default:
		return 0
	}
}

// preemptForSlot evicts one batch-class running sequence — the most
// recently admitted, mirroring OnDemand's victim order — to make room
// for an interactive admission. The victim leaves the running slice
// immediately (unlike decode-time preemption, which decodeOnDemand's
// rebuild handles), so active() and the next iteration's decode width
// are correct for the caller's retry. Returns false when no batch sequence
// is running.
func (in *instance) preemptForSlot(now float64) bool {
	for j := len(in.running) - 1; j >= 0; j-- {
		v := in.running[j]
		if v.req.SLOClass != workload.Batch || v.preempted {
			continue
		}
		copy(in.running[j:], in.running[j+1:])
		in.running[len(in.running)-1] = nil
		in.running = in.running[:len(in.running)-1]
		in.leave(v)
		in.preempt(now, v)
		return true
	}
	return false
}
