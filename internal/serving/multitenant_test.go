package serving

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"dataai/internal/obs"
	"dataai/internal/workload"
)

// Tests for the multi-tenant machinery: the ring's out-of-order
// removal, the router's token-bucket admitter, and class-priority batch
// formation with batch-slot preemption.

// TestSeqRingRemoveAt model-checks RemoveAt against a slice across head
// rotations (so both the front-shift and back-shift paths run with and
// without wraparound).
func TestSeqRingRemoveAt(t *testing.T) {
	pool := &seqPool{}
	for rot := 0; rot < 24; rot++ {
		var q seqRing
		// Rotate the head: push/pop rot placeholders.
		for i := 0; i < rot; i++ {
			q.PushBack(pool.get(workload.Request{}))
			pool.put(q.PopFront())
		}
		var model []*seqState
		for i := 0; i < 9; i++ {
			s := pool.get(workload.Request{ID: fmt.Sprintf("s%d", i)})
			q.PushBack(s)
			model = append(model, s)
		}
		// Remove a front-half, a back-half, and an end index.
		for _, i := range []int{2, 5, 0, 5} {
			got := q.RemoveAt(i)
			want := model[i]
			model = append(model[:i], model[i+1:]...)
			if got != want {
				t.Fatalf("rot %d: RemoveAt(%d) = %v, want %v", rot, i, got.req.ID, want.req.ID)
			}
			pool.put(got)
		}
		if q.Len() != len(model) {
			t.Fatalf("rot %d: Len = %d, want %d", rot, q.Len(), len(model))
		}
		for i, want := range model {
			if q.At(i) != want {
				t.Fatalf("rot %d: At(%d) = %v, want %v", rot, i, q.At(i).req.ID, want.req.ID)
			}
		}
		for q.Len() > 0 {
			pool.put(q.PopFront())
		}
	}
	if pool.outstanding != 0 {
		t.Errorf("pool outstanding = %d after drain", pool.outstanding)
	}
}

func admitReq(tenant string) workload.Request {
	return workload.Request{Tenant: tenant, PromptTokens: 30, OutputTokens: 30} // cost 60
}

func TestAdmitterReject(t *testing.T) {
	a := newAdmitter(AdmissionConfig{
		Policy: AdmitReject, BurstTokens: 100, RefillPerSec: 1000,
		Weights: map[string]float64{"big": 2},
	}, nil)
	if _, ok := a.decide(0, admitReq("t")); !ok {
		t.Fatal("first request within burst rejected")
	}
	if _, ok := a.decide(0, admitReq("t")); ok {
		t.Fatal("second request admitted past burst (level was 40, cost 60)")
	}
	// Refill at 1 token/ms: by t=20 level is back to 60.
	if _, ok := a.decide(20, admitReq("t")); !ok {
		t.Fatal("refilled bucket still rejecting")
	}
	// A weight-2 tenant gets a 200-token burst: three requests fit.
	for i := 0; i < 3; i++ {
		if _, ok := a.decide(0, admitReq("big")); !ok {
			t.Fatalf("weighted tenant rejected at request %d", i)
		}
	}
	if _, ok := a.decide(0, admitReq("big")); ok {
		t.Fatal("weighted tenant admitted past its burst")
	}
	// Rejections never charge: tenant "t"'s tallies add up.
	tl := a.tally("t")
	if tl.admitted != 2 || tl.rejected != 1 {
		t.Errorf("tally = %d admitted / %d rejected, want 2/1", tl.admitted, tl.rejected)
	}
}

func TestAdmitterQueue(t *testing.T) {
	a := newAdmitter(AdmissionConfig{
		Policy: AdmitQueue, BurstTokens: 100, RefillPerSec: 1000, MaxQueueMS: 50,
	}, nil)
	if d, ok := a.decide(0, admitReq("t")); !ok || d != 0 {
		t.Fatalf("first request: delay %v ok %v, want 0 true", d, ok)
	}
	// Level 40, cost 60: a 20-token deficit at 1 token/ms holds 20ms.
	d, ok := a.decide(0, admitReq("t"))
	if !ok || d != 20 {
		t.Fatalf("second request: delay %v ok %v, want 20 true", d, ok)
	}
	// Level -20: the next deficit is 80 > MaxQueueMS 50 — rejected,
	// without charging the bucket.
	if _, ok := a.decide(0, admitReq("t")); ok {
		t.Fatal("over-bound hold admitted")
	}
	// By t=40 the level is back to 20; deficit 40 fits the bound.
	d, ok = a.decide(40, admitReq("t"))
	if !ok || d != 40 {
		t.Fatalf("post-reject request: delay %v ok %v, want 40 true (reject must not have charged)", d, ok)
	}
	tl := a.tally("t")
	if tl.delayed != 2 || tl.rejected != 1 {
		t.Errorf("tally = %d delayed / %d rejected, want 2/1", tl.delayed, tl.rejected)
	}
}

// slotSaturationTrace fills the KV budget with long batch-class
// sequences at t=0, then lands one short interactive request behind
// them.
func slotSaturationTrace() []workload.Request {
	var reqs []workload.Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, workload.Request{
			ID: fmt.Sprintf("b%02d", i), Tenant: "bulk", SLOClass: workload.Batch,
			ArrivalMS: 0, PromptTokens: 3000, OutputTokens: 400,
		})
	}
	reqs = append(reqs, workload.Request{
		ID: "chat", Tenant: "chat", SLOClass: workload.Interactive,
		ArrivalMS: 1, PromptTokens: 512, OutputTokens: 8,
	})
	return reqs
}

// TestPrioritySchedProtectsInteractive pins the scheduling half of the
// multi-tenant story: with the KV budget saturated by batch sequences,
// FCFS makes the interactive request wait for a slot, while class
// priority with batch preemption seats it almost immediately.
func TestPrioritySchedProtectsInteractive(t *testing.T) {
	gpu := DefaultGPU()
	// Four 3400-token batch sequences reserve 4x213 blocks, leaving 8 —
	// too few for the 520-token interactive request: it must either wait
	// (FCFS) or evict a batch slot (priority + preemption).
	gpu.KVBlocks = 860
	interTTFT := func(opts ContinuousOpts) (float64, int) {
		rep, err := RunContinuous(gpu, slotSaturationTrace(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Results {
			if r.Req.ID == "chat" {
				if r.Rejected {
					t.Fatal("interactive request rejected")
				}
				return r.TTFTms, rep.Preemptions
			}
		}
		t.Fatal("interactive request missing from results")
		return 0, 0
	}
	fcfs, _ := interTTFT(ContinuousOpts{ChunkTokens: 256})
	prio, preempts := interTTFT(ContinuousOpts{ChunkTokens: 256, Sched: SchedPriority, PreemptBatch: true})
	if preempts == 0 {
		t.Error("no batch preemption despite a saturated instance")
	}
	if prio >= fcfs/4 {
		t.Errorf("priority TTFT %.1fms not well below FCFS %.1fms", prio, fcfs)
	}
	// SJF seats the interactive request too (it is the shortest job in
	// the lowest class).
	sjf, _ := interTTFT(ContinuousOpts{ChunkTokens: 256, Sched: SchedSJF, PreemptBatch: true})
	if sjf >= fcfs/4 {
		t.Errorf("SJF TTFT %.1fms not well below FCFS %.1fms", sjf, fcfs)
	}
}

// TestRoutedAdmissionShedsOverload pins the admission half: under ~2x
// overload a token-bucket router sheds the over-rate batch tenants and
// every tenant's arithmetic is consistent, while the no-admission
// baseline queues everything it sees.
func TestRoutedAdmissionShedsOverload(t *testing.T) {
	reqs, err := workload.GenerateSpec(workload.DefaultMultiTenant(77, 400, 130))
	if err != nil {
		t.Fatal(err)
	}
	weights := map[string]float64{"chat": 0.30, "bulk-a": 0.45, "bulk-b": 0.25}
	run := func(adm AdmissionConfig) *RoutedReport {
		rep, err := Run(ClusterConfig{GPU: DefaultGPU(), Instances: 2, Router: CacheAware,
			Opts: ContinuousOpts{ChunkTokens: 256}, Admission: adm}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(AdmissionConfig{})
	if base.AdmissionRejected != 0 {
		t.Errorf("no-admission baseline rejected %d", base.AdmissionRejected)
	}
	shed := run(AdmissionConfig{
		Policy: AdmitReject, BurstTokens: 30000, RefillPerSec: 18000, Weights: weights,
	})
	if shed.AdmissionRejected == 0 {
		t.Fatal("token bucket shed nothing under 2x overload")
	}
	perTenant := map[string]int{}
	for _, r := range reqs {
		perTenant[r.Tenant]++
	}
	for _, ts := range shed.Tenants {
		if ts.Admitted+ts.AdmissionRejected != perTenant[ts.Tenant] {
			t.Errorf("tenant %s: admitted %d + rejected %d != arrivals %d",
				ts.Tenant, ts.Admitted, ts.AdmissionRejected, perTenant[ts.Tenant])
		}
		if ts.Served > ts.Admitted {
			t.Errorf("tenant %s: served %d > admitted %d", ts.Tenant, ts.Served, ts.Admitted)
		}
	}
	// Queue mode converts (bounded) excess into delay instead of errors.
	queued := run(AdmissionConfig{
		Policy: AdmitQueue, BurstTokens: 30000, RefillPerSec: 18000,
		MaxQueueMS: 4000, Weights: weights,
	})
	if queued.AdmissionDelayed == 0 {
		t.Error("queue mode delayed nothing under 2x overload")
	}
	if queued.AdmissionRejected >= shed.AdmissionRejected {
		t.Errorf("queue mode rejected %d, want fewer than reject mode's %d",
			queued.AdmissionRejected, shed.AdmissionRejected)
	}
}

// TestTokenBucketClosedForm checks admission against the token bucket's
// closed form on E25-shaped traced runs: DefaultMultiTenant at a
// saturating 130 req/s on 4 cache-aware instances, with buckets weighted
// by each tenant's rate fraction, under AdmitReject and AdmitQueue. A
// tenant of weight w starts with a full bucket of w·BurstTokens that
// refills at w·RefillPerSec, so for any two of its deliveries at
// t_i ≤ t_j the prompt+output tokens delivered in [t_i, t_j] are at most
//
//	w·BurstTokens + w·RefillPerSec·(t_j − t_i)/1000.
//
// A request is delivered where its first queue span opens. AdmitQueue
// delivers a held request the instant its reservation's deficit has
// refilled, so its windows reach the bound exactly: the only slack
// allowed is float rounding, 1e-9 of the bound.
func TestTokenBucketClosedForm(t *testing.T) {
	const burst, refillPerSec, slack = 30000.0, 36000.0, 1e-9
	spec := workload.DefaultMultiTenant(2501, 600, 130)
	weights := map[string]float64{}
	for _, c := range spec.Clients {
		weights[c.TenantID] = c.RateFraction
	}
	reqs, err := workload.GenerateSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]workload.Request, len(reqs))
	for _, r := range reqs {
		byID[r.ID] = r
	}
	for _, policy := range []AdmissionPolicy{AdmitReject, AdmitQueue} {
		adm := AdmissionConfig{Policy: policy, BurstTokens: burst, RefillPerSec: refillPerSec, Weights: weights}
		if policy == AdmitQueue {
			adm.MaxQueueMS = 2000
		}
		tr := obs.NewTracer()
		rep, err := Run(ClusterConfig{GPU: DefaultGPU(), Instances: 4, Router: CacheAware,
			Opts: ContinuousOpts{ChunkTokens: 256, Trace: tr}, Admission: adm}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.AdmissionRejected == 0 {
			t.Errorf("%s: no request was rejected, so the buckets never bound", policy)
		}
		type delivery struct {
			ms     float64
			tokens int
		}
		delivered := map[string]bool{}
		perTenant := map[string][]delivery{}
		for _, s := range tr.Spans() {
			id, ok := strings.CutPrefix(s.Track, "req/")
			if !ok || s.Name != "queue" || delivered[id] {
				continue
			}
			delivered[id] = true
			r := byID[id]
			perTenant[r.Tenant] = append(perTenant[r.Tenant], delivery{s.StartMS, r.PromptTokens + r.OutputTokens})
		}
		if len(delivered) != len(reqs)-rep.AdmissionRejected {
			t.Fatalf("%s: %d deliveries for %d admitted requests", policy, len(delivered), len(reqs)-rep.AdmissionRejected)
		}
		tightest := 0.0 // the largest share of its bound any window reaches
		for _, c := range spec.Clients {
			tenant := c.TenantID
			ds := perTenant[tenant]
			sort.SliceStable(ds, func(i, j int) bool { return ds[i].ms < ds[j].ms })
			w := weights[tenant]
			for i := range ds {
				if i > 0 && ds[i-1].ms == ds[i].ms {
					continue // the window starting at ds[i].ms begins at its first delivery
				}
				sum := 0
				for j := i; j < len(ds); j++ {
					sum += ds[j].tokens
					if j+1 < len(ds) && ds[j+1].ms == ds[j].ms {
						continue // the window ending at ds[j].ms holds all its deliveries
					}
					bound := w*burst + w*refillPerSec*(ds[j].ms-ds[i].ms)/1000
					if float64(sum) > bound*(1+slack) {
						t.Fatalf("%s: tenant %s got %d tokens in [%v, %v] ms, over the bound %v",
							policy, tenant, sum, ds[i].ms, ds[j].ms, bound)
					}
					tightest = max(tightest, float64(sum)/bound)
				}
			}
		}
		if policy == AdmitQueue && tightest < 1-slack {
			t.Errorf("%s: the tightest window reaches %.12f of its bound, want 1 within rounding", policy, tightest)
		}
	}
}
