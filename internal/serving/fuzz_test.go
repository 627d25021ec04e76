package serving

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"dataai/internal/obs"
	"dataai/internal/workload"
)

// fuzzCluster decodes a fuzz input into a bounded cluster configuration
// and its trace. Each byte picks one dimension; a short input reads
// zeros for the rest. The space: 1–8 instances under each router
// policy; no fault plan or the medium, severe, cascade or correlated
// one; each recovery arm; no, reject or queue admission; each
// scheduling policy, with batch preemption when it is not FCFS;
// OnDemand off or on and chunk 0, 64 or 256; the default or the grid
// GPU; and up to 80 requests from a shared-prefix trace or the
// three-tenant spec. It also returns the seed that drew the trace and
// the fault plan.
func fuzzCluster(t *testing.T, data []byte) (ClusterConfig, []workload.Request, uint64) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	cfg := ClusterConfig{GPU: DefaultGPU(), Instances: 1 + next()%8, Router: RouterPolicy(next() % 3)}
	seed := uint64(next())
	switch next() % 5 {
	case 1:
		cfg.Faults = MediumFaultPlan(seed)
	case 2:
		cfg.Faults = SevereFaultPlan(seed)
	case 3:
		cfg.Faults = CascadeFaultPlan(seed, 2)
	case 4:
		cfg.Faults = CorrelatedFaultPlan(seed, 2)
	}
	arms := recoveryArms()
	names := make([]string, 0, len(arms))
	for name := range arms {
		names = append(names, name)
	}
	sort.Strings(names)
	cfg.Recovery = arms[names[next()%len(names)]]
	adm := next() % 3
	cfg.Opts.Sched = SchedPolicy(next() % 3)
	cfg.Opts.PreemptBatch = cfg.Opts.Sched != SchedFCFS
	kv := next()
	cfg.Opts.OnDemand = kv&1 == 1
	cfg.Opts.ChunkTokens = []int{0, 64, 256}[(kv>>1)%3]
	if next()&1 == 1 {
		cfg.GPU = gridGPU()
	}
	n := 1 + next()%80
	rate := float64(20 + next()%100)
	var reqs []workload.Request
	var err error
	var weights map[string]float64
	if next()&1 == 0 {
		tc := workload.DefaultTrace(int64(seed), n, rate)
		tc.SharedPrefixes = 4
		tc.SharedPrefixTokens = 256
		tc.SharedPrefixProb = 0.6
		reqs, err = workload.Generate(tc)
	} else {
		spec := workload.DefaultMultiTenant(int64(seed), n, rate)
		weights = make(map[string]float64, len(spec.Clients))
		for _, c := range spec.Clients {
			weights[c.TenantID] = c.RateFraction
		}
		reqs, err = workload.GenerateSpec(spec)
	}
	if err != nil {
		t.Fatal(err)
	}
	// Buckets tight enough that a few dozen requests meet them.
	switch adm {
	case 1:
		cfg.Admission = AdmissionConfig{Policy: AdmitReject, BurstTokens: 8000, RefillPerSec: 12000, Weights: weights}
	case 2:
		cfg.Admission = AdmissionConfig{Policy: AdmitQueue, BurstTokens: 8000, RefillPerSec: 12000, MaxQueueMS: 1000, Weights: weights}
	}
	return cfg, reqs, seed
}

// FuzzRun runs a fuzzed cluster configuration traced, with a decision
// log, and untraced. The traced run must resolve every request exactly
// once, leave every instance drained and the sequence pool whole
// (checkDrained), and pass obs.Check with the log attached; the
// untraced rerun must give the same results. A configuration without a
// fault plan runs traced once more with a plan that sets no
// probability, which must inject nothing: the same results, trace bytes
// and decisions. Its seed corpus is testdata/fuzz/FuzzRun.
func FuzzRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, reqs, seed := fuzzCluster(t, data)
		traced := cfg
		tr, dl := obs.NewTracer(), obs.NewDecisionLog()
		traced.Opts.Trace, traced.Opts.Decisions = tr, dl
		rep, c, err := runCluster(traced, reqs)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		resolved := make(map[string]int, len(reqs))
		for _, r := range reqs {
			resolved[r.ID]++
		}
		for _, res := range rep.Results {
			resolved[res.Req.ID]--
		}
		for id, left := range resolved {
			if left != 0 {
				t.Fatalf("request %s resolved %d times too few", id, left)
			}
		}
		checkDrained(t, "fuzz", &rep.Report, c, len(reqs))
		if err := tr.Check(); err != nil {
			t.Fatalf("trace fails Check: %v", err)
		}
		plain, err := Run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Results, rep.Results) {
			t.Fatal("tracing changed the results")
		}
		if cfg.Faults == nil {
			empty := traced
			empty.Faults = &FaultPlan{Seed: seed}
			etr, edl := obs.NewTracer(), obs.NewDecisionLog()
			empty.Opts.Trace, empty.Opts.Decisions = etr, edl
			erep, err := Run(empty, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(erep.Results, rep.Results) {
				t.Fatal("an empty fault plan changed the results")
			}
			var want, got bytes.Buffer
			if err := tr.WriteChrome(&want); err != nil {
				t.Fatal(err)
			}
			if err := etr.WriteChrome(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal("an empty fault plan changed the trace")
			}
			if !reflect.DeepEqual(edl.Decisions(), dl.Decisions()) {
				t.Fatal("an empty fault plan changed the decisions")
			}
		}
	})
}
