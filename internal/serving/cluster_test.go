package serving

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"dataai/internal/par"
	"dataai/internal/sim"
	"dataai/internal/workload"
)

// assignments extracts the per-request routing decision (request ID →
// serving instance) from a routed report, the routing trace the
// determinism contract is stated over.
func assignments(rep *RoutedReport) map[string]int {
	out := make(map[string]int, len(rep.Results))
	for _, r := range rep.Results {
		if !r.Rejected {
			out[r.Req.ID] = r.Instance
		}
	}
	return out
}

func TestRouterDeterministicAcrossInstanceAndWorkerCounts(t *testing.T) {
	// Same trace + same seed must yield byte-identical routing decisions
	// and Report fields on every run, for every instance count, and
	// regardless of how many workers run the simulation concurrently —
	// each run owns a private engine, so parallelism cannot leak in.
	gpu := DefaultGPU()
	reqs := prefixTrace(t, 47)
	plans := []struct {
		name string
		plan *FaultPlan
	}{{"none", nil}, {"severe", SevereFaultPlan(2303)}}
	for _, n := range []int{1, 2, 4, 8} {
		for _, policy := range []RouterPolicy{RoundRobin, CacheAware, BreakerAware} {
			for _, pc := range plans {
				t.Run(fmt.Sprintf("n%d/%s/%s", n, policy, pc.name), func(t *testing.T) {
					const runs = 4
					reps := par.Map(runs, runs, func(int) *RoutedReport {
						rep, err := Run(ClusterConfig{GPU: gpu, Instances: n, Router: policy,
							Opts: ContinuousOpts{ChunkTokens: 256}, Faults: pc.plan}, reqs)
						if err != nil {
							t.Error(err)
							return nil
						}
						return rep
					})
					if reps[0] == nil {
						t.Fatal("missing report")
					}
					for i := 1; i < runs; i++ {
						if reps[i] == nil {
							t.Fatal("missing report")
						}
						if !reflect.DeepEqual(assignments(reps[0]), assignments(reps[i])) {
							t.Fatal("routing decisions diverged across concurrent runs")
						}
						if !reflect.DeepEqual(reps[0], reps[i]) {
							t.Fatal("report fields diverged across concurrent runs")
						}
					}
				})
			}
		}
	}
}

func TestRouterTieBreakAtEqualScores(t *testing.T) {
	// With identical live state (fresh idle instances) every policy must
	// break ties deterministically toward the lowest eligible index.
	noAffinity := workload.Request{ID: "r", PromptTokens: 100, OutputTokens: 10}
	cases := []struct {
		policy  RouterPolicy
		exclude int
		want    int
	}{
		{CacheAware, -1, 0},
		{CacheAware, 0, 1}, // exclusion shifts the tie to the next index
		{BreakerAware, -1, 0},
		{BreakerAware, 0, 1},
	}
	for _, tc := range cases {
		c := newBareCluster(tc.policy, 4)
		if g := c.route(0, &noAffinity, tc.exclude, false); g != tc.want {
			t.Errorf("%v exclude=%d picked %d, want %d", tc.policy, tc.exclude, g, tc.want)
		}
	}
	// RoundRobin rotates regardless of state.
	c := newBareCluster(RoundRobin, 4)
	got := []int{}
	for i := 0; i < 5; i++ {
		got = append(got, c.route(0, &noAffinity, -1, false))
	}
	if want := []int{0, 1, 2, 3, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("round-robin order = %v, want %v", got, want)
	}
	// An open breaker pushes an otherwise-idle instance out of the
	// breaker-aware choice.
	c = newBareCluster(BreakerAware, 4)
	for i := 0; i < 2; i++ {
		c.breakers[0].OnFailure(0)
	}
	if g := c.route(0, &noAffinity, -1, false); g != 1 {
		t.Errorf("breaker-aware with instance 0 open picked %d, want 1", g)
	}
}

func TestClusterPeakKVIsSimultaneousHighWater(t *testing.T) {
	// Regression for the historical RoutedReport.PeakKVBlocks bug: it
	// summed per-instance peaks from runs that never shared a clock, so
	// two instances busy at *different* times still counted as if their
	// peaks coincided. The shared tally must track true simultaneous
	// occupancy. Two instances settle their allocator calls into one
	// tally, as Run's instances do.
	gpu := DefaultGPU()
	eng := sim.NewEngine()
	tally := &clusterTally{}
	a := newInstance(0, gpu, ContinuousOpts{}, eng, nil, nil)
	b := newInstance(1, gpu, ContinuousOpts{}, eng, nil, nil)
	a.tally, b.tally = tally, tally
	s1, s2, s3, s4 := &seqState{}, &seqState{}, &seqState{}, &seqState{}

	if !a.kvAlloc(s1, 1600) { // 100 blocks
		t.Fatal("alloc a")
	}
	a.kvRelease(s1)
	if !b.kvAlloc(s2, 1600) { // 100 blocks, after a's released
		t.Fatal("alloc b")
	}
	b.kvRelease(s2)
	sum := a.kv.PeakBlocks() + b.kv.PeakBlocks()
	if tally.peak != 100 || tally.used != 0 || sum != 200 {
		t.Errorf("cluster peak = %d, used %d (per-instance sum %d), want 100, 0 vs 200", tally.peak, tally.used, sum)
	}

	// Overlapping usage does count together, and an Extend's growth
	// counts too.
	a.kvAlloc(s3, 1600)
	b.kvAlloc(s4, 1600)
	if !a.kvExtend(s3, 1616) { // one block more
		t.Fatal("extend a")
	}
	if tally.peak != 201 || tally.used != 201 {
		t.Errorf("overlapping peak = %d, used %d, want 201", tally.peak, tally.used)
	}
}

func TestRoutedSingleInstanceMatchesContinuous(t *testing.T) {
	// A one-instance Run on a prefix-free trace is RunContinuous with
	// a breaker and a prefix cache that never hits: under every router
	// policy, dedicated and chunked prefill, and both KV disciplines,
	// the two reports must be identical.
	gpu := DefaultGPU()
	reqs, err := workload.Generate(workload.DefaultTrace(53, 200, 40))
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []RouterPolicy{RoundRobin, CacheAware, BreakerAware} {
		for _, chunk := range []int{0, 256} {
			for _, onDemand := range []bool{false, true} {
				opts := ContinuousOpts{ChunkTokens: chunk, OnDemand: onDemand}
				solo, err := RunContinuous(gpu, reqs, opts)
				if err != nil {
					t.Fatal(err)
				}
				routed, err := Run(ClusterConfig{GPU: gpu, Instances: 1, Router: policy, Opts: opts}, reqs)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(routed.Report, *solo) {
					t.Errorf("%s chunk=%d ondemand=%t: one-instance Run diverged from RunContinuous: makespan %v vs %v, peak %d vs %d, preemptions %d vs %d",
						policy, chunk, onDemand, routed.MakespanMS, solo.MakespanMS,
						routed.PeakKVBlocks, solo.PeakKVBlocks, routed.Preemptions, solo.Preemptions)
				}
			}
		}
	}
}

func TestFaultPlanDrawsArePure(t *testing.T) {
	p1 := SevereFaultPlan(99)
	p2 := SevereFaultPlan(99)
	other := SevereFaultPlan(100)
	differs := false
	for inst := 0; inst < 4; inst++ {
		for w := 0; w < 32; w++ {
			if p1.crashAt(inst, w) != p2.crashAt(inst, w) {
				t.Fatal("crash draw not a pure function of (seed, instance, window)")
			}
			if p1.slowdownAt(inst, w) != p2.slowdownAt(inst, w) {
				t.Fatal("straggler draw not pure")
			}
			if p1.crashAt(inst, w) != other.crashAt(inst, w) {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("different seeds never diverged in 128 windows")
	}
	// A nil plan injects nothing.
	var nilPlan *FaultPlan
	if nilPlan.crashAt(0, 0) || nilPlan.slowdownAt(0, 0) != 1 {
		t.Error("nil plan injected a fault")
	}
}

func TestCrashDropsAndReroutesInFlightSequences(t *testing.T) {
	// Drive two instances by hand: crash one mid-decode and verify its
	// sequences are surrendered with their KV freed and cache savings
	// forgotten, then complete on the survivor with the emitted-token
	// count intact.
	gpu := DefaultGPU()
	eng := sim.NewEngine()
	var finished []Result
	pool := &seqPool{}
	a := newInstance(0, gpu, ContinuousOpts{}, eng, pool, func(float64) *Result { return nextResult(&finished) })
	b := newInstance(1, gpu, ContinuousOpts{}, eng, pool, func(float64) *Result { return nextResult(&finished) })
	// The pool zeroes a sequence when it finishes, so capture the
	// dropped state at drop time, not after the run.
	dropped, droppedGen := 0, 0
	a.onDrop = func(now float64, lost []*seqState) {
		for _, s := range lost {
			dropped++
			droppedGen = s.generated
			b.arrive(now, s) // immediate re-route for the test
		}
	}
	req := workload.Request{ID: "r1", PromptTokens: 200, OutputTokens: 20, ArrivalMS: 0}
	eng.At(0, func(now float64) { a.arrive(now, pool.get(req)) })
	// Prefill takes 10ms; crash at 30ms lands mid-decode.
	eng.At(30, func(now float64) { a.crash(now) })
	eng.Run()

	if dropped != 1 {
		t.Fatalf("dropped %d sequences, want 1", dropped)
	}
	if droppedGen < 1 {
		t.Error("crash before any emitted token despite 30ms of decode")
	}
	if a.kv.UsedBlocks() != 0 {
		t.Errorf("crashed instance still holds %d KV blocks", a.kv.UsedBlocks())
	}
	if len(finished) != 1 {
		t.Fatalf("finished %d results, want 1", len(finished))
	}
	r := finished[0]
	if r.Instance != 1 {
		t.Errorf("completed on instance %d, want the re-route target 1", r.Instance)
	}
	if r.Rejected || r.FinishMS <= 30 {
		t.Errorf("suspicious completion: %+v", r)
	}
	if b.kv.UsedBlocks() != 0 || b.preemptions != 0 {
		t.Error("survivor did not settle cleanly")
	}
}

func TestPrefixInvalidateAndSessionDropGPU(t *testing.T) {
	pc := NewPrefixCache()
	if pc.SavedTokens("p1", 100) != 0 { // warms
		t.Fatal("first lookup should miss")
	}
	if pc.SavedTokens("p1", 100) != 100 {
		t.Fatal("second lookup should hit")
	}
	pc.Invalidate()
	if pc.SavedTokens("p1", 100) != 0 {
		t.Error("invalidate did not clear cached prefixes")
	}
	hits, misses := pc.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("stats after invalidate = %d/%d, want 1/2", hits, misses)
	}

	store, err := NewSessionStore(SessionStoreConfig{
		GPUCapacityTokens: 1000, CPUCapacityTokens: 1000,
		TransferMSPerToken: 0.01, PrefillTokensPerMS: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	store.Store(0, "sess-gpu", 400)
	store.Store(0, "sess-demoted", 700) // evicts sess-gpu to CPU tier
	store.DropGPU()
	if got := store.Lookup(1, "sess-demoted", 700, 800); got != 0 {
		t.Errorf("GPU-tier entry survived the crash: saved %d", got)
	}
	if got := store.Lookup(1, "sess-gpu", 400, 500); got <= 0 {
		t.Errorf("CPU-tier entry should survive the crash, saved %d", got)
	}
}

func TestBreakerAwareWinsGoodputUnderSevereFaults(t *testing.T) {
	// The E23 acceptance property: under the severe fault plan the
	// breaker-aware policy routes around tripped instances and beats both
	// baselines on goodput.
	gpu := DefaultGPU()
	cfg := workload.DefaultTrace(2301, 600, 60)
	cfg.SharedPrefixes = 8
	cfg.SharedPrefixTokens = 192
	cfg.SharedPrefixProb = 0.6
	reqs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := SevereFaultPlan(2303)
	goodput := map[RouterPolicy]float64{}
	for _, pol := range []RouterPolicy{RoundRobin, CacheAware, BreakerAware} {
		rep, err := Run(ClusterConfig{GPU: gpu, Instances: 4, Router: pol,
			Opts: ContinuousOpts{ChunkTokens: 256}, Faults: plan}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Crashes == 0 {
			t.Fatalf("%v: severe plan applied no crashes", pol)
		}
		goodput[pol] = rep.Goodput(1500, 25)
	}
	if goodput[BreakerAware] <= goodput[RoundRobin] || goodput[BreakerAware] <= goodput[CacheAware] {
		t.Errorf("breaker-aware goodput %.4f does not beat round-robin %.4f / cache-aware %.4f",
			goodput[BreakerAware], goodput[RoundRobin], goodput[CacheAware])
	}
}

// TestDuplicateIDsServeLikeDistinct: a request ID names a request for
// its caller, and nothing the simulator keeps per live sequence — KV
// blocks, checkpoints — is keyed by it. So a trace whose live requests
// share IDs must be served exactly like the same trace with distinct
// IDs: the same Results in the same order once IDs are set aside, and
// the same report, checkpoint writes and tokens included. Keying by ID
// made a second live request with the same ID queue behind the first
// (its KV reservation was refused) and made same-ID sequences share one
// checkpoint.
func TestDuplicateIDsServeLikeDistinct(t *testing.T) {
	// Two requests 1 ms apart: the second one's first token waits for
	// the first one's prefill, not for its whole lifetime.
	pair := []workload.Request{
		{ID: "a", ArrivalMS: 0, PromptTokens: 64, OutputTokens: 200},
		{ID: "b", ArrivalMS: 1, PromptTokens: 64, OutputTokens: 200},
	}
	trace := prefixTrace(t, 91)
	rec := RecoveryConfig{CkptEveryIters: 4, Migrate: true}
	runs := []struct {
		name string
		reqs []workload.Request
		run  func([]workload.Request) (*RoutedReport, error)
	}{
		{"continuous", pair, func(reqs []workload.Request) (*RoutedReport, error) {
			rep, err := RunContinuous(DefaultGPU(), reqs, ContinuousOpts{})
			if err != nil {
				return nil, err
			}
			return &RoutedReport{Report: *rep}, nil
		}},
		{"routed-1", pair, func(reqs []workload.Request) (*RoutedReport, error) {
			return Run(ClusterConfig{GPU: DefaultGPU(), Instances: 1, Router: BreakerAware,
				Recovery: rec}, reqs)
		}},
		{"continuous-trace", trace, func(reqs []workload.Request) (*RoutedReport, error) {
			rep, err := RunContinuous(DefaultGPU(), reqs, ContinuousOpts{ChunkTokens: 256, OnDemand: true})
			if err != nil {
				return nil, err
			}
			return &RoutedReport{Report: *rep}, nil
		}},
		{"routed-4-ckpt-migrate", trace, func(reqs []workload.Request) (*RoutedReport, error) {
			return Run(ClusterConfig{GPU: DefaultGPU(), Instances: 4, Router: BreakerAware,
				Opts: ContinuousOpts{ChunkTokens: 256}, Faults: SevereFaultPlan(2303), Recovery: rec}, reqs)
		}},
	}
	withoutIDs := func(rep *RoutedReport) *RoutedReport {
		out := *rep
		out.Results = append([]Result(nil), rep.Results...)
		for i := range out.Results {
			out.Results[i].Req.ID = ""
		}
		return &out
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			distinct := append([]workload.Request(nil), tc.reqs...)
			shared := append([]workload.Request(nil), tc.reqs...)
			for i := range distinct {
				distinct[i].ID = fmt.Sprintf("r%04d", i)
				shared[i].ID = "a"
			}
			want, err := tc.run(distinct)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tc.run(shared)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Results) != len(tc.reqs) {
				t.Fatalf("%d results for %d requests", len(got.Results), len(tc.reqs))
			}
			if got.CkptWrites != want.CkptWrites || got.CkptTokens != want.CkptTokens {
				t.Errorf("checkpoints: shared IDs %d writes / %d tokens, distinct %d / %d",
					got.CkptWrites, got.CkptTokens, want.CkptWrites, want.CkptTokens)
			}
			if !reflect.DeepEqual(withoutIDs(got), withoutIDs(want)) {
				t.Errorf("shared IDs changed the run: TTFT p99 %.1f vs %.1f ms, makespan %.1f vs %.1f ms",
					got.TTFT.P99(), want.TTFT.P99(), got.MakespanMS, want.MakespanMS)
			}
		})
	}
	// By hand: the second request arrives 1 ms into the first's 3.2 ms
	// prefill and is prefilled right after it, whatever its ID.
	twin := pair[1]
	twin.ID = pair[0].ID
	rep, err := RunContinuous(DefaultGPU(), []workload.Request{pair[0], twin}, ContinuousOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := 2*64/DefaultGPU().PrefillTokensPerMS - 1
	for _, r := range rep.Results {
		if r.Req.ArrivalMS == 1 && math.Abs(r.TTFTms-want) > 1e-9 {
			t.Errorf("second same-ID request TTFT = %.4f ms, want %.4f", r.TTFTms, want)
		}
	}
}
