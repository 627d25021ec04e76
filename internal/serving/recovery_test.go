package serving

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dataai/internal/obs"
	"dataai/internal/workload"
)

// recoveryArms spans the policy space the drain invariant must hold
// over: nothing, checkpoints alone, checkpoints + migration, and the
// full stack with tiered prefix caches.
func recoveryArms() map[string]RecoveryConfig {
	return map[string]RecoveryConfig{
		"zero":       {},
		"ckpt":       {CkptEveryIters: 8},
		"ckpt+migr":  {CkptEveryIters: 8, Migrate: true},
		"full-stack": {CkptEveryIters: 4, Migrate: true, PrefixGPUTokens: 1024, PrefixCPUTokens: 8192},
	}
}

// queueLoadScan recomputes an instance's queueLoad from scratch: the
// reference the incremental load counter is tested against. A running
// sequence is read as of the instance's last decode step, on a copy, so
// the scan changes nothing.
func (in *instance) queueLoadScan() int {
	load := 0
	for i := 0; i < in.waiting.Len(); i++ {
		load += seqLoad(in.waiting.At(i))
	}
	for i := 0; i < in.prefillQ.Len(); i++ {
		load += seqLoad(in.prefillQ.At(i))
	}
	for _, s := range in.running {
		now := *s
		now.generated = in.generatedNow(s)
		load += seqLoad(&now)
	}
	return load
}

// TestPostDrainInvariants is the leak check behind every fault plan:
// once a run returns, no instance may still hold KV blocks or KV
// handles, the sequence pool must have every seqState back
// (outstanding == 0), and every pooled seqState must be zero — finished
// and drain-rejected sequences both drop their checkpoints, span refs
// and progress on the way back. It drains Run's clusters under every
// plan and recovery arm, and RunContinuous's one-instance cluster in
// both KV disciplines.
func TestPostDrainInvariants(t *testing.T) {
	reqs := prefixTrace(t, 83)
	plans := map[string]*FaultPlan{
		"none":       nil,
		"severe":     SevereFaultPlan(2303),
		"correlated": CorrelatedFaultPlan(2303, 2),
		"cascade":    CascadeFaultPlan(2303, 2),
	}
	for planName, plan := range plans {
		for armName, rec := range recoveryArms() {
			rep, c, err := runCluster(ClusterConfig{GPU: DefaultGPU(), Instances: 4, Router: BreakerAware,
				Opts: ContinuousOpts{ChunkTokens: 256}, Faults: plan, Recovery: rec}, reqs)
			if err != nil {
				t.Fatalf("%s/%s: %v", planName, armName, err)
			}
			checkDrained(t, planName+"/"+armName, &rep.Report, c, len(reqs))
		}
	}
	for _, onDemand := range []bool{false, true} {
		rep, c, err := runContinuous(DefaultGPU(), reqs, ContinuousOpts{ChunkTokens: 256, OnDemand: onDemand})
		if err != nil {
			t.Fatal(err)
		}
		checkDrained(t, fmt.Sprintf("continuous/ondemand=%t", onDemand), rep, c, len(reqs))
	}
}

// checkDrained asserts TestPostDrainInvariants' post-run state on one
// drained cluster that served n requests.
func checkDrained(t *testing.T, name string, rep *Report, c *cluster, n int) {
	t.Helper()
	if len(rep.Results) != n {
		t.Errorf("%s: %d results for %d requests", name, len(rep.Results), n)
	}
	for i, in := range c.insts {
		if used := in.kv.UsedBlocks(); used != 0 {
			t.Errorf("%s: instance %d still holds %d KV blocks after drain", name, i, used)
		}
		if len(in.kvFree) != in.kvNext {
			t.Errorf("%s: instance %d has %d of %d KV handles free after drain", name, i, len(in.kvFree), in.kvNext)
		}
		if in.load != 0 || in.queueLoadScan() != 0 {
			t.Errorf("%s: instance %d load counter %d (scan %d) after drain, want 0",
				name, i, in.load, in.queueLoadScan())
		}
	}
	if c.pool.outstanding != 0 {
		t.Errorf("%s: %d sequences never returned to the pool", name, c.pool.outstanding)
	}
	for _, s := range c.pool.free {
		if *s != (seqState{}) {
			t.Errorf("%s: pooled sequence kept state (checkpoint %d): %+v", name, s.ckpt, *s)
			break
		}
	}
}

// TestDrainRejectsNeverAdmitted ends a run with sequences that were
// never admitted: the caller's KV allocator holds all but two blocks
// under a handle the instance does not know, so every request needing
// more than 32 tokens waits until the engine runs dry. The drain must
// report each of them rejected, end its request span with "reject" in
// a trace that passes obs.Check, and return it to the sequence pool.
func TestDrainRejectsNeverAdmitted(t *testing.T) {
	gpu := gridGPU()
	const foreign = 1000 // far above the handles one instance hands out
	for _, onDemand := range []bool{false, true} {
		kv := NewPagedKV(gpu)
		if !kv.Alloc(foreign, (gpu.KVBlocks-2)*gpu.BlockSize) {
			t.Fatal("could not hold the foreign blocks")
		}
		reqs := []workload.Request{
			{ID: "small-0", ArrivalMS: 0, PromptTokens: 8, OutputTokens: 4},
			{ID: "big-1", ArrivalMS: 1, PromptTokens: 300, OutputTokens: 40},
			{ID: "big-2", ArrivalMS: 2, PromptTokens: 120, OutputTokens: 90},
			{ID: "small-3", ArrivalMS: 3, PromptTokens: 6, OutputTokens: 6},
			{ID: "big-4", ArrivalMS: 4, PromptTokens: 1000, OutputTokens: 8},
		}
		tr := obs.NewTracer()
		name := fmt.Sprintf("ondemand=%t", onDemand)
		rep, c, err := runContinuous(gpu, reqs, ContinuousOpts{KV: kv, OnDemand: onDemand, Trace: tr})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rejected := map[string]bool{}
		for _, r := range rep.Results {
			if r.Rejected {
				rejected[r.Req.ID] = true
			}
		}
		for _, id := range []string{"big-1", "big-2", "big-4"} {
			if !rejected[id] {
				t.Errorf("%s: %s was never admittable but is not reported rejected", name, id)
			}
		}
		// OnDemand admission keeps a watermark of free blocks, which two
		// free blocks do not clear, so only reserve-full serves small-0.
		if !onDemand && rejected["small-0"] {
			t.Errorf("%s: small-0 fits the free blocks but was rejected", name)
		}
		if rep.Rejected != len(rejected) {
			t.Errorf("%s: report counts %d rejected, results %d", name, rep.Rejected, len(rejected))
		}
		if err := tr.Check(); err != nil {
			t.Fatalf("%s: trace failed invariants: %v", name, err)
		}
		traced := map[string]bool{}
		for _, s := range tr.Spans() {
			if s.Cat == obs.CatRequest && s.Parent == 0 && s.Reason == "reject" {
				traced[strings.TrimPrefix(s.Track, "req/")] = true
			}
		}
		if !reflect.DeepEqual(traced, rejected) {
			t.Errorf("%s: request spans ended \"reject\" for %v, want %v", name, traced, rejected)
		}
		kv.Free(foreign)
		checkDrained(t, name, rep, c, len(reqs))
	}
}

func TestCheckpointStore(t *testing.T) {
	r := newRecovery(RecoveryConfig{CkptEveryIters: 4})
	var pool seqPool
	s := pool.get(workload.Request{ID: "a"})
	if s.ckpt != 0 {
		t.Fatalf("covered on a fresh sequence = %d", s.ckpt)
	}
	if delta := r.save(s, 100); delta != 100 {
		t.Fatalf("first save delta = %d, want 100", delta)
	}
	if delta := r.save(s, 140); delta != 40 {
		t.Fatalf("incremental save delta = %d, want 40", delta)
	}
	// A save that covers nothing new writes nothing.
	if delta := r.save(s, 140); delta != 0 {
		t.Fatalf("no-progress save delta = %d, want 0", delta)
	}
	if s.ckpt != 140 {
		t.Fatalf("covered = %d, want 140", s.ckpt)
	}
	if r.writes != 2 || r.writeTokens != 140 {
		t.Fatalf("writes=%d writeTokens=%d, want 2 and 140", r.writes, r.writeTokens)
	}
	// A second live sequence with the same request ID has its own
	// checkpoint.
	twin := pool.get(workload.Request{ID: "a"})
	if twin.ckpt != 0 {
		t.Fatalf("same-ID sequence sees checkpoint %d", twin.ckpt)
	}
	if delta := r.save(twin, 60); delta != 60 || s.ckpt != 140 {
		t.Fatalf("same-ID save delta = %d (first sequence at %d), want 60 and 140", delta, s.ckpt)
	}
	// Returning the sequence to the pool drops its checkpoint.
	pool.put(s)
	if s.ckpt != 0 {
		t.Fatalf("covered after put = %d", s.ckpt)
	}
}

// TestCheckpointCutsWastedRecompute is the tentpole's core mechanism in
// isolation: under an aggressive crash plan, checkpointed sequences
// resume from their saved context instead of re-prefilling from token
// zero, so the checkpointed run must waste strictly fewer recompute
// tokens and record resumes.
func TestCheckpointCutsWastedRecompute(t *testing.T) {
	reqs := prefixTrace(t, 47)
	plan := SevereFaultPlan(2303)
	base, err := Run(ClusterConfig{GPU: DefaultGPU(), Instances: 4, Router: BreakerAware,
		Opts: ContinuousOpts{ChunkTokens: 256}, Faults: plan}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := Run(ClusterConfig{GPU: DefaultGPU(), Instances: 4, Router: BreakerAware,
		Opts: ContinuousOpts{ChunkTokens: 256}, Faults: plan, Recovery: RecoveryConfig{CkptEveryIters: 8}}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if base.Crashes == 0 || base.WastedRecomputeTokens == 0 {
		t.Fatalf("baseline injected nothing: %d crashes, %d wasted", base.Crashes, base.WastedRecomputeTokens)
	}
	if ck.CkptWrites == 0 || ck.ResumedFromCkpt == 0 {
		t.Fatalf("checkpoint arm inert: %d writes, %d resumes", ck.CkptWrites, ck.ResumedFromCkpt)
	}
	if ck.WastedRecomputeTokens >= base.WastedRecomputeTokens {
		t.Errorf("checkpointing did not cut wasted recompute: %d >= %d",
			ck.WastedRecomputeTokens, base.WastedRecomputeTokens)
	}
	if ck.RecoveryMS.Count() == 0 {
		t.Error("no recovery latency samples on a crashing checkpointed run")
	}
}

// TestMigrationTraceInvariants runs the full recovery stack traced and
// checks the migration story end to end: migrations happen, the
// "migrate" phase appears under request roots, the reroute_migration
// and resume_from_checkpoint counters agree with the report, and the
// trace passes obs.Check — including its migrated-session non-overlap
// invariant (a sequence is never resident in two places at once).
func TestMigrationTraceInvariants(t *testing.T) {
	cfg := workload.DefaultTrace(2401, 400, 70)
	cfg.SharedPrefixes = 8
	cfg.SharedPrefixTokens = 192
	cfg.SharedPrefixProb = 0.6
	reqs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	rec := RecoveryConfig{CkptEveryIters: 8, Migrate: true, MigrateMinTokens: 64,
		PrefixGPUTokens: 1024, PrefixCPUTokens: 8192}
	rep, err := Run(ClusterConfig{GPU: DefaultGPU(), Instances: 8, Router: BreakerAware,
		Opts: ContinuousOpts{ChunkTokens: 256, Trace: tr}, Faults: CascadeFaultPlan(2403, 4), Recovery: rec}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrations == 0 {
		t.Fatal("cascade plan produced no migrations")
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("migration trace failed invariants: %v", err)
	}
	migratePhases := 0
	for _, s := range tr.Spans() {
		if s.Cat == obs.CatRequest && s.Name == "migrate" {
			migratePhases++
		}
	}
	if migratePhases != rep.Migrations {
		t.Errorf("migrate phase spans = %d, report says %d migrations", migratePhases, rep.Migrations)
	}
	reg := tr.Registry()
	if got := reg.Lookup("router/reroute_migration").Final(); got != float64(rep.Migrations) {
		t.Errorf("router/reroute_migration counter = %v, report says %d", got, rep.Migrations)
	}
	if got := reg.Lookup("router/resume_from_checkpoint").Final(); got != float64(rep.ResumedFromCkpt) {
		t.Errorf("router/resume_from_checkpoint counter = %v, report says %d", got, rep.ResumedFromCkpt)
	}
	if rep.ResumedFromCkpt == 0 {
		t.Error("no checkpoint resumes under a crashing plan with migration on")
	}
}

// TestMigrationDeterministic: two identical full-stack runs must agree
// exactly — migration decisions read only logical-clock state.
func TestMigrationDeterministic(t *testing.T) {
	reqs := prefixTrace(t, 83)
	rec := RecoveryConfig{CkptEveryIters: 8, Migrate: true, PrefixGPUTokens: 1024, PrefixCPUTokens: 8192}
	run := func() *RoutedReport {
		rep, err := Run(ClusterConfig{GPU: DefaultGPU(), Instances: 4, Router: BreakerAware,
			Opts: ContinuousOpts{ChunkTokens: 256}, Faults: CascadeFaultPlan(2303, 2), Recovery: rec}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Error("two identical migration runs diverged")
	}
}

func TestTieredPrefixCache(t *testing.T) {
	pc := newTieredPrefixCache(100, 200, 100)
	// Warm three prefixes of 50 tokens; the third overflows the GPU tier
	// and demotes the coldest (the first).
	for _, id := range []string{"a", "b", "c"} {
		if got := pc.SavedTokens(id, 50); got != 0 {
			t.Fatalf("cold lookup %s saved %d", id, got)
		}
	}
	cpuHits, demotions := pc.TierStats()
	if demotions != 1 || cpuHits != 0 {
		t.Fatalf("after overflow: %d demotions %d cpu hits, want 1 and 0", demotions, cpuHits)
	}
	// Hitting the demoted prefix promotes it back, netting the transfer
	// cost at prefixXferMSPerToken on a GPU that prefills 100 tokens/ms:
	// 50 - floor(50*0.005*100) = 50 - 25 = 25 tokens saved.
	if got := pc.SavedTokens("a", 50); got != 25 {
		t.Fatalf("promoted hit saved %d tokens, want 25", got)
	}
	cpuHits, _ = pc.TierStats()
	if cpuHits != 1 {
		t.Fatalf("cpu hits = %d, want 1", cpuHits)
	}
	// A GPU hit is free of transfer cost.
	if got := pc.SavedTokens("a", 50); got != 50 {
		t.Fatalf("gpu hit saved %d tokens, want 50", got)
	}
	// Invalidate wipes the GPU tier only: the host tier survives the
	// crash, so the demoted entry is still promotable afterwards.
	pc.Invalidate()
	if got := pc.SavedTokens("a", 50); got != 0 {
		t.Fatalf("post-crash gpu lookup saved %d, want 0 (tier wiped)", got)
	}
	pc2 := newTieredPrefixCache(100, 200, 100)
	pc2.SavedTokens("x", 80)
	pc2.SavedTokens("y", 80) // x demoted to CPU
	pc2.Invalidate()         // y (GPU) gone, x (CPU) survives
	if got := pc2.SavedTokens("x", 80); got <= 0 {
		t.Errorf("CPU tier did not survive Invalidate: saved %d", got)
	}
	// The unbounded legacy cache never demotes.
	legacy := NewPrefixCache()
	for i := 0; i < 50; i++ {
		legacy.SavedTokens(string(rune('a'+i%26))+"x", 1000)
	}
	if _, d := legacy.TierStats(); d != 0 {
		t.Errorf("unbounded cache demoted %d prefixes", d)
	}
}
