package training

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemoryPerWorkerOrdering(t *testing.T) {
	m := GPT13B()
	const workers = 8
	var prev int64 = math.MaxInt64
	for _, s := range []Strategy{DP, ZeRO1, ZeRO2, ZeRO3} {
		mem, err := MemoryPerWorker(m, s, workers)
		if err != nil {
			t.Fatal(err)
		}
		if mem > prev {
			t.Errorf("%s memory %d exceeds previous stage %d", s, mem, prev)
		}
		prev = mem
	}
	// FSDP matches ZeRO-3.
	z3, _ := MemoryPerWorker(m, ZeRO3, workers)
	fs, _ := MemoryPerWorker(m, FSDP, workers)
	if z3 != fs {
		t.Errorf("FSDP %d != ZeRO-3 %d", fs, z3)
	}
}

func TestMemoryPerWorkerZeROPaperRatios(t *testing.T) {
	// The ZeRO paper's canonical accounting: 16 bytes/param baseline,
	// 16/N at stage 3.
	m := GPT13B()
	const workers = 8
	dp, _ := MemoryPerWorker(m, DP, workers)
	if dp != m.Params*16 {
		t.Errorf("DP memory = %d, want 16 bytes/param", dp)
	}
	z3, _ := MemoryPerWorker(m, ZeRO3, workers)
	if z3 != m.Params*16/workers {
		t.Errorf("ZeRO-3 memory = %d, want 16/N bytes/param", z3)
	}
	z1, _ := MemoryPerWorker(m, ZeRO1, workers)
	want := m.Params*4 + m.Params*12/workers
	if z1 != want {
		t.Errorf("ZeRO-1 memory = %d, want %d", z1, want)
	}
}

func TestMemoryValidation(t *testing.T) {
	if _, err := MemoryPerWorker(ModelConfig{}, DP, 4); !errors.Is(err, ErrConfig) {
		t.Errorf("bad model err = %v", err)
	}
	if _, err := MemoryPerWorker(GPT13B(), DP, 0); !errors.Is(err, ErrConfig) {
		t.Errorf("bad workers err = %v", err)
	}
}

func TestCommBytes(t *testing.T) {
	m := GPT13B()
	dp, _ := CommBytesPerStep(m, DP, 8)
	z3, _ := CommBytesPerStep(m, ZeRO3, 8)
	if z3 != dp*1.5 {
		t.Errorf("ZeRO-3 comm %v != 1.5x DP %v", z3, dp)
	}
	single, _ := CommBytesPerStep(m, DP, 1)
	if single != 0 {
		t.Errorf("single worker comm = %v", single)
	}
}

func TestStepTimeScaling(t *testing.T) {
	m := GPT13B()
	c := DefaultCluster()
	t1, err := StepTime(m, c, DP, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := StepTime(m, c, DP, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	if t2 <= t1 {
		t.Error("larger batch not slower")
	}
	// ZeRO-3 pays more communication.
	t3, _ := StepTime(m, c, ZeRO3, 1<<20)
	if t3 <= t1 {
		t.Errorf("ZeRO-3 step %v not slower than DP %v", t3, t1)
	}
}

func TestFitsMemory(t *testing.T) {
	m := GPT13B()
	c := DefaultCluster()
	c.DeviceMemory = 10 << 30 // 10 GiB: DP needs ~20.8 GB, ZeRO-3 ~2.6 GB
	if err := FitsMemory(m, c, DP); !errors.Is(err, ErrOOM) {
		t.Errorf("DP should OOM: %v", err)
	}
	if err := FitsMemory(m, c, ZeRO3); err != nil {
		t.Errorf("ZeRO-3 should fit: %v", err)
	}
}

func TestCheckpointShardingAndFlatten(t *testing.T) {
	params := []float32{1, 2, 3, 4, 5, 6, 7}
	ck, err := NewCheckpoint(10, params, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Shards) != 3 {
		t.Fatalf("shards = %d", len(ck.Shards))
	}
	// 7 params over 3 workers: 3,2,2.
	if len(ck.Shards[0]) != 3 || len(ck.Shards[1]) != 2 || len(ck.Shards[2]) != 2 {
		t.Errorf("shard sizes: %d %d %d", len(ck.Shards[0]), len(ck.Shards[1]), len(ck.Shards[2]))
	}
	flat := ck.Flatten()
	for i, v := range params {
		if flat[i] != v {
			t.Fatalf("flatten mismatch at %d", i)
		}
	}
	if ck.TotalParams() != 7 {
		t.Errorf("TotalParams = %d", ck.TotalParams())
	}
}

func TestReshardPreservesParamsProperty(t *testing.T) {
	f := func(seed int64, n uint8, w1, w2 uint8) bool {
		size := int(n)%200 + 1
		workers1 := int(w1)%16 + 1
		workers2 := int(w2)%16 + 1
		rng := rand.New(rand.NewSource(seed))
		params := make([]float32, size)
		for i := range params {
			params[i] = rng.Float32()
		}
		ck, err := NewCheckpoint(5, params, workers1)
		if err != nil {
			return false
		}
		re, err := ck.Reshard(workers2)
		if err != nil {
			return false
		}
		if re.Workers != workers2 || re.Step != 5 {
			return false
		}
		flat := re.Flatten()
		if len(flat) != size {
			return false
		}
		for i := range params {
			if flat[i] != params[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOptimalInterval(t *testing.T) {
	got := OptimalIntervalS(10, 3600)
	want := math.Sqrt(2 * 10 * 3600)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("OptimalIntervalS = %v, want %v", got, want)
	}
	if OptimalIntervalS(0, 100) != 0 || OptimalIntervalS(10, 0) != 0 {
		t.Error("degenerate inputs should return 0")
	}
}

func runCfg(policy Policy, failures []int) RunConfig {
	return RunConfig{
		Steps:            64,
		BatchTokens:      1 << 21,
		CheckpointEvery:  8,
		Policy:           policy,
		FailAtExecSteps:  failures,
		RestartOverheadS: 30,
	}
}

func TestSimulateRunNoFailures(t *testing.T) {
	m := GPT13B()
	c := DefaultCluster()
	rep, err := SimulateRun(m, c, ZeRO2, runCfg(SyncPolicy{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 || rep.RecomputeS != 0 || rep.RecoveryS != 0 {
		t.Errorf("clean run has failure artifacts: %+v", rep)
	}
	if rep.Checkpoints != 7 { // steps 8..56, not at 64
		t.Errorf("checkpoints = %d, want 7", rep.Checkpoints)
	}
	if rep.StallS <= 0 {
		t.Error("sync policy produced no stall")
	}
	if rep.TotalS < rep.ComputeS {
		t.Error("total < compute")
	}
}

func TestAsyncStallsLessThanSync(t *testing.T) {
	m := GPT13B()
	c := DefaultCluster()
	syncRep, err := SimulateRun(m, c, ZeRO2, runCfg(SyncPolicy{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	asyncRep, err := SimulateRun(m, c, ZeRO2, runCfg(AsyncPolicy{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if asyncRep.StallS >= syncRep.StallS {
		t.Errorf("async stall %v >= sync %v", asyncRep.StallS, syncRep.StallS)
	}
	if asyncRep.TotalS >= syncRep.TotalS {
		t.Errorf("async total %v >= sync %v", asyncRep.TotalS, syncRep.TotalS)
	}
}

func TestDiffAndQuantPersistLess(t *testing.T) {
	m := GPT13B()
	c := DefaultCluster()
	syncRep, _ := SimulateRun(m, c, ZeRO2, runCfg(SyncPolicy{}, nil))
	diffRep, err := SimulateRun(m, c, ZeRO2, runCfg(&DiffPolicy{FullEvery: 4, ChangedFraction: 0.2}, nil))
	if err != nil {
		t.Fatal(err)
	}
	quantRep, err := SimulateRun(m, c, ZeRO2, runCfg(QuantPolicy{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if diffRep.BytesPersisted >= syncRep.BytesPersisted {
		t.Errorf("diff bytes %d >= sync %d", diffRep.BytesPersisted, syncRep.BytesPersisted)
	}
	if quantRep.BytesPersisted >= syncRep.BytesPersisted {
		t.Errorf("quant bytes %d >= sync %d", quantRep.BytesPersisted, syncRep.BytesPersisted)
	}
	if diffRep.StallS >= syncRep.StallS {
		t.Errorf("diff stall %v >= sync %v", diffRep.StallS, syncRep.StallS)
	}
}

func TestFailureRecovery(t *testing.T) {
	m := GPT13B()
	c := DefaultCluster()
	rep, err := SimulateRun(m, c, ZeRO2, runCfg(SyncPolicy{}, []int{20}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 1 {
		t.Fatalf("failures = %d", rep.Failures)
	}
	if rep.RecoveryS <= 0 {
		t.Error("no recovery time recorded")
	}
	// Failed at exec step 20, last durable checkpoint at 16: 4 steps lost.
	stepS, _ := StepTime(m, c, ZeRO2, 1<<21)
	wantLost := 4 * stepS
	if math.Abs(rep.RecomputeS-wantLost) > stepS/2 {
		t.Errorf("recompute %v, want ~%v", rep.RecomputeS, wantLost)
	}
	clean, _ := SimulateRun(m, c, ZeRO2, runCfg(SyncPolicy{}, nil))
	if rep.TotalS <= clean.TotalS {
		t.Error("failed run not slower than clean run")
	}
}

func TestMoreFrequentCheckpointsLoseLessWork(t *testing.T) {
	m := GPT13B()
	c := DefaultCluster()
	mk := func(every int) RunReport {
		rc := runCfg(SyncPolicy{}, []int{40})
		rc.CheckpointEvery = every
		rep, err := SimulateRun(m, c, ZeRO2, rc)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	frequent := mk(4)
	rare := mk(32)
	if frequent.RecomputeS >= rare.RecomputeS {
		t.Errorf("frequent ckpt recompute %v >= rare %v", frequent.RecomputeS, rare.RecomputeS)
	}
	if frequent.StallS <= rare.StallS {
		t.Errorf("frequent ckpt stall %v <= rare %v", frequent.StallS, rare.StallS)
	}
}

func TestNoCheckpointLosesEverything(t *testing.T) {
	m := GPT13B()
	c := DefaultCluster()
	rc := runCfg(nil, []int{30})
	rc.CheckpointEvery = 0
	rep, err := SimulateRun(m, c, ZeRO2, rc)
	if err != nil {
		t.Fatal(err)
	}
	stepS, _ := StepTime(m, c, ZeRO2, 1<<21)
	if math.Abs(rep.RecomputeS-30*stepS) > stepS/2 {
		t.Errorf("recompute %v, want ~%v (all 30 steps)", rep.RecomputeS, 30*stepS)
	}
}

func TestAsyncFailureBeforeFlushFallsBack(t *testing.T) {
	m := GPT13B()
	c := DefaultCluster()
	// Make flush very slow so the first checkpoint is still in flight
	// when the failure hits right after it.
	c.StorageBW = 1 << 20 // 1 MiB/s
	rc := RunConfig{
		Steps:            20,
		BatchTokens:      1 << 21,
		CheckpointEvery:  8,
		Policy:           AsyncPolicy{},
		FailAtExecSteps:  []int{9},
		RestartOverheadS: 1,
	}
	rep, err := SimulateRun(m, c, ZeRO2, rc)
	if err != nil {
		t.Fatal(err)
	}
	// The step-8 checkpoint was not durable at exec step 9: all 9 steps
	// are recomputed.
	stepS, _ := StepTime(m, c, ZeRO2, 1<<21)
	if rep.RecomputeS < 8*stepS {
		t.Errorf("recompute %v, want >= 8 steps (%v)", rep.RecomputeS, 8*stepS)
	}
}

func TestSimulateRunValidation(t *testing.T) {
	m := GPT13B()
	c := DefaultCluster()
	if _, err := SimulateRun(m, c, ZeRO2, RunConfig{Steps: 0, BatchTokens: 1}); err == nil {
		t.Error("zero steps accepted")
	}
	if _, err := SimulateRun(m, c, ZeRO2, RunConfig{Steps: 5, BatchTokens: 1 << 20, CheckpointEvery: 2}); err == nil {
		t.Error("checkpointing without policy accepted")
	}
	small := c
	small.DeviceMemory = 1 << 20
	if _, err := SimulateRun(m, small, DP, runCfg(SyncPolicy{}, nil)); !errors.Is(err, ErrOOM) {
		t.Errorf("OOM not reported: %v", err)
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		DP: "DP", ZeRO1: "ZeRO-1", ZeRO2: "ZeRO-2", ZeRO3: "ZeRO-3", FSDP: "FSDP",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
}

func BenchmarkSimulateRun(b *testing.B) {
	m := GPT13B()
	c := DefaultCluster()
	rc := runCfg(AsyncPolicy{}, []int{20, 45})
	for i := 0; i < b.N; i++ {
		if _, err := SimulateRun(m, c, ZeRO2, rc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReshard(b *testing.B) {
	params := make([]float32, 1<<20)
	ck, _ := NewCheckpoint(1, params, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ck.Reshard(4); err != nil {
			b.Fatal(err)
		}
	}
}
