package serving

import (
	"errors"
	"fmt"
	"testing"

	"dataai/internal/obs"
	"dataai/internal/sim"
	"dataai/internal/workload"
)

func trace(t testing.TB, seed int64, n int, rate float64) []workload.Request {
	t.Helper()
	reqs, err := workload.Generate(workload.DefaultTrace(seed, n, rate))
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestGPUConfigValidate(t *testing.T) {
	if err := (GPUConfig{}).Validate(); !errors.Is(err, ErrConfig) {
		t.Errorf("zero config err = %v", err)
	}
	if err := DefaultGPU().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func checkSane(t *testing.T, rep *Report, total int) {
	t.Helper()
	if len(rep.Results) != total {
		t.Fatalf("results = %d, want %d", len(rep.Results), total)
	}
	for _, r := range rep.Results {
		if r.Rejected {
			continue
		}
		if r.TTFTms < 0 {
			t.Fatalf("negative TTFT for %s: %v", r.Req.ID, r.TTFTms)
		}
		if r.TBTms < 0 {
			t.Fatalf("negative TBT for %s", r.Req.ID)
		}
		if r.FinishMS < r.Req.ArrivalMS {
			t.Fatalf("%s finished before arrival", r.Req.ID)
		}
	}
	if rep.Throughput() <= 0 {
		t.Fatal("no throughput")
	}
}

func TestRunStaticBasics(t *testing.T) {
	reqs := trace(t, 1, 100, 20)
	rep, err := RunStatic(DefaultGPU(), reqs, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkSane(t, rep, 100)
	if rep.PeakKVBlocks == 0 {
		t.Error("no KV usage recorded")
	}
}

func TestRunStaticValidation(t *testing.T) {
	if _, err := RunStatic(DefaultGPU(), nil, 0); !errors.Is(err, ErrConfig) {
		t.Errorf("err = %v", err)
	}
}

// TestEveryEntryPointRejectsANeverFittingRequest sends a request over
// DefaultGPU's MaxSeqLen (4,000+200 tokens at 0 ms) ahead of a short one
// (100+20 tokens at 1 ms) through every entry point. Each must reject
// exactly the long request and spend no GPU time or KV on it: the short
// request's TTFT and the run's peak KV equal those of the short request
// run alone.
func TestEveryEntryPointRejectsANeverFittingRequest(t *testing.T) {
	gpu := DefaultGPU()
	long := workload.Request{ID: "long", PromptTokens: 4000, OutputTokens: 200}
	short := workload.Request{ID: "short", ArrivalMS: 1, PromptTokens: 100, OutputTokens: 20}
	if long.PromptTokens+long.OutputTokens <= gpu.MaxSeqLen {
		t.Fatal("the long request fits, so the test would check nothing")
	}
	traced := func(t *testing.T, run func(tr *obs.Tracer) (*Report, error)) (*Report, error) {
		tr := obs.NewTracer()
		rep, err := run(tr)
		if err == nil {
			if cerr := tr.Check(); cerr != nil {
				t.Errorf("trace: %v", cerr)
			}
		}
		return rep, err
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, reqs []workload.Request) (*Report, error)
	}{
		{"RunStatic", func(_ *testing.T, reqs []workload.Request) (*Report, error) {
			return RunStatic(gpu, reqs, 8)
		}},
		{"RunContinuous", func(t *testing.T, reqs []workload.Request) (*Report, error) {
			return traced(t, func(tr *obs.Tracer) (*Report, error) {
				return RunContinuous(gpu, reqs, ContinuousOpts{Trace: tr})
			})
		}},
		{"RunDisaggregated", func(t *testing.T, reqs []workload.Request) (*Report, error) {
			return traced(t, func(tr *obs.Tracer) (*Report, error) {
				return RunDisaggregated(gpu, reqs, DisaggOpts{PrefillGPUs: 1, DecodeGPUs: 1, Trace: tr})
			})
		}},
		{"Run", func(t *testing.T, reqs []workload.Request) (*Report, error) {
			return traced(t, func(tr *obs.Tracer) (*Report, error) {
				rep, err := Run(ClusterConfig{GPU: gpu, Instances: 2, Opts: ContinuousOpts{Trace: tr}}, reqs)
				if err != nil {
					return nil, err
				}
				return &rep.Report, nil
			})
		}},
	} {
		alone, err := tc.run(t, []workload.Request{short})
		if err != nil {
			t.Fatalf("%s alone: %v", tc.name, err)
		}
		rep, err := tc.run(t, []workload.Request{long, short})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(alone.Results) != 1 || alone.Rejected != 0 {
			t.Fatalf("%s alone: %d results, %d rejected", tc.name, len(alone.Results), alone.Rejected)
		}
		if len(rep.Results) != 2 || rep.Rejected != 1 {
			t.Errorf("%s: %d results, %d rejected; want 2 and 1", tc.name, len(rep.Results), rep.Rejected)
		}
		for _, r := range rep.Results {
			if r.Rejected != (r.Req.ID == "long") {
				t.Errorf("%s: %s rejected = %t", tc.name, r.Req.ID, r.Rejected)
			}
			if r.Req.ID == "short" && r.TTFTms != alone.Results[0].TTFTms {
				t.Errorf("%s: short TTFT %v ms, %v ms alone", tc.name, r.TTFTms, alone.Results[0].TTFTms)
			}
		}
		if rep.PeakKVBlocks != alone.PeakKVBlocks {
			t.Errorf("%s: peak KV %d blocks, %d alone", tc.name, rep.PeakKVBlocks, alone.PeakKVBlocks)
		}
	}
}

func TestRunContinuousBasics(t *testing.T) {
	reqs := trace(t, 2, 100, 20)
	rep, err := RunContinuous(DefaultGPU(), reqs, ContinuousOpts{})
	if err != nil {
		t.Fatal(err)
	}
	checkSane(t, rep, 100)
	if rep.Rejected != 0 {
		t.Errorf("rejected = %d", rep.Rejected)
	}
}

func TestContinuousBeatsStaticThroughput(t *testing.T) {
	// E11's first claim (Orca): continuous batching improves throughput
	// and completion latency over static batching.
	gpu := DefaultGPU()
	reqs := trace(t, 3, 300, 40)
	static, err := RunStatic(gpu, reqs, 16)
	if err != nil {
		t.Fatal(err)
	}
	cont, err := RunContinuous(gpu, reqs, ContinuousOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if cont.Throughput() <= static.Throughput() {
		t.Errorf("continuous throughput %v <= static %v", cont.Throughput(), static.Throughput())
	}
	if cont.MakespanMS >= static.MakespanMS {
		t.Errorf("continuous makespan %v >= static %v", cont.MakespanMS, static.MakespanMS)
	}
}

func TestChunkedPrefillImprovesTBT(t *testing.T) {
	// E11's second claim (Sarathi): batching a prefill with decode stalls
	// the decodes; chunking the prefill tames the TBT tail at a small
	// TTFT cost.
	gpu := DefaultGPU()
	reqs := trace(t, 4, 300, 40)
	plain, err := RunContinuous(gpu, reqs, ContinuousOpts{})
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := RunContinuous(gpu, reqs, ContinuousOpts{ChunkTokens: 128})
	if err != nil {
		t.Fatal(err)
	}
	if chunked.TBT.P95() >= plain.TBT.P95() {
		t.Errorf("chunked P95 TBT %v >= plain %v", chunked.TBT.P95(), plain.TBT.P95())
	}
}

func TestPagedAdmitsMoreThanContiguous(t *testing.T) {
	// E13 (vLLM): preallocation wastes memory; paging raises achievable
	// concurrency for short sequences.
	gpu := DefaultGPU()
	cont := MaxConcurrent(NewContiguousKV(gpu), 256, 64)
	paged := MaxConcurrent(NewPagedKV(gpu), 256, 64)
	if paged <= cont {
		t.Errorf("paged concurrency %d <= contiguous %d", paged, cont)
	}
	if cont != gpu.KVBlocks/((gpu.MaxSeqLen+gpu.BlockSize-1)/gpu.BlockSize) {
		t.Errorf("contiguous concurrency %d formula mismatch", cont)
	}
}

func TestPagedThroughputBeatsContiguous(t *testing.T) {
	gpu := DefaultGPU()
	gpu.KVBlocks = 512 // tight cache so the allocator is the bottleneck
	reqs := trace(t, 5, 200, 50)
	contig, err := RunContinuous(gpu, reqs, ContinuousOpts{KV: NewContiguousKV(gpu)})
	if err != nil {
		t.Fatal(err)
	}
	paged, err := RunContinuous(gpu, reqs, ContinuousOpts{KV: NewPagedKV(gpu)})
	if err != nil {
		t.Fatal(err)
	}
	if paged.MakespanMS >= contig.MakespanMS {
		t.Errorf("paged makespan %v >= contiguous %v", paged.MakespanMS, contig.MakespanMS)
	}
}

func TestKVManagerAccounting(t *testing.T) {
	gpu := DefaultGPU()
	for _, tc := range []struct {
		name string
		m    KVManager
	}{{"contiguous", NewContiguousKV(gpu)}, {"paged", NewPagedKV(gpu)}} {
		name, m := tc.name, tc.m
		if !m.Alloc(3, 100) {
			t.Fatalf("%s: first alloc failed", name)
		}
		if m.Alloc(3, 100) {
			t.Fatalf("%s: duplicate alloc allowed", name)
		}
		used := m.UsedBlocks()
		if used <= 0 || used > m.Capacity() {
			t.Fatalf("%s: used %d", name, used)
		}
		// Handles never allocated — below the highest one in use and
		// past it — hold nothing: Extend refuses, Free changes nothing.
		for _, h := range []int{0, 2, 4, 1000, -1} {
			if m.Extend(h, 50) {
				t.Fatalf("%s: extend of unallocated handle %d allowed", name, h)
			}
			m.Free(h)
			if m.UsedBlocks() != used {
				t.Fatalf("%s: free of unallocated handle %d changed used to %d", name, h, m.UsedBlocks())
			}
		}
		if m.Alloc(-1, 1) {
			t.Fatalf("%s: negative handle allocated", name)
		}
		if !m.Extend(3, 200) {
			t.Fatalf("%s: extend failed", name)
		}
		m.Free(3)
		if m.UsedBlocks() != 0 {
			t.Fatalf("%s: leak after free", name)
		}
		if m.Extend(3, 200) {
			t.Fatalf("%s: extend after free allowed", name)
		}
		if m.PeakBlocks() < used {
			t.Fatalf("%s: peak below used", name)
		}
		if m.Alloc(7, gpu.MaxSeqLen+1) {
			t.Fatalf("%s: oversized alloc allowed", name)
		}
		// A freed handle is reusable.
		if !m.Alloc(3, 100) || m.UsedBlocks() != used {
			t.Fatalf("%s: realloc of a freed handle: used %d, want %d", name, m.UsedBlocks(), used)
		}
	}
}

// TestKVHandlesAreRecycledPerInstance follows an instance's KV handles:
// two live sequences sharing a request ID hold distinct handles, a
// failed reservation leaves its handle free, a freed handle serves the
// next sequence, and a sequence reused after put starts with no
// checkpoint.
func TestKVHandlesAreRecycledPerInstance(t *testing.T) {
	gpu := DefaultGPU()
	gpu.KVBlocks = 8
	var pool seqPool
	in := newInstance(0, gpu, ContinuousOpts{}, sim.NewEngine(), &pool, func(float64) *Result { return new(Result) })
	a := pool.get(workload.Request{ID: "a", PromptTokens: 40})
	b := pool.get(workload.Request{ID: "a", PromptTokens: 40})
	if !in.kvAlloc(a, 40) || !in.kvAlloc(b, 40) {
		t.Fatal("same-ID sequences could not both reserve KV")
	}
	if a.kvh == b.kvh {
		t.Fatalf("two live sequences share KV handle %d", a.kvh)
	}
	big := pool.get(workload.Request{ID: "big", PromptTokens: 64})
	if in.kvAlloc(big, 64) { // 4 blocks, 2 left
		t.Fatal("reservation beyond capacity allowed")
	}
	if len(in.kvFree) != in.kvNext-2 {
		t.Fatalf("failed reservation kept a handle: %d of %d free, want all but a's and b's", len(in.kvFree), in.kvNext)
	}
	a.ckpt, a.generated = 40, 3
	freed := a.kvh
	in.kvRelease(a)
	pool.put(a)
	if *a != (seqState{}) {
		t.Fatalf("put left state behind: %+v", *a)
	}
	c := pool.get(workload.Request{ID: "c", PromptTokens: 16})
	if c != a || c.ckpt != 0 || c.generated != 0 {
		t.Fatalf("reused sequence inherited state: ckpt %d generated %d", c.ckpt, c.generated)
	}
	if !in.kvAlloc(c, 16) || c.kvh != freed {
		t.Fatalf("next reservation took handle %d, want the freed %d", c.kvh, freed)
	}
	if got := in.kv.UsedBlocks(); got != 4 { // 3 blocks for b, 1 for c
		t.Fatalf("used = %d, want 4", got)
	}
	in.kvRelease(b)
	in.kvRelease(c)
	if in.kv.UsedBlocks() != 0 || len(in.kvFree) != in.kvNext {
		t.Fatalf("after release: used %d, %d of %d handles free", in.kv.UsedBlocks(), len(in.kvFree), in.kvNext)
	}
}

func TestPagedKVExactBlocks(t *testing.T) {
	gpu := DefaultGPU() // BlockSize 16
	p := NewPagedKV(gpu)
	p.Alloc(0, 17) // 2 blocks
	if p.UsedBlocks() != 2 {
		t.Errorf("used = %d, want 2", p.UsedBlocks())
	}
	p.Extend(0, 32) // still 2 blocks
	if p.UsedBlocks() != 2 {
		t.Errorf("used after extend = %d, want 2", p.UsedBlocks())
	}
	p.Extend(0, 33) // 3 blocks
	if p.UsedBlocks() != 3 {
		t.Errorf("used after extend = %d, want 3", p.UsedBlocks())
	}
}

func TestPagedKVExhaustion(t *testing.T) {
	gpu := DefaultGPU()
	gpu.KVBlocks = 4
	p := NewPagedKV(gpu)
	if !p.Alloc(0, 64) { // 4 blocks
		t.Fatal("alloc failed")
	}
	if p.Alloc(1, 1) {
		t.Error("alloc beyond capacity allowed")
	}
	if p.Extend(0, 65) {
		t.Error("extend beyond capacity allowed")
	}
}

func TestPrefixCacheCutsTTFT(t *testing.T) {
	// E13 (Prompt Cache / TensorRT-LLM): reusing shared-prefix KV skips
	// recomputation and cuts TTFT.
	gpu := DefaultGPU()
	cfg := workload.DefaultTrace(6, 200, 25)
	cfg.SharedPrefixes = 2
	cfg.SharedPrefixTokens = 512
	cfg.SharedPrefixProb = 0.8
	reqs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunContinuous(gpu, reqs, ContinuousOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pc := NewPrefixCache()
	cached, err := RunContinuous(gpu, reqs, ContinuousOpts{Prefix: pc})
	if err != nil {
		t.Fatal(err)
	}
	if cached.TTFT.Mean() >= plain.TTFT.Mean() {
		t.Errorf("prefix-cached mean TTFT %v >= plain %v", cached.TTFT.Mean(), plain.TTFT.Mean())
	}
	if cached.PrefillTokens >= plain.PrefillTokens {
		t.Errorf("prefix cache saved no prefill: %d vs %d", cached.PrefillTokens, plain.PrefillTokens)
	}
	hits, misses := pc.Stats()
	if hits == 0 || misses == 0 {
		t.Errorf("prefix cache stats %d/%d", hits, misses)
	}
}

func TestDisaggregatedImprovesTBTUnderLoad(t *testing.T) {
	// E12 (DistServe/Splitwise): same GPU budget, decodes isolated from
	// prefill interference.
	// The DistServe regime is *high load*: under light load prefill
	// interference is rare and the architectures tie; as load grows,
	// colocated decodes stall behind prefills and goodput separates.
	gpu := DefaultGPU()
	reqs := trace(t, 7, 400, 100)
	colo, err := Run(ClusterConfig{GPU: gpu, Instances: 4, Router: RoundRobin}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	disagg, err := RunDisaggregated(gpu, reqs, DisaggOpts{
		PrefillGPUs: 2, DecodeGPUs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if disagg.TBT.P95() >= colo.TBT.P95() {
		t.Errorf("disaggregated P95 TBT %v >= colocated %v", disagg.TBT.P95(), colo.TBT.P95())
	}
	// Goodput under joint SLOs should favor disaggregation at high load.
	gColo := colo.Goodput(1000, 12)
	gDisagg := disagg.Goodput(1000, 12)
	if gDisagg <= gColo {
		t.Errorf("disaggregated goodput %v <= colocated %v", gDisagg, gColo)
	}
}

func TestDisaggValidation(t *testing.T) {
	if _, err := RunDisaggregated(DefaultGPU(), nil, DisaggOpts{}); !errors.Is(err, ErrConfig) {
		t.Errorf("err = %v", err)
	}
}

func TestSessionStoreHitsCutPrefill(t *testing.T) {
	// E14: a conversation cache turns history re-prefill into reuse.
	gpu := DefaultGPU()
	reqs, err := workload.GenerateConversations(workload.DefaultConversations(9))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunContinuous(gpu, reqs, ContinuousOpts{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewSessionStore(SessionStoreConfig{
		GPUCapacityTokens:  1 << 20, // effectively unbounded
		Policy:             LRU,
		PrefillTokensPerMS: gpu.PrefillTokensPerMS,
	})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := RunContinuous(gpu, reqs, ContinuousOpts{SessionCache: store})
	if err != nil {
		t.Fatal(err)
	}
	if cached.PrefillTokens >= plain.PrefillTokens {
		t.Errorf("session cache saved nothing: %d vs %d", cached.PrefillTokens, plain.PrefillTokens)
	}
	if store.HitRate() <= 0.3 {
		t.Errorf("hit rate %v too low", store.HitRate())
	}
	if cached.TTFT.Mean() >= plain.TTFT.Mean() {
		t.Errorf("cached mean TTFT %v >= plain %v", cached.TTFT.Mean(), plain.TTFT.Mean())
	}
}

func TestEvictionPolicyHitRates(t *testing.T) {
	reqs, err := workload.GenerateConversations(workload.DefaultConversations(10))
	if err != nil {
		t.Fatal(err)
	}
	gpu := DefaultGPU()
	rates := map[EvictionPolicy]float64{}
	for _, pol := range []EvictionPolicy{LRU, LFU, TreeLRU} {
		store, err := NewSessionStore(SessionStoreConfig{
			GPUCapacityTokens:  2000, // tight: forces eviction pressure
			Policy:             pol,
			PrefillTokensPerMS: gpu.PrefillTokensPerMS,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunContinuous(gpu, reqs, ContinuousOpts{SessionCache: store}); err != nil {
			t.Fatal(err)
		}
		rates[pol] = store.HitRate()
		if store.Evictions == 0 {
			t.Errorf("%s: no evictions under pressure", pol)
		}
	}
	for pol, r := range rates {
		if r <= 0 || r >= 1 {
			t.Errorf("%s hit rate %v out of range", pol, r)
		}
	}
}

func TestHierarchicalStoreBeatsSingleTier(t *testing.T) {
	// AttentionStore claim: a host-memory tier retains what the GPU tier
	// evicts; overlapped transmission keeps the fetch cheap.
	reqs, err := workload.GenerateConversations(workload.DefaultConversations(11))
	if err != nil {
		t.Fatal(err)
	}
	gpu := DefaultGPU()
	run := func(cpuTokens int, overlap bool) (*SessionStore, *Report) {
		store, err := NewSessionStore(SessionStoreConfig{
			GPUCapacityTokens:  2000,
			CPUCapacityTokens:  cpuTokens,
			Policy:             LRU,
			TransferMSPerToken: 0.02,
			OverlapTransfer:    overlap,
			PrefillTokensPerMS: gpu.PrefillTokensPerMS,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunContinuous(gpu, reqs, ContinuousOpts{SessionCache: store})
		if err != nil {
			t.Fatal(err)
		}
		return store, rep
	}
	single, _ := run(0, false)
	tiered, _ := run(1<<20, true)
	if tiered.SavedTokens <= single.SavedTokens {
		t.Errorf("tiered saved %d <= single %d", tiered.SavedTokens, single.SavedTokens)
	}
	if tiered.Demotions == 0 {
		t.Error("no demotions to CPU tier")
	}
	// Overlap beats blocking transfer on net savings.
	blocked, _ := run(1<<20, false)
	if tiered.SavedTokens < blocked.SavedTokens {
		t.Errorf("overlapped saved %d < blocking %d", tiered.SavedTokens, blocked.SavedTokens)
	}
}

func TestSessionStoreValidation(t *testing.T) {
	if _, err := NewSessionStore(SessionStoreConfig{}); !errors.Is(err, ErrConfig) {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeCostKVSpeedup(t *testing.T) {
	// E15: KV caching avoids recomputing K/V per step; the speedup grows
	// with generation length.
	m := DefaultDecodeCost()
	speedup := func(prompt, output int) float64 {
		with, err := m.GenerateLatencyMS(prompt, output, true)
		if err != nil {
			t.Fatal(err)
		}
		without, err := m.GenerateLatencyMS(prompt, output, false)
		if err != nil {
			t.Fatal(err)
		}
		return without / with
	}
	s64, s256 := speedup(256, 64), speedup(256, 256)
	if s64 <= 1 {
		t.Errorf("speedup %v <= 1", s64)
	}
	if s256 <= s64 {
		t.Errorf("speedup should grow with length: %v vs %v", s256, s64)
	}
	if _, err := m.GenerateLatencyMS(-1, 5, true); err == nil {
		t.Error("negative prompt accepted")
	}
	if _, err := m.GenerateLatencyMS(5, 0, true); err == nil {
		t.Error("zero output accepted")
	}
}

func TestGoodputAndSummaries(t *testing.T) {
	rep := buildReport([]Result{
		{Req: workload.Request{ID: "a", OutputTokens: 10}, TTFTms: 50, TBTms: 5, FinishMS: 100},
		{Req: workload.Request{ID: "b", OutputTokens: 10}, TTFTms: 500, TBTms: 50, FinishMS: 600},
		{Req: workload.Request{ID: "c"}, Rejected: true},
	})
	if g := rep.Goodput(100, 10); g != 1.0/3 {
		t.Errorf("goodput = %v, want 1/3", g)
	}
	if rep.Rejected != 1 {
		t.Errorf("rejected = %d", rep.Rejected)
	}
	var empty Report
	if empty.Goodput(1, 1) != 0 || empty.Throughput() != 0 {
		t.Error("empty report not zeroed")
	}
}

func TestDeterministicSimulation(t *testing.T) {
	gpu := DefaultGPU()
	reqs := trace(t, 12, 150, 30)
	a, err := RunContinuous(gpu, reqs, ContinuousOpts{ChunkTokens: 64})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContinuous(gpu, reqs, ContinuousOpts{ChunkTokens: 64})
	if err != nil {
		t.Fatal(err)
	}
	if a.MakespanMS != b.MakespanMS || a.TTFT.Mean() != b.TTFT.Mean() {
		t.Error("simulation not deterministic")
	}
}

func BenchmarkRunContinuous(b *testing.B) {
	gpu := DefaultGPU()
	reqs := trace(b, 1, 500, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunContinuous(gpu, reqs, ContinuousOpts{ChunkTokens: 128}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunDisaggregated(b *testing.B) {
	gpu := DefaultGPU()
	reqs := trace(b, 1, 500, 50)
	opts := DisaggOpts{PrefillGPUs: 2, DecodeGPUs: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunDisaggregated(gpu, reqs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleReport_Goodput() {
	rep := buildReport([]Result{
		{Req: workload.Request{ID: "a", OutputTokens: 8}, TTFTms: 80, TBTms: 8, FinishMS: 150},
		{Req: workload.Request{ID: "b", OutputTokens: 8}, TTFTms: 900, TBTms: 9, FinishMS: 1000},
	})
	fmt.Printf("%.1f\n", rep.Goodput(200, 10))
	// Output: 0.5
}
