package serving

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"dataai/internal/obs"
	"dataai/internal/workload"
)

// TestBadConfigsFailFast runs every serving entry point on invalid
// configurations: a negative ChunkTokens, a non-finite value in each
// float field of GPUConfig, and each ContinuousOpts field the entry
// point does not take. Each must return ErrConfig. A negative chunk
// used to make routed runs schedule iterations forever, so every call
// runs under a deadline and a regression fails the test instead of
// hanging it.
func TestBadConfigsFailFast(t *testing.T) {
	reqs := trace(t, 5, 20, 20)
	type entry struct {
		name string
		run  func(GPUConfig, ContinuousOpts) error
		// chunked says the entry point takes ContinuousOpts.ChunkTokens.
		chunked bool
	}
	entries := []entry{
		{"RunContinuous", func(g GPUConfig, o ContinuousOpts) error {
			_, err := RunContinuous(g, reqs, o)
			return err
		}, true},
		{"Run", func(g GPUConfig, o ContinuousOpts) error {
			_, err := Run(ClusterConfig{GPU: g, Instances: 3, Router: CacheAware, Opts: o,
				Faults: SevereFaultPlan(1), Recovery: RecoveryConfig{CkptEveryIters: 4, Migrate: true}}, reqs)
			return err
		}, true},
		{"RunStatic", func(g GPUConfig, _ ContinuousOpts) error {
			_, err := RunStatic(g, reqs, 4)
			return err
		}, false},
		{"RunDisaggregated", func(g GPUConfig, _ ContinuousOpts) error {
			_, err := RunDisaggregated(g, reqs, DisaggOpts{PrefillGPUs: 1, DecodeGPUs: 1})
			return err
		}, false},
	}
	type badGPU struct {
		name string
		set  func(*GPUConfig)
	}
	var gpus []badGPU
	for _, v := range []struct {
		name string
		val  float64
	}{{"NaN", math.NaN()}, {"+Inf", math.Inf(1)}, {"-Inf", math.Inf(-1)}} {
		v := v
		gpus = append(gpus,
			badGPU{"PrefillTokensPerMS=" + v.name, func(g *GPUConfig) { g.PrefillTokensPerMS = v.val }},
			badGPU{"DecodeBaseMS=" + v.name, func(g *GPUConfig) { g.DecodeBaseMS = v.val }},
			badGPU{"DecodeMSPerSeq=" + v.name, func(g *GPUConfig) { g.DecodeMSPerSeq = v.val }})
	}
	const deadline = 10 * time.Second
	call := func(name string, fn func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- fn() }()
		select {
		case err := <-done:
			if !errors.Is(err, ErrConfig) {
				t.Errorf("%s: err = %v, want ErrConfig", name, err)
			}
		case <-time.After(deadline):
			t.Errorf("%s: still running after %v", name, deadline)
		}
	}
	for _, e := range entries {
		e := e
		for _, bg := range gpus {
			g := DefaultGPU()
			bg.set(&g)
			call(e.name+"/"+bg.name, func() error { return e.run(g, ContinuousOpts{}) })
		}
		if e.chunked {
			for _, chunk := range []int{-1, -5, -256} {
				opts := ContinuousOpts{ChunkTokens: chunk}
				call(fmt.Sprintf("%s/ChunkTokens=%d", e.name, chunk), func() error { return e.run(DefaultGPU(), opts) })
			}
		}
	}
	// An option an entry point does not take is an error, not silently
	// ignored or overwritten: Run builds every instance's KV allocator
	// and caches, one GPU makes no routing decisions, and ReplayRegret
	// records and forces decisions itself, untraced.
	store, err := NewSessionStore(SessionStoreConfig{GPUCapacityTokens: 4096, Policy: LRU, PrefillTokensPerMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	dl, force := obs.NewDecisionLog(), &ForcedChoice{Decision: 1, Rank: 2}
	cluster := func(o ContinuousOpts) ClusterConfig {
		return ClusterConfig{GPU: DefaultGPU(), Instances: 2, Router: BreakerAware, Opts: o}
	}
	type foreign struct {
		field string
		opts  ContinuousOpts
	}
	for _, e := range []struct {
		name    string
		run     func(ContinuousOpts) error
		foreign []foreign
	}{
		{"RunContinuous", func(o ContinuousOpts) error {
			_, err := RunContinuous(DefaultGPU(), reqs, o)
			return err
		}, []foreign{{"Decisions", ContinuousOpts{Decisions: dl}}, {"Force", ContinuousOpts{Force: force}}}},
		{"Run", func(o ContinuousOpts) error {
			_, err := Run(cluster(o), reqs)
			return err
		}, []foreign{{"KV", ContinuousOpts{KV: NewPagedKV(DefaultGPU())}},
			{"Prefix", ContinuousOpts{Prefix: NewPrefixCache()}},
			{"SessionCache", ContinuousOpts{SessionCache: store}}}},
		{"ReplayRegret", func(o ContinuousOpts) error {
			_, err := ReplayRegret(cluster(o), reqs, ReplayConfig{})
			return err
		}, []foreign{{"Trace", ContinuousOpts{Trace: obs.NewTracer()}},
			{"Decisions", ContinuousOpts{Decisions: dl}}, {"Force", ContinuousOpts{Force: force}}}},
	} {
		for _, f := range e.foreign {
			call(e.name+"/"+f.field, func() error { return e.run(f.opts) })
		}
	}

	// The valid configuration still runs.
	if _, err := Run(ClusterConfig{GPU: DefaultGPU(), Instances: 2, Router: RoundRobin}, []workload.Request{{ID: "ok", PromptTokens: 8, OutputTokens: 2}}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}
