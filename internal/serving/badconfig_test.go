package serving

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"dataai/internal/workload"
)

// TestBadConfigsFailFast runs every serving entry point on invalid
// configurations: a negative ChunkTokens, and a non-finite value in each
// float field of GPUConfig. Each must return ErrConfig. A negative chunk
// used to make the routed and colocated runs schedule iterations
// forever, so every call runs under a deadline and a regression fails
// the test instead of hanging it.
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
		{"RunRouted", func(g GPUConfig, o ContinuousOpts) error {
			_, err := RunRouted(g, reqs, 2, BreakerAware, o)
			return err
		}, true},
		{"RunRoutedRecovery", func(g GPUConfig, o ContinuousOpts) error {
			_, err := RunRoutedRecovery(g, reqs, 3, CacheAware, o, SevereFaultPlan(1), RecoveryConfig{CkptEveryIters: 4, Migrate: true})
			return err
		}, true},
		{"RunColocated", func(g GPUConfig, o ContinuousOpts) error {
			_, err := RunColocated(g, reqs, 2, o)
			return err
		}, true},
		{"RunStatic", func(g GPUConfig, _ ContinuousOpts) error {
			_, err := RunStatic(g, reqs, 4)
			return err
		}, false},
		{"RunDisaggregated", func(g GPUConfig, _ ContinuousOpts) error {
			_, err := RunDisaggregated(g, reqs, DisaggOpts{PrefillGPUs: 1, DecodeGPUs: 1, TransferMSPerToken: 0.01})
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
	// The valid configuration still runs.
	if _, err := RunRouted(DefaultGPU(), []workload.Request{{ID: "ok", PromptTokens: 8, OutputTokens: 2}}, 2, RoundRobin, ContinuousOpts{}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}
