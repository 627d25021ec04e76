package serving

import (
	"reflect"
	"testing"

	"dataai/internal/par"
	"dataai/internal/workload"
)

// TestClusterScaleMillionRequests is the ROADMAP's north-star workload
// made an ordinary test: an E23-shaped run (shared prefixes, severe
// fault plan, breaker-aware routing, chunked prefill) at 100 instances
// and 10^6 requests on one shared engine clock. It exists to keep the
// engine fast enough that cluster experiments of this size stay cheap —
// the calendar queue and the pooled serving path are what make it
// complete in seconds (BENCH_sim.json records the wall time). -short
// and race runs scale the trace down 10x; the scheduling code exercised
// is identical.
func TestClusterScaleMillionRequests(t *testing.T) {
	const instances = 100
	n, rate := 1_000_000, 1500.0 // 15 req/s per instance, E23's density
	if testing.Short() || raceEnabled {
		n, rate = 100_000, 1500.0
	}
	cfg := workload.DefaultTrace(2301, n, rate)
	cfg.SharedPrefixes = 8
	cfg.SharedPrefixTokens = 192
	cfg.SharedPrefixProb = 0.6
	reqs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(ClusterConfig{GPU: DefaultGPU(), Instances: instances, Router: BreakerAware,
		Opts: ContinuousOpts{ChunkTokens: 256}, Faults: SevereFaultPlan(2303)}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Every request must resolve exactly once: finished or rejected.
	if got := len(rep.Results); got != n {
		t.Fatalf("resolved %d results, want %d", got, n)
	}
	finished := n - rep.Rejected
	if finished <= n/2 {
		t.Fatalf("only %d/%d requests finished; the cluster wedged", finished, n)
	}
	if rep.Crashes == 0 || rep.Rerouted == 0 {
		t.Errorf("severe plan injected no faults (crashes=%d rerouted=%d)", rep.Crashes, rep.Rerouted)
	}
	if rep.MakespanMS <= 0 || rep.TTFT.P50() <= 0 {
		t.Errorf("degenerate report: makespan=%v p50TTFT=%v", rep.MakespanMS, rep.TTFT.P50())
	}
	t.Logf("%d reqs / %d instances: finished=%d rejected=%d crashes=%d rerouted=%d makespan=%.0fms",
		n, instances, finished, rep.Rejected, rep.Crashes, rep.Rerouted, rep.MakespanMS)
}

// TestMigrationUnderFaultsScale is the recovery stack's scale +
// determinism gate in one: 100 instances in racks of 10 under the
// cascading correlated fault plan with checkpoints, live migration, and
// tiered prefix caches all on. One serial run is compared DeepEqual
// against 8 replicas run two at a time — migration scans, checkpoint
// writes, and correlated crash draws are all pure functions of the
// logical clock, so concurrent replicas must agree bit for bit. Each
// replica is compared inside its worker and dropped, so memory holds
// the serial report and at most two live replicas: at 10^6 requests
// the test peaks at 3.8 GB RSS this way, while eight replicas at once
// exhausted an 8 GB machine. -short and race runs scale the trace down
// 10x like the million-request test.
func TestMigrationUnderFaultsScale(t *testing.T) {
	const instances = 100
	n, rate := 1_000_000, 1500.0
	if testing.Short() || raceEnabled {
		n, rate = 100_000, 1500.0
	}
	cfg := workload.DefaultTrace(2301, n, rate)
	cfg.SharedPrefixes = 8
	cfg.SharedPrefixTokens = 192
	cfg.SharedPrefixProb = 0.6
	reqs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := RecoveryConfig{
		CkptEveryIters: 8, Migrate: true,
		PrefixGPUTokens: 2048, PrefixCPUTokens: 16384,
	}
	run := func() *RoutedReport {
		rep, err := Run(ClusterConfig{GPU: DefaultGPU(), Instances: instances, Router: BreakerAware,
			Opts: ContinuousOpts{ChunkTokens: 256}, Faults: CascadeFaultPlan(2403, 10), Recovery: rec}, reqs)
		if err != nil {
			t.Error(err)
			return nil
		}
		return rep
	}
	serial := run()
	if serial == nil {
		t.Fatal("missing serial report")
	}
	if got := len(serial.Results); got != n {
		t.Fatalf("resolved %d results, want %d", got, n)
	}
	if serial.Crashes == 0 || serial.ResumedFromCkpt == 0 || serial.Migrations == 0 {
		t.Fatalf("recovery stack inert at scale: crashes=%d resumes=%d migrations=%d",
			serial.Crashes, serial.ResumedFromCkpt, serial.Migrations)
	}
	if finished := n - serial.Rejected; finished <= n/2 {
		t.Fatalf("only %d/%d requests finished; the cluster wedged", finished, n)
	}
	problems := par.Map(8, 2, func(int) string {
		rep := run()
		switch {
		case rep == nil:
			return "missing parallel report"
		case !reflect.DeepEqual(serial, rep):
			return "diverged from the serial run"
		}
		return ""
	})
	for i, p := range problems {
		if p != "" {
			t.Fatalf("parallel replica %d: %s", i, p)
		}
	}
	t.Logf("%d reqs / %d instances: crashes=%d resumes=%d migrations=%d wasted=%d makespan=%.0fms",
		n, instances, serial.Crashes, serial.ResumedFromCkpt, serial.Migrations,
		serial.WastedRecomputeTokens, serial.MakespanMS)
}
