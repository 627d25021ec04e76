package serving

import (
	"bytes"
	"reflect"
	"testing"

	"dataai/internal/obs"
	"dataai/internal/resilient"
	"dataai/internal/sim"
	"dataai/internal/workload"
)

// severeRouted runs the E23 worst case — 4 instances, breaker-aware
// routing, severe fault plan — with the given tracer attached.
func severeRouted(t *testing.T, tr *obs.Tracer) *RoutedReport {
	t.Helper()
	rep, err := Run(ClusterConfig{GPU: DefaultGPU(), Instances: 4, Router: BreakerAware,
		Opts: ContinuousOpts{ChunkTokens: 256, Trace: tr}, Faults: SevereFaultPlan(2303)}, prefixTrace(t, 47))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRoutedSevereTracePassesInvariants(t *testing.T) {
	tr := obs.NewTracer()
	rep := severeRouted(t, tr)
	if rep.Crashes == 0 || rep.Rerouted == 0 {
		t.Fatalf("severe plan injected nothing: %d crashes, %d rerouted", rep.Crashes, rep.Rerouted)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("severe routed trace failed invariants: %v", err)
	}

	// The trace must carry the fault story: crash instants, reroute
	// phases, and registry counters agreeing with the report.
	phases := map[string]int{}
	for _, s := range tr.Spans() {
		if s.Cat == obs.CatRequest && s.Parent != 0 {
			phases[s.Name]++
		}
	}
	for _, want := range []string{"queue", "prefill", "decode", "reroute"} {
		if phases[want] == 0 {
			t.Errorf("no %q phase spans in a crashing run (histogram %v)", want, phases)
		}
	}
	crashes := 0
	for _, in := range tr.Instants() {
		if in.Name == "crash" {
			crashes++
		}
	}
	if crashes != rep.Crashes {
		t.Errorf("crash instants = %d, report says %d", crashes, rep.Crashes)
	}
	reg := tr.Registry()
	if got := reg.Lookup("router/reroute_crash").Final(); got != float64(rep.Rerouted) {
		t.Errorf("router/reroute_crash counter = %v, report says %d", got, rep.Rerouted)
	}
	if got := reg.Lookup("router/crashes").Final(); got != float64(rep.Crashes) {
		t.Errorf("router/crashes counter = %v, report says %d", got, rep.Crashes)
	}
	// Every instance published its KV capacity for the checker.
	for _, name := range []string{"gpu0/kv_capacity_blocks", "gpu3/kv_used_blocks", "gpu0/queue_depth"} {
		if reg.Lookup(name) == nil {
			t.Errorf("registry missing %s (have %v)", name, reg.Names())
		}
	}
}

func TestTracingDoesNotChangeBehavior(t *testing.T) {
	// The zero-overhead-when-nil contract's stronger sibling: even when
	// tracing is ON, the simulation's decisions are untouched — the
	// traced and untraced reports must be deeply equal.
	untraced := severeRouted(t, nil)
	traced := severeRouted(t, obs.NewTracer())
	if !reflect.DeepEqual(untraced, traced) {
		t.Error("attaching a tracer changed the routed report")
	}
}

func TestRoutedTraceBytesDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	trA := obs.NewTracer()
	severeRouted(t, trA)
	if err := trA.WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	trB := obs.NewTracer()
	severeRouted(t, trB)
	if err := trB.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical severe routed runs exported different trace bytes")
	}
}

func TestContinuousPreemptionTrace(t *testing.T) {
	// Under severe memory pressure the OnDemand discipline preempts;
	// preempted sequences must re-enter the queue phase and the trace
	// must stay well-formed.
	gpu := DefaultGPU()
	gpu.KVBlocks = 96
	cfg := workload.DefaultTrace(22, 120, 80)
	cfg.OutputMax = 1024
	reqs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	rep, err := RunContinuous(gpu, reqs, ContinuousOpts{OnDemand: true, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Preemptions == 0 {
		t.Fatal("no preemptions under severe pressure")
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("preemption trace failed invariants: %v", err)
	}
	preempts := 0
	for _, in := range tr.Instants() {
		if in.Name == "preempt" {
			preempts++
		}
	}
	if preempts != rep.Preemptions {
		t.Errorf("preempt instants = %d, report says %d", preempts, rep.Preemptions)
	}
	// A preempted request's track holds more queue spans than requests.
	queueSpans := 0
	for _, s := range tr.Spans() {
		if s.Cat == obs.CatRequest && s.Name == "queue" {
			queueSpans++
		}
	}
	if queueSpans <= len(reqs) {
		t.Errorf("queue spans = %d, want > %d (re-queued preemption victims)", queueSpans, len(reqs))
	}
}

func TestDisaggTraceInvariants(t *testing.T) {
	reqs, err := workload.Generate(workload.DefaultTrace(31, 200, 60))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	rep, err := RunDisaggregated(DefaultGPU(), reqs, DisaggOpts{
		PrefillGPUs: 2, DecodeGPUs: 2, Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OutputTokens == 0 {
		t.Fatal("nothing served")
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("disagg trace failed invariants: %v", err)
	}
	tracks := map[string]bool{}
	for _, s := range tr.Spans() {
		tracks[s.Track] = true
	}
	for _, want := range []string{"prefill0", "prefill1", "decode0", "decode1"} {
		if !tracks[want] {
			t.Errorf("no spans on pool track %s", want)
		}
	}
}

func TestPhaseBreakdownOnRoutedRun(t *testing.T) {
	tr := obs.NewTracer()
	severeRouted(t, tr)
	names, byPhase := obs.PhaseBreakdown(tr)
	if len(names) < 3 {
		t.Fatalf("breakdown phases = %v, want at least queue/prefill/decode", names)
	}
	if byPhase["decode"] == nil || byPhase["decode"].Count() == 0 {
		t.Fatal("no decode samples in breakdown")
	}
	if byPhase["reroute"] == nil || byPhase["reroute"].Mean() <= 0 {
		t.Error("reroute phase missing or zero under a crashing plan")
	}
}

// TestTracedHooksZeroAlloc pins the traced serving hooks at zero
// allocations once warm: each request builds its span track name once
// and each instance and tenant resolves its registry metrics once, so a
// traced event only appends to span pages and metric series, whose
// growth amortizes to nothing.
func TestTracedHooksZeroAlloc(t *testing.T) {
	tr := obs.NewTracer()
	in := newInstance(0, DefaultGPU(), ContinuousOpts{Trace: tr}, sim.NewEngine(), nil, nil)
	s := &seqState{req: workload.Request{ID: "r1", PromptTokens: 16, OutputTokens: 4}}
	in.traceArrive(0, s)
	c := &cluster{trace: tr, insts: []*instance{in},
		breakers: []*resilient.Breaker{resilient.NewBreaker(resilient.BreakerPolicy{FailureThreshold: 2})}}
	r := workload.Request{ID: "r2", Tenant: "t1", PromptTokens: 16, OutputTokens: 4}
	// Holds every request (a 1-token burst refills slower than r costs),
	// and rejects every request (no burst, no refill by time 0).
	hold := newAdmitter(AdmissionConfig{Policy: AdmitQueue, BurstTokens: 1, RefillPerSec: 1000}, tr.Registry())
	reject := newAdmitter(AdmissionConfig{Policy: AdmitReject}, tr.Registry())

	hooks := []struct {
		name string
		fn   func()
	}{
		{"tracePhase", func() { in.tracePhase(1, s, "decode") }},
		{"traceBreaker", func() { c.traceBreaker(1, 0) }},
		{"admitter hold and delivery", func() {
			if _, ok := hold.decide(1, r); !ok {
				t.Fatal("AdmitQueue rejected")
			}
			hold.delivered(1, r.Tenant)
		}},
		{"admitter rejection", func() {
			if _, ok := reject.decide(1, r); ok {
				t.Fatal("AdmitReject admitted")
			}
		}},
	}
	for _, h := range hooks {
		for i := 0; i < 10_000; i++ { // warm: past the first span page and early series growth
			h.fn()
		}
		if allocs := testing.AllocsPerRun(1000, h.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f/op once warm, want 0", h.name, allocs)
		}
	}
	if reg := tr.Registry(); reg.Lookup("tenant/t1/queue_depth") == nil || reg.Lookup("tenant/t1/rejected") == nil ||
		reg.Lookup("gpu0/breaker_state") == nil {
		t.Errorf("hooks recorded under unexpected names: %v", reg.Names())
	}
}

// benchSevereRouted measures the E23 severe cell with and without a
// tracer attached; the pair quantifies the observability layer's
// overhead for BENCH_obs.json.
func benchSevereRouted(b *testing.B, newTracer func() *obs.Tracer) {
	cfg := workload.DefaultTrace(47, 300, 50)
	cfg.SharedPrefixes = 8
	cfg.SharedPrefixTokens = 512
	cfg.SharedPrefixProb = 0.8
	reqs, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ClusterConfig{GPU: DefaultGPU(), Instances: 4, Router: BreakerAware,
			Opts: ContinuousOpts{ChunkTokens: 256, Trace: newTracer()}, Faults: SevereFaultPlan(2303)}, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoutedTraceOff(b *testing.B) {
	benchSevereRouted(b, func() *obs.Tracer { return nil })
}

func BenchmarkRoutedTraceOn(b *testing.B) { benchSevereRouted(b, obs.NewTracer) }

// severeTrace records the E23 severe cell's timeline; a non-nil dl logs
// the routing decisions and attaches them for Check.
func severeTrace(tb testing.TB, dl *obs.DecisionLog) *obs.Tracer {
	reqs, err := workload.Generate(workload.DefaultTrace(47, 300, 50))
	if err != nil {
		tb.Fatal(err)
	}
	tr := obs.NewTracer()
	if _, err := Run(ClusterConfig{GPU: DefaultGPU(), Instances: 4, Router: BreakerAware,
		Opts: ContinuousOpts{ChunkTokens: 256, Trace: tr, Decisions: dl}, Faults: SevereFaultPlan(2303)}, reqs); err != nil {
		tb.Fatal(err)
	}
	return tr
}

func BenchmarkTraceCheck(b *testing.B) {
	tr := severeTrace(b, obs.NewDecisionLog())
	spans := len(tr.Spans())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Check(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(spans), "spans")
}

func BenchmarkWriteChrome(b *testing.B) {
	tr := severeTrace(b, nil)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := tr.WriteChrome(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "trace-bytes")
}
