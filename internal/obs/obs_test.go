package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// buildTrace records a small but complete two-request, two-GPU run:
// request r1 queues, prefills, decodes, and finishes on gpu0; request r2
// is rejected at admission. gpu0 runs two non-overlapping iterations.
func buildTrace() *Tracer {
	tr := NewTracer()
	reg := tr.Registry()

	root1 := tr.Begin(0, "req/r1", CatRequest, "request", 0)
	q1 := tr.Begin(0, "req/r1", CatRequest, "queue", root1)
	reg.Gauge("gpu0/queue_depth").Set(0, 1)

	it1 := tr.Begin(0, "gpu0", CatGPU, "prefill", 0)
	tr.End(4, it1)

	tr.End(4, q1)
	reg.Gauge("gpu0/queue_depth").Set(4, 0)
	p1 := tr.Begin(4, "req/r1", CatRequest, "prefill", root1)
	tr.End(8, p1)
	d1 := tr.Begin(8, "req/r1", CatRequest, "decode", root1)

	it2 := tr.Begin(8, "gpu0", CatGPU, "decode", 0)
	tr.End(12, it2)

	tr.End(12, d1)
	tr.EndReason(12, root1, "finish")

	root2 := tr.Begin(5, "req/r2", CatRequest, "request", 0)
	tr.EndReason(5, root2, "reject")
	tr.Instant(5, "gpu0", "reject")

	reg.Gauge("gpu0/kv_capacity_blocks").Set(0, 64)
	reg.Gauge("gpu0/kv_used_blocks").Set(4, 48)
	reg.Counter("llm/retries").Add(6, 2)
	return tr
}

func TestSpanLifecycle(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin(10, "req/a", CatRequest, "request", 0)
	child := tr.Begin(10, "req/a", CatRequest, "queue", root)
	tr.End(15, child)
	tr.EndReason(20, root, "finish")

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[1].Parent != spans[0].ID {
		t.Errorf("child parent = %d, want %d", spans[1].Parent, spans[0].ID)
	}
	if spans[0].Reason != "finish" || !spans[0].Closed {
		t.Errorf("root = %+v, want closed with reason finish", spans[0])
	}
	if spans[0].StartSeq >= spans[1].StartSeq {
		t.Errorf("seq not increasing: root %d, child %d", spans[0].StartSeq, spans[1].StartSeq)
	}

	// Double-End is idempotent: the first reason and end time stick.
	tr.EndReason(99, root, "drop")
	if s, _ := tr.span(root); s.Reason != "finish" || s.EndMS != 20 {
		t.Errorf("after double End: %+v, want reason finish end 20", s)
	}

	// An end before the start clamps to the start.
	back := tr.Begin(50, "req/b", CatRequest, "request", 0)
	tr.EndReason(40, back, "finish")
	if s, _ := tr.span(back); s.EndMS != 50 {
		t.Errorf("backwards end = %v, want clamped to 50", s.EndMS)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ref := tr.Begin(0, "x", CatGPU, "y", 0)
	if ref != 0 {
		t.Fatalf("nil tracer Begin = %d, want 0", ref)
	}
	tr.End(1, ref)
	tr.EndReason(1, ref, "finish")
	tr.Instant(1, "x", "y")
	if tr.Spans() != nil || tr.Instants() != nil {
		t.Error("nil tracer returned non-nil events")
	}
	if err := tr.Check(); err != nil {
		t.Errorf("nil tracer Check = %v", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("nil tracer WriteChrome: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Errorf("nil tracer trace is not valid JSON: %q", buf.String())
	}

	reg := tr.Registry()
	if reg != nil {
		t.Fatal("nil tracer Registry != nil")
	}
	reg.Counter("c").Add(0, 1)
	reg.Gauge("g").Set(0, 1)
	if got := reg.Lookup("c").ValueAt(10); got != 0 {
		t.Errorf("nil metric ValueAt = %v", got)
	}
	if reg.Names() != nil || reg.Snapshot(0) != nil {
		t.Error("nil registry returned non-nil collections")
	}

	names, byPhase := PhaseBreakdown(tr)
	if names != nil || len(byPhase) != 0 {
		t.Error("nil tracer PhaseBreakdown returned data")
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hits")
	c.Add(1, 1)
	c.Add(3, 2)
	g := reg.Gauge("depth")
	g.Set(0, 5)
	g.Set(2, 3)
	g.Set(4, 9)

	if got := c.Final(); got != 3 {
		t.Errorf("counter Final = %v, want 3", got)
	}
	if got := c.ValueAt(2); got != 1 {
		t.Errorf("counter ValueAt(2) = %v, want 1", got)
	}
	if got := c.ValueAt(0.5); got != 0 {
		t.Errorf("counter ValueAt(0.5) = %v, want 0", got)
	}
	if got := g.Max(); got != 9 {
		t.Errorf("gauge Max = %v, want 9", got)
	}
	if got := g.ValueAt(3); got != 3 {
		t.Errorf("gauge ValueAt(3) = %v, want 3", got)
	}
	if got := reg.Names(); len(got) != 2 || got[0] != "depth" || got[1] != "hits" {
		t.Errorf("Names = %v, want [depth hits]", got)
	}
	snap := reg.Snapshot(2)
	if snap["depth"] != 3 || snap["hits"] != 1 {
		t.Errorf("Snapshot(2) = %v, want depth 3 hits 1", snap)
	}
	// Same name keeps its original kind and identity.
	if reg.Gauge("hits") != c {
		t.Error("re-lookup under a different kind returned a new metric")
	}
	if c.Kind() != CounterKind {
		t.Errorf("kind changed to %v", c.Kind())
	}
	// Time clamps monotone even if a caller hands a stale clock.
	g.Set(1, 7)
	pts := g.Points()
	if last := pts[len(pts)-1]; last.AtMS != 4 || last.Value != 7 {
		t.Errorf("stale-clock point = %+v, want clamped to AtMS 4", last)
	}
}

func TestWriteChromeDeterministicAndValid(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildTrace().WriteChrome(&a); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if err := buildTrace().WriteChrome(&b); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical traces exported different bytes")
	}

	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e["ph"].(string)]++
	}
	for _, ph := range []string{"M", "X", "b", "e", "i", "C"} {
		if phases[ph] == 0 {
			t.Errorf("no %q events in export (histogram %v)", ph, phases)
		}
	}
	// Events must be time-ordered (metadata prefix aside).
	last := -1.0
	for _, e := range doc.TraceEvents {
		if e["ph"] == "M" {
			continue
		}
		ts := e["ts"].(float64)
		if ts < last {
			t.Fatalf("events out of order: ts %v after %v", ts, last)
		}
		last = ts
	}
	out := a.String()
	for _, want := range []string{`"thread_name"`, `"gpu0"`, `"req/r1"`, `"reason":"finish"`, `"gpu0/kv_used_blocks"`} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %s", want)
		}
	}
}

func TestCheckPasses(t *testing.T) {
	if err := checkMatchesReference(t, buildTrace()); err != nil {
		t.Fatalf("well-formed trace failed Check: %v", err)
	}
}

func TestCheckViolations(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Tracer
		want  string
	}{
		{"unclosed span", func() *Tracer {
			tr := NewTracer()
			tr.Begin(0, "gpu0", CatGPU, "prefill", 0)
			return tr
		}, "never ended"},
		{"unknown parent", func() *Tracer {
			tr := NewTracer()
			tr.End(1, tr.Begin(0, "gpu0", CatGPU, "prefill", 99))
			return tr
		}, "unknown parent"},
		{"parent opened later", func() *Tracer {
			tr := NewTracer()
			a := tr.Begin(0, "req/a", CatRequest, "queue", 2)
			root := tr.Begin(0, "req/a", CatRequest, "request", 0)
			tr.End(1, a)
			tr.EndReason(1, root, "finish")
			return tr
		}, "opened before its parent"},
		{"child escapes parent", func() *Tracer {
			tr := NewTracer()
			root := tr.Begin(0, "req/a", CatRequest, "request", 0)
			child := tr.Begin(5, "req/a", CatRequest, "decode", root)
			tr.EndReason(10, root, "finish")
			tr.End(20, child)
			return tr
		}, "escapes parent"},
		{"gpu overlap", func() *Tracer {
			tr := NewTracer()
			a := tr.Begin(0, "gpu0", CatGPU, "prefill", 0)
			b := tr.Begin(5, "gpu0", CatGPU, "decode", 0)
			tr.End(10, a)
			tr.End(15, b)
			return tr
		}, "overlaps"},
		{"dangling request", func() *Tracer {
			tr := NewTracer()
			root := tr.Begin(0, "req/a", CatRequest, "request", 0)
			tr.End(10, root) // no terminal reason
			return tr
		}, "non-terminal reason"},
		{"double residency", func() *Tracer {
			// A migrated session whose source-instance decode phase is
			// still open when the destination's starts: the same GPU
			// state live in two places.
			tr := NewTracer()
			root := tr.Begin(0, "req/a", CatRequest, "request", 0)
			d := tr.Begin(0, "req/a", CatRequest, "decode", root)
			m := tr.Begin(5, "req/a", CatRequest, "migrate", root)
			tr.End(8, d)
			tr.End(9, m)
			tr.EndReason(10, root, "finish")
			return tr
		}, "resident in two places"},
		{"kv over capacity", func() *Tracer {
			tr := NewTracer()
			tr.Registry().Gauge("gpu0/kv_capacity_blocks").Set(0, 10)
			tr.Registry().Gauge("gpu0/kv_used_blocks").Set(1, 12)
			return tr
		}, "over capacity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkMatchesReference(t, tc.build())
			if err == nil {
				t.Fatal("Check passed, want violation")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Check = %q, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestCheckAllowsAbuttingMigratedPhases(t *testing.T) {
	// A live migration hands the session off: decode ends on the donor
	// exactly when the migrate hop starts, which ends exactly when the
	// receiver's queue phase starts. Abutting is legal; only overlap is
	// double residency.
	tr := NewTracer()
	root := tr.Begin(0, "req/m", CatRequest, "request", 0)
	d := tr.Begin(0, "req/m", CatRequest, "decode", root)
	tr.End(5, d)
	m := tr.Begin(5, "req/m", CatRequest, "migrate", root)
	tr.End(9, m)
	q := tr.Begin(9, "req/m", CatRequest, "queue", root)
	tr.End(10, q)
	d2 := tr.Begin(10, "req/m", CatRequest, "decode", root)
	tr.End(14, d2)
	tr.EndReason(14, root, "finish")
	if err := checkMatchesReference(t, tr); err != nil {
		t.Fatalf("abutting migrated phases failed Check: %v", err)
	}
}

func TestCheckAllowsOverlapOffGPUTracks(t *testing.T) {
	// Concurrent LLM calls share a track and may overlap.
	tr := NewTracer()
	a := tr.Begin(0, "llm", CatLLM, "call", 0)
	b := tr.Begin(2, "llm", CatLLM, "call", 0)
	tr.End(10, a)
	tr.End(12, b)
	if err := checkMatchesReference(t, tr); err != nil {
		t.Fatalf("overlapping llm spans failed Check: %v", err)
	}
}

func TestPhaseBreakdown(t *testing.T) {
	tr := NewTracer()
	// r1: queue 4ms then (after a preemption) 2ms more, decode 6ms.
	r1 := tr.Begin(0, "req/r1", CatRequest, "request", 0)
	q := tr.Begin(0, "req/r1", CatRequest, "queue", r1)
	tr.End(4, q)
	q2 := tr.Begin(10, "req/r1", CatRequest, "queue", r1)
	tr.End(12, q2)
	d := tr.Begin(12, "req/r1", CatRequest, "decode", r1)
	tr.End(18, d)
	tr.EndReason(18, r1, "finish")
	// r2: queue 1ms only.
	r2 := tr.Begin(0, "req/r2", CatRequest, "request", 0)
	q3 := tr.Begin(0, "req/r2", CatRequest, "queue", r2)
	tr.End(1, q3)
	tr.EndReason(1, r2, "drop")

	names, byPhase := PhaseBreakdown(tr)
	if len(names) != 2 || names[0] != "queue" || names[1] != "decode" {
		t.Fatalf("phase names = %v, want [queue decode]", names)
	}
	qs := byPhase["queue"]
	if qs.Count() != 2 || qs.Sum() != 7 {
		t.Errorf("queue summary count %d sum %v, want 2 samples summing 7", qs.Count(), qs.Sum())
	}
	ds := byPhase["decode"]
	if ds.Count() != 1 || ds.Sum() != 6 {
		t.Errorf("decode summary count %d sum %v, want 1 sample of 6", ds.Count(), ds.Sum())
	}
}

// TestConcurrentRecordCheckExport records from several goroutines across
// span-page boundaries while Check and WriteChrome read the same tracer:
// run under -race, it pins that both readers take the tracer's lock and
// that WriteChrome's copy is safe to render after the lock is released.
func TestConcurrentRecordCheckExport(t *testing.T) {
	tr := NewTracer()
	dl := NewDecisionLog()
	tr.AttachDecisions(dl)
	const writers, perWriter = 4, 1500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			track := fmt.Sprintf("llm%d", w)
			gauge := tr.Registry().Gauge(track + "/inflight")
			for i := 0; i < perWriter; i++ {
				now := float64(i)
				ref := tr.Begin(now, track, CatLLM, "call", 0)
				tr.SpanAttrs(ref, I("i", int64(i)))
				gauge.Set(now, float64(i%3))
				if i%100 == 0 {
					tr.Instant(now, track, "retry")
				}
				tr.End(now+0.5, ref)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		_ = tr.Check() // spans still open mid-recording are a legal failure here
		if err := tr.WriteChrome(io.Discard); err != nil {
			t.Fatalf("WriteChrome during recording: %v", err)
		}
	}
	if err := checkMatchesReference(t, tr); err != nil {
		t.Fatalf("finished concurrent trace failed Check: %v", err)
	}
	var got, want bytes.Buffer
	if err := tr.WriteChrome(&got); err != nil {
		t.Fatal(err)
	}
	if err := writeChromeReference(tr, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("concurrently recorded trace exports differently from the reference")
	}
	if n := len(tr.Spans()); n != writers*perWriter {
		t.Errorf("recorded %d spans, want %d", n, writers*perWriter)
	}
}
