// Package obs is the deterministic observability layer: spans, counters,
// and gauges keyed to the repo's logical clocks, with exporters that turn
// a serving run into a Perfetto-loadable timeline and a per-request
// time-breakdown table.
//
// Three properties distinguish it from a production tracing library:
//
//   - Timestamps are logical, never wall-clock. Serving spans carry
//     internal/sim engine time; LLM call-path spans carry accumulated
//     simulated LatencyMS. A trace is therefore a pure function of the
//     run's seeds: two runs (and a serial vs a parallel benchall) emit
//     byte-identical trace files. Events are totally ordered by
//     (time, seq), where seq is the recording order — the same ordering
//     discipline as the event engine itself.
//
//   - Everything is nil-safe and zero-overhead when disabled. Every
//     method on a nil *Tracer, *Registry, or *Metric is a no-op, so
//     instrumented code carries no conditional noise and an untraced run
//     (the default everywhere) does no extra work and allocates nothing.
//
//   - Traces are checkable. CheckInvariants verifies structural
//     well-formedness (spans closed, end >= start, parent containment,
//     no overlap within a GPU track, request chains terminated,
//     KV-occupancy gauges within capacity), so tests can assert a whole
//     run's timeline is internally consistent rather than spot-checking
//     a few numbers.
//
// The Tracer is safe for concurrent use (the LLM call path fans out
// across goroutines); recording order — and therefore seq — is
// scheduling-dependent under concurrency, so byte-identical traces are
// guaranteed only for single-threaded producers like the discrete-event
// serving cluster, or for concurrent producers whose spans carry
// caller-supplied logical times and are sorted at export.
package obs

import (
	"fmt"
	"sync"
)

// Span categories. The checker and the exporter branch on these: gpu
// spans render as thread-track slices and must not overlap within a
// track; request spans render as async (nestable) events keyed by their
// track; llm spans render as thread-track slices but may overlap
// (concurrent calls share the track).
const (
	CatGPU     = "gpu"
	CatRequest = "request"
	CatLLM     = "llm"
)

// SpanRef identifies a span recorded by a Tracer. The zero value means
// "no span" and is safe to End or annotate (a no-op), so callers thread
// refs through untraced paths without guards.
type SpanRef uint64

// Span is one recorded interval on a named track.
type Span struct {
	// ID is the 1-based span identifier; Parent is the enclosing span's
	// ID (0 = root).
	ID, Parent uint64
	// Track names the timeline the span belongs to ("gpu0", "req/r17",
	// "llm").
	Track string
	// Name is the span label ("prefill", "decode", "queue", "attempt 2").
	Name string
	// Cat is one of the Cat* constants.
	Cat string
	// StartMS and EndMS are logical-clock times.
	StartMS, EndMS float64
	// StartSeq and EndSeq are the recording-order tie-breaks.
	StartSeq, EndSeq uint64
	// Reason is the optional terminal annotation ("finish", "reject",
	// "crash") set by EndReason.
	Reason string
	// Attrs are typed annotations set at Begin or via SpanAttrs; the
	// exporter renders them key-sorted into the event's args.
	Attrs []Attr
	// Closed reports whether End was called.
	Closed bool
}

// Instant is one point event on a track ("crash", "preempt", "reroute").
type Instant struct {
	Track, Name string
	AtMS        float64
	Seq         uint64
	// Attrs are typed annotations recorded with the instant.
	Attrs []Attr
}

// Spans live in fixed-size pages of spanPage entries, so recording never
// re-copies the spans already stored: the first page grows by append
// (small tracers stay small), every later page is allocated once at
// full size. The span with SpanRef r is entry (r-1)%spanPage of page
// (r-1)/spanPage.
const (
	spanPageShift = 10
	spanPage      = 1 << spanPageShift
)

// Tracer records spans and instants and owns a metric Registry. The zero
// value is not usable; construct with NewTracer. A nil *Tracer is the
// disabled tracer: every method no-ops.
type Tracer struct {
	mu       sync.Mutex
	seq      uint64
	pages    [][]Span
	nspans   int
	instants []Instant
	reg      *Registry
	dlog     *DecisionLog
}

// NewTracer returns an empty tracer with an empty registry.
func NewTracer() *Tracer {
	return &Tracer{reg: NewRegistry()}
}

// Registry returns the tracer's metric registry (nil for a nil tracer,
// which is itself a no-op registry).
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Begin opens a span at logical time now. parent nests the span (0 for a
// root); attrs, if any, annotate the span. It returns 0 on a nil tracer.
func (t *Tracer) Begin(now float64, track, cat, name string, parent SpanRef, attrs ...Attr) SpanRef {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.seq++
	p := t.nspans >> spanPageShift
	if p == len(t.pages) {
		var page []Span
		if p > 0 {
			page = make([]Span, 0, spanPage)
		}
		t.pages = append(t.pages, page)
	}
	t.nspans++
	t.pages[p] = append(t.pages[p], Span{
		ID:       uint64(t.nspans),
		Parent:   uint64(parent),
		Track:    track,
		Name:     name,
		Cat:      cat,
		StartMS:  now,
		StartSeq: t.seq,
		Attrs:    append([]Attr(nil), attrs...),
	})
	ref := SpanRef(t.nspans)
	t.mu.Unlock()
	return ref
}

// at returns the i-th recorded span (0-based); callers hold t.mu.
func (t *Tracer) at(i int) *Span {
	return &t.pages[i>>spanPageShift][i&(spanPage-1)]
}

// SpanAttrs appends typed attributes to a recorded span (open or
// closed). The exporter renders them key-sorted into the span's args,
// merged with any terminal reason. Annotating the zero ref or a nil
// tracer is a no-op, so callers thread refs through untraced paths
// without guards.
func (t *Tracer) SpanAttrs(ref SpanRef, attrs ...Attr) {
	if t == nil || ref == 0 || len(attrs) == 0 {
		return
	}
	t.mu.Lock()
	if uint64(ref) <= uint64(t.nspans) {
		s := t.at(int(ref - 1))
		s.Attrs = append(s.Attrs, attrs...)
	}
	t.mu.Unlock()
}

// End closes the span at logical time now. Ending the zero ref, on a nil
// tracer, or twice is a no-op; an end before the start clamps to the
// start (time never runs backwards).
func (t *Tracer) End(now float64, ref SpanRef) { t.EndReason(now, ref, "") }

// EndReason is End with a terminal annotation recorded on the span.
func (t *Tracer) EndReason(now float64, ref SpanRef, reason string) {
	if t == nil || ref == 0 {
		return
	}
	t.mu.Lock()
	s := t.at(int(ref - 1))
	if !s.Closed {
		t.seq++
		if now < s.StartMS {
			now = s.StartMS
		}
		s.EndMS = now
		s.EndSeq = t.seq
		s.Reason = reason
		s.Closed = true
	}
	t.mu.Unlock()
}

// Instant records a point event on a track; attrs, if any, annotate it.
func (t *Tracer) Instant(now float64, track, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	t.instants = append(t.instants, Instant{
		Track: track, Name: name, AtMS: now, Seq: t.seq,
		Attrs: append([]Attr(nil), attrs...),
	})
	t.mu.Unlock()
}

// AttachDecisions links a routing DecisionLog to the tracer, so Check
// verifies the recorded decisions against the span timeline (see the
// decision invariants in Check). Attaching nil detaches. No-op on a
// nil tracer.
func (t *Tracer) AttachDecisions(dl *DecisionLog) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.dlog = dl
	t.mu.Unlock()
}

// Decisions returns the attached DecisionLog (nil when none, and on a
// nil tracer).
func (t *Tracer) Decisions() *DecisionLog {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dlog
}

// Spans returns a copy of every recorded span in recording order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nspans == 0 {
		return nil
	}
	out := make([]Span, 0, t.nspans)
	for _, page := range t.pages {
		out = append(out, page...)
	}
	return out
}

// Instants returns a copy of every recorded instant in recording order.
func (t *Tracer) Instants() []Instant {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Instant(nil), t.instants...)
}

// span returns the indexed span by ref for internal readers; callers
// hold no reference into the live slice.
func (t *Tracer) span(ref SpanRef) (Span, bool) {
	if t == nil || ref == 0 {
		return Span{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if uint64(ref) > uint64(t.nspans) {
		return Span{}, false
	}
	return *t.at(int(ref - 1)), true
}

// errf builds checker/exporter errors with a uniform prefix.
func errf(format string, args ...interface{}) error {
	return fmt.Errorf("obs: "+format, args...)
}
