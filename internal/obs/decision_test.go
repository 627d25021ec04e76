package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestAttrEncoding(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin(0, "req/r1", CatRequest, "request", 0)
	q := tr.Begin(0, "req/r1", CatRequest, "queue", root, I("inst", 2))
	tr.SpanAttrs(q, I("decision", 7))
	tr.End(3, q)
	tr.EndReason(3, root, "finish")
	x := tr.Begin(1, "gpu0", CatGPU, "iter", 0, Attr{Key: "load", Kind: AttrFloat, Num: 1.5}, S("mode", "mixed"))
	tr.EndReason(2, x, "crash")
	tr.Instant(2.5, "router", "reroute", I("from", 0), I("to", 1))

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Key-sorted args: the queue span's "b" event merges the Begin attr
	// and the later SpanAttrs append, sorted (decision < inst).
	if !strings.Contains(out, `"args":{"decision":7,"inst":2}`) {
		t.Errorf("queue span args missing or unsorted:\n%s", out)
	}
	// An X span merges its attrs with the terminal reason, key-sorted
	// (load < mode < reason).
	if !strings.Contains(out, `"args":{"load":1.5,"mode":"mixed","reason":"crash"}`) {
		t.Errorf("X span args missing reason merge:\n%s", out)
	}
	if !strings.Contains(out, `"args":{"from":0,"to":1}`) {
		t.Errorf("instant args missing:\n%s", out)
	}
	var parsed struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("attr-carrying trace is not valid JSON: %v", err)
	}

	// Determinism: a second export emits identical bytes.
	var buf2 bytes.Buffer
	if err := tr.WriteChrome(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-export changed bytes")
	}
}

func TestAttrLookupAndNilSafety(t *testing.T) {
	tr := NewTracer()
	ref := tr.Begin(0, "gpu0", CatGPU, "iter", 0, I("inst", 3))
	tr.End(1, ref)
	s := tr.Spans()[0]
	if a, ok := s.Attr("inst"); !ok || a.Int != 3 {
		t.Errorf("Attr lookup = %+v, %v", a, ok)
	}
	if _, ok := s.Attr("missing"); ok {
		t.Error("found missing attr")
	}

	var nilT *Tracer
	nilT.SpanAttrs(1, I("x", 1))           // no-op
	nilT.Instant(0, "t", "n", I("x", 1))   // no-op
	nilT.AttachDecisions(NewDecisionLog()) // no-op
	if nilT.Decisions() != nil {
		t.Error("nil tracer has decisions")
	}
	tr.SpanAttrs(0, I("x", 1))   // zero ref: no-op
	tr.SpanAttrs(999, I("x", 1)) // out of range: no-op
	var nilL *DecisionLog
	if nilL.Record(Decision{}) != 0 || nilL.Len() != 0 || nilL.Decisions() != nil {
		t.Error("nil DecisionLog not inert")
	}
	if _, ok := nilL.At(1); ok {
		t.Error("nil DecisionLog At found something")
	}
}

func TestDecisionLogRecordAndRanked(t *testing.T) {
	dl := NewDecisionLog()
	d := Decision{AtMS: 10, ReqID: "r1", Kind: DecisionArrival, Chosen: 2,
		Candidates: []Candidate{
			{Instance: 0, Score: 5},
			{Instance: 1, Score: 5},
			{Instance: 2, Score: 1},
			{Instance: 3, Score: 9},
		}}
	if seq := dl.Record(d); seq != 1 {
		t.Fatalf("first Record seq = %d", seq)
	}
	if seq := dl.Record(d); seq != 2 {
		t.Fatalf("second Record seq = %d", seq)
	}
	if dl.Len() != 2 {
		t.Fatalf("Len = %d", dl.Len())
	}
	got, ok := dl.At(1)
	if !ok || got.Seq != 1 || got.ReqID != "r1" {
		t.Fatalf("At(1) = %+v, %v", got, ok)
	}
	if _, ok := dl.At(3); ok {
		t.Error("At(3) found a decision")
	}
	// Ranked: ascending score, ties to the lowest instance index.
	if want := []int{2, 0, 1, 3}; !reflect.DeepEqual(got.Ranked(), want) {
		t.Errorf("Ranked = %v, want %v", got.Ranked(), want)
	}
}

// decisionTrace builds a minimal routed-style trace: one finished
// request whose queue phase is annotated with its decision.
func decisionTrace() (*Tracer, *DecisionLog) {
	tr := NewTracer()
	dl := NewDecisionLog()
	root := tr.Begin(0, "req/r1", CatRequest, "request", 0)
	q := tr.Begin(0, "req/r1", CatRequest, "queue", root)
	dl.Record(Decision{AtMS: 0, ReqID: "r1", Kind: DecisionArrival, Chosen: 1,
		Candidates: []Candidate{{Instance: 0, Score: 3}, {Instance: 1, Score: 1}}})
	tr.SpanAttrs(q, I(DecisionSeqKey, 1), I(DecisionInstKey, 1))
	tr.End(2, q)
	tr.EndReason(2, root, "finish")
	tr.AttachDecisions(dl)
	return tr, dl
}

func TestCheckDecisionInvariants(t *testing.T) {
	tr, _ := decisionTrace()
	if err := checkMatchesReference(t, tr); err != nil {
		t.Fatalf("well-formed decision trace failed: %v", err)
	}

	// Chosen instance disagrees with the span's inst attr.
	tr2, dl2 := decisionTrace()
	_ = tr2
	decs := dl2.Decisions()
	decs[0].Chosen = 0
	bad := NewDecisionLog()
	for _, d := range decs {
		bad.Record(d)
	}
	tr2.AttachDecisions(bad)
	if err := checkMatchesReference(t, tr2); err == nil || !strings.Contains(err.Error(), "different delivery") {
		t.Errorf("chosen/span mismatch not caught: %v", err)
	}

	// Non-finite candidate score.
	tr3, dl3 := decisionTrace()
	decs = dl3.Decisions()
	decs[0].Candidates[0].Score = math.NaN()
	bad = NewDecisionLog()
	for _, d := range decs {
		bad.Record(d)
	}
	tr3.AttachDecisions(bad)
	if err := checkMatchesReference(t, tr3); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("NaN score not caught: %v", err)
	}

	// A finished request with no arrival decision.
	tr4 := NewTracer()
	root := tr4.Begin(0, "req/r9", CatRequest, "request", 0)
	q := tr4.Begin(0, "req/r9", CatRequest, "queue", root)
	tr4.End(1, q)
	tr4.EndReason(1, root, "finish")
	tr4.AttachDecisions(NewDecisionLog())
	if err := checkMatchesReference(t, tr4); err == nil || !strings.Contains(err.Error(), "arrival decisions") {
		t.Errorf("undecided finished request not caught: %v", err)
	}

	// A decision whose span never materialized.
	tr5 := NewTracer()
	dl5 := NewDecisionLog()
	dl5.Record(Decision{ReqID: "r1", Kind: DecisionArrival, Chosen: 0,
		Candidates: []Candidate{{Instance: 0, Score: 0}}})
	tr5.AttachDecisions(dl5)
	if err := checkMatchesReference(t, tr5); err == nil || !strings.Contains(err.Error(), "no annotated span") {
		t.Errorf("spanless decision not caught: %v", err)
	}

	// A decision annotating a track that ends in its request ID, but not
	// as the track's last path element.
	tr6 := NewTracer()
	dl6 := NewDecisionLog()
	root6 := tr6.Begin(0, "req/xr1", CatRequest, "request", 0)
	q6 := tr6.Begin(0, "req/xr1", CatRequest, "queue", root6)
	dl6.Record(Decision{ReqID: "r1", Kind: DecisionArrival, Chosen: 0,
		Candidates: []Candidate{{Instance: 0, Score: 0}}})
	tr6.SpanAttrs(q6, I(DecisionSeqKey, 1), I(DecisionInstKey, 0))
	tr6.End(1, q6)
	tr6.EndReason(1, root6, "finish")
	tr6.AttachDecisions(dl6)
	if err := checkMatchesReference(t, tr6); err == nil || !strings.Contains(err.Error(), "annotates track") {
		t.Errorf("decision on another request's track not caught: %v", err)
	}

	// Detached log: the same timeline passes without decision checks.
	tr4.AttachDecisions(nil)
	if err := checkMatchesReference(t, tr4); err != nil {
		t.Errorf("detached log still checked decisions: %v", err)
	}
}
