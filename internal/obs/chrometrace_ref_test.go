package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// writeChromeReference is the historical WriteChrome implementation
// (one string per event body, stable sort, strings.Builder), verbatim
// but for attribute rendering, which it predates: refArgs renders span
// and instant attributes in the same one-string style. It is kept here
// as the oracle for the streaming writer: any trace the streaming
// writer emits must match this byte-for-byte.
func writeChromeReference(t *Tracer, w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "{\"traceEvents\":[]}\n")
		return err
	}
	spans := t.Spans()
	instants := t.Instants()

	trackSet := map[string]bool{}
	for _, s := range spans {
		trackSet[s.Track] = true
	}
	for _, in := range instants {
		trackSet[in.Track] = true
	}
	tracks := make([]string, 0, len(trackSet))
	for name := range trackSet {
		tracks = append(tracks, name)
	}
	sort.Strings(tracks)
	tid := map[string]int{}
	for i, name := range tracks {
		tid[name] = i + 1
	}

	type ev struct {
		ts   float64
		seq  uint64
		body string
	}
	var events []ev
	var maxSeq uint64

	common := func(track string, atMS float64) string {
		return `"ts":` + num(atMS*1000) + `,"pid":1,"tid":` + strconv.Itoa(tid[track])
	}
	for _, s := range spans {
		if s.StartSeq > maxSeq {
			maxSeq = s.StartSeq
		}
		if s.EndSeq > maxSeq {
			maxSeq = s.EndSeq
		}
		endMS, endSeq := s.EndMS, s.EndSeq
		if !s.Closed {
			endMS, endSeq = s.StartMS, s.StartSeq
		}
		if s.Cat == CatRequest {
			head := `{"name":` + str(s.Name) + `,"cat":` + str(s.Cat) + `,"id":` + str(s.Track) + `,`
			events = append(events,
				ev{s.StartMS, s.StartSeq, head + `"ph":"b",` + common(s.Track, s.StartMS) + refArgs(s.Attrs, "") + `}`},
				ev{endMS, endSeq, head + `"ph":"e",` + common(s.Track, endMS) + refArgs(nil, s.Reason) + `}`})
			continue
		}
		events = append(events, ev{s.StartMS, s.StartSeq,
			`{"name":` + str(s.Name) + `,"cat":` + str(s.Cat) + `,"ph":"X",` +
				common(s.Track, s.StartMS) + `,"dur":` + num((endMS-s.StartMS)*1000) + refArgs(s.Attrs, s.Reason) + `}`})
	}
	for _, in := range instants {
		if in.Seq > maxSeq {
			maxSeq = in.Seq
		}
		events = append(events, ev{in.AtMS, in.Seq,
			`{"name":` + str(in.Name) + `,"ph":"i","s":"t",` + common(in.Track, in.AtMS) + refArgs(in.Attrs, "") + `}`})
	}

	reg := t.Registry()
	seq := maxSeq
	for _, name := range reg.Names() {
		for _, p := range reg.Lookup(name).Points() {
			seq++
			events = append(events, ev{p.AtMS, seq,
				`{"name":` + str(name) + `,"ph":"C","ts":` + num(p.AtMS*1000) +
					`,"pid":1,"args":{"value":` + num(p.Value) + `}}`})
		}
	}

	sort.SliceStable(events, func(i, j int) bool {
		if events[i].ts != events[j].ts {
			return events[i].ts < events[j].ts
		}
		return events[i].seq < events[j].seq
	})

	var b strings.Builder
	b.WriteString(`{"traceEvents":[`)
	b.WriteByte('\n')
	b.WriteString(`{"name":"process_name","ph":"M","pid":1,"args":{"name":"dataai"}}`)
	for _, name := range tracks {
		b.WriteString(",\n")
		b.WriteString(`{"name":"thread_name","ph":"M","pid":1,"tid":` +
			strconv.Itoa(tid[name]) + `,"args":{"name":` + str(name) + `}}`)
	}
	for _, e := range events {
		b.WriteString(",\n")
		b.WriteString(e.body)
	}
	b.WriteString("\n]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// num renders a float in its shortest round-trip decimal form.
func num(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// str renders s as a JSON string literal.
func str(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `""`
	}
	return string(b)
}

// refArgs renders an event's attributes, plus the terminal reason as key
// "reason" when set, as a key-sorted "args" object; "" when there are
// none.
func refArgs(attrs []Attr, reason string) string {
	all := append([]Attr(nil), attrs...)
	if reason != "" {
		all = append(all, S("reason", reason))
	}
	if len(all) == 0 {
		return ""
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	parts := make([]string, len(all))
	for i, a := range all {
		v := num(a.Num)
		switch a.Kind {
		case AttrInt:
			v = strconv.FormatInt(a.Int, 10)
		case AttrStr:
			v = str(a.Str)
		}
		parts[i] = str(a.Key) + ":" + v
	}
	return `,"args":{` + strings.Join(parts, ",") + `}`
}

// adversarialTracer builds a trace that stresses every formatting path:
// unclosed request spans (whose "b"/"e" share a (ts, seq) key and must
// keep b first), strings that need JSON escaping (quotes, backslashes,
// HTML-escaped <>&, control bytes, non-ASCII), awkward float values,
// zero-duration X spans, same-instant events, and counter/gauge points
// interleaved between tracer seqs.
func adversarialTracer() *Tracer {
	tr := NewTracer()

	r1 := tr.Begin(0, "req/r1", CatRequest, "request", 0)
	q1 := tr.Begin(0, "req/r1", CatRequest, "queue", r1)
	tr.End(2.5, q1)
	p1 := tr.Begin(2.5, "req/r1", CatRequest, "prefill", r1)
	tr.EndReason(7.25, p1, "chunked")
	tr.EndReason(7.25, r1, "finished")

	// Unclosed request span: exports b and e at the same (ts, seq).
	tr.Begin(3, "req/lost", CatRequest, "request", 0)

	// Names needing escapes, including the HTML trio json.Marshal escapes.
	weird := tr.Begin(1, `trk "q"<&>`, CatGPU, "a\\b\tc\u2028d£", 0)
	tr.EndReason(1, weird, "cause: <oom> & \"retry\"")

	g1 := tr.Begin(0.1, "gpu0", CatGPU, "prefill", 0, Attr{Key: "load", Kind: AttrFloat, Num: 1.0 / 3.0}, S("note", "a<b"))
	tr.EndReason(0.30000000000000004, g1, "crash")
	tr.Instant(0.1, "gpu0", "crash")
	tr.Instant(0.1, "gpu0", "preempt", I("victim", -3), S("why", `x"y`))

	// Awkward floats: ts is ms*1000, so tiny values exercise long decimals.
	f := tr.Begin(1.0/3.0, "llm", CatLLM, "decode", 0)
	tr.End(math.Pi, f)

	reg := tr.Registry()
	kv := reg.Gauge("kv_blocks")
	kv.Set(0, 4)
	kv.Set(2.5, 17.75)
	kv.Set(2.5, 3)
	kv.Set(math.Nextafter(2.5, 3), 5) // adjacent float: a distinct timestamp
	reg.Counter("tokens <out>").Add(1.5, 128)
	reg.Counter("tokens <out>").Add(7.25, 0.125)
	return tr
}

// chromeWorkers are the worker counts the export is compared at: the
// serial path, the benchmark host's two cores, and more workers than a
// small trace has chunks.
var chromeWorkers = []int{1, 2, 8}

// matchReference exports tr at every worker count in chromeWorkers and
// reports the first byte where an export departs from the reference.
func matchReference(t *testing.T, name string, tr *Tracer) {
	t.Helper()
	var want bytes.Buffer
	if err := writeChromeReference(tr, &want); err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	for _, workers := range chromeWorkers {
		var got bytes.Buffer
		if err := tr.writeChrome(&got, workers); err != nil {
			t.Fatalf("%s: writeChrome(%d workers): %v", name, workers, err)
		}
		if bytes.Equal(want.Bytes(), got.Bytes()) {
			continue
		}
		w, g := want.String(), got.String()
		i := 0
		for i < len(w) && i < len(g) && w[i] == g[i] {
			i++
		}
		lo := max(i-40, 0)
		t.Errorf("%s at %d workers: output diverges at byte %d:\nref: ...%q\nnew: ...%q",
			name, workers, i, w[lo:min(i+80, len(w))], g[lo:min(i+80, len(g))])
	}
}

func TestWriteChromeMatchesReference(t *testing.T) {
	cases := map[string]*Tracer{
		"nil":         nil,
		"empty":       NewTracer(),
		"adversarial": adversarialTracer(),
		// Eighteen span pages, decision attrs, and thousands of gauge points
		// on twelve metrics.
		"multi-page sim":        simTrace(3000, nil),
		"unclosed request span": simTrace(3000, map[int]string{1234: mutOpenSpan}),
	}
	for name, tr := range cases {
		matchReference(t, name, tr)
	}
}

// randomTracer records n random operations from a seeded generator. It
// draws every time from a few values, so ties cross spans, instants and
// counter points; records spans, ends and instants out of time order;
// leaves some request spans open; annotates spans after later events;
// sets metrics back in time (record clamps them); and registers empty and
// one-point series. Numbers include integers at the 2^53 edge, -0,
// fractions and non-finite values.
func randomTracer(seed int64, n int) *Tracer {
	rng := rand.New(rand.NewSource(seed))
	pick := func(vs ...float64) float64 { return vs[rng.Intn(len(vs))] }
	negZero := math.Copysign(0, -1)
	var times []float64
	for i := 1 + rng.Intn(6); i > 0; i-- {
		times = append(times, pick(0, negZero, 0.25, 1.0/3, 1, 2.5, 7, 1e-9, 1e15, -1.5,
			float64(rng.Intn(50)), math.Nextafter(1, 2)))
	}
	at := func() float64 { return times[rng.Intn(len(times))] }
	value := func() float64 {
		return pick(0, negZero, 1, -3, 0.1, 1<<53-1, 1<<53, 1e21, math.Inf(1), math.NaN(),
			float64(rng.Intn(1000)), rng.NormFloat64()*1e3)
	}
	attrs := func() []Attr {
		keys := []string{"a", "b", "inst", "reason", "load <x>"}
		var out []Attr
		for i := rng.Intn(4); i > 0; i-- {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(3) {
			case 0:
				out = append(out, Attr{Key: k, Kind: AttrFloat, Num: value()})
			case 1:
				out = append(out, I(k, rng.Int63n(1<<40)-1<<39))
			default:
				out = append(out, S(k, []string{"", "x", `q"<&>`, "£"}[rng.Intn(4)]))
			}
		}
		return out
	}
	tracks := []string{"gpu0", "gpu1", "llm", "req/r1", "req/r2", `t "q"`}
	cats := []string{CatGPU, CatRequest, CatRequest, CatLLM, "bench"}
	names := []string{"prefill", "decode", "queue", "crash", "x\ty"}

	tr := NewTracer()
	reg := tr.Registry()
	var metrics []*Metric
	for i := rng.Intn(6); i > 0; i-- {
		name := fmt.Sprintf("m%d <%d>", rng.Intn(8), i)
		if rng.Intn(2) == 0 {
			metrics = append(metrics, reg.Gauge(name))
		} else {
			metrics = append(metrics, reg.Counter(name))
		}
	}
	if rng.Intn(2) == 0 {
		reg.Gauge("empty") // a series with no points
	}
	if rng.Intn(2) == 0 {
		reg.Gauge("one").Set(at(), value())
	}
	var refs []SpanRef
	for i := 0; i < n; i++ {
		switch op := rng.Intn(10); {
		case op < 3 || len(refs) == 0:
			var parent SpanRef
			if len(refs) > 0 && rng.Intn(2) == 0 {
				parent = refs[rng.Intn(len(refs))]
			}
			refs = append(refs, tr.Begin(at(), tracks[rng.Intn(len(tracks))], cats[rng.Intn(len(cats))],
				names[rng.Intn(len(names))], parent, attrs()...))
		case op < 5:
			// Some spans are never ended: an unclosed request span exports
			// its "b" and "e" at its start.
			if rng.Intn(8) > 0 {
				tr.EndReason(at(), refs[rng.Intn(len(refs))], []string{"", "finish", "crash"}[rng.Intn(3)])
			}
		case op < 6:
			tr.Instant(at(), tracks[rng.Intn(len(tracks))], names[rng.Intn(len(names))], attrs()...)
		case op < 7:
			tr.SpanAttrs(refs[rng.Intn(len(refs))], attrs()...)
		default:
			if len(metrics) > 0 {
				m := metrics[rng.Intn(len(metrics))]
				if m.Kind() == CounterKind {
					m.Add(at(), value())
				} else {
					m.Set(at(), value())
				}
			}
		}
	}
	return tr
}

// TestWriteChromeRandomized compares the export at every worker count
// with the reference over 200 seeded random traces. Most fit in one
// chunk, where edge cases are dense; every twentieth spans several
// windows at one and two workers, and the last at eight.
func TestWriteChromeRandomized(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		n := 1 + rand.New(rand.NewSource(seed)).Intn(1000)
		switch {
		case seed == 199:
			n = 100_000
		case seed%20 == 19:
			n = 12_000
		}
		matchReference(t, fmt.Sprintf("seed %d (%d ops)", seed, n), randomTracer(seed, n))
		if t.Failed() {
			return
		}
	}
}

// TestAppendNumMatchesFormatFloat pins the integer path of appendNum to
// the float formatter it bypasses, at its edges and over a seeded sweep.
func TestAppendNumMatchesFormatFloat(t *testing.T) {
	const p53 = 1 << 53
	cases := []float64{
		0, math.Copysign(0, -1), p53 - 1, -(p53 - 1), p53, -p53, p53 + 2, -(p53 + 2),
		1e21, 1e22, -1.5, 0.5, 1e-7, math.SmallestNonzeroFloat64, math.MaxFloat64,
		-math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 1e15, 4.2e-320,
	}
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 20000; i++ {
		switch i % 4 {
		case 0:
			cases = append(cases, float64(rng.Int63n(p53<<2)-p53<<1))
		case 1:
			cases = append(cases, math.Ldexp(float64(rng.Int63n(1<<20)), rng.Intn(80)-20))
		case 2:
			cases = append(cases, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(30)-10)))
		default:
			cases = append(cases, math.Float64frombits(rng.Uint64()))
		}
	}
	for _, v := range cases {
		if got, want := string(appendNum(nil, v)), strconv.FormatFloat(v, 'f', -1, 64); got != want {
			t.Errorf("appendNum(%b) = %s, want %s", v, got, want)
		}
	}
}

// TestTimestampMemoKeepsNegativeZero: -0 equals +0 as a float, so the
// previous-timestamp memo must compare bits, or a -0 after a +0 would
// print as 0.
func TestTimestampMemoKeepsNegativeZero(t *testing.T) {
	tr := NewTracer()
	tr.Instant(0, "t", "pos")
	tr.Instant(math.Copysign(0, -1), "t", "neg")
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf, 1); err != nil {
		t.Fatal(err)
	}
	want := `{"name":"pos","ph":"i","s":"t","ts":0,"pid":1,"tid":1},` + "\n" +
		`{"name":"neg","ph":"i","s":"t","ts":-0,"pid":1,"tid":1}`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("export lacks %s:\n%s", want, buf.String())
	}
	matchReference(t, "-0 after +0", tr)
}

func TestAppendStrMatchesJSONMarshal(t *testing.T) {
	inputs := []string{
		"", "plain", "req/r1", "with space", "~!#$%'()*+,-./:;=?@[]^_`{|}",
		`quote"q`, `back\slash`, "tab\there", "nl\nhere", "\x00\x1f",
		"html<&>", "utf£8", "\u2028sep", string([]byte{0xff, 0xfe}),
	}
	for _, s := range inputs {
		if got, want := string(appendStr(nil, s)), str(s); got != want {
			t.Errorf("appendStr(%q) = %s, want %s", s, got, want)
		}
	}
}
