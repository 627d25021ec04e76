package obs

import (
	"bytes"
	"io"
	"math"
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

	g1 := tr.Begin(0.1, "gpu0", CatGPU, "prefill", 0, F("load", 1.0/3.0), S("note", "a<b"))
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
		var want, got bytes.Buffer
		if err := writeChromeReference(tr, &want); err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if err := tr.WriteChrome(&got); err != nil {
			t.Fatalf("%s: WriteChrome: %v", name, err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			w, g := want.String(), got.String()
			i := 0
			for i < len(w) && i < len(g) && w[i] == g[i] {
				i++
			}
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			t.Errorf("%s: output diverges at byte %d:\nref: ...%q\nnew: ...%q",
				name, i, w[lo:min(i+80, len(w))], g[lo:min(i+80, len(g))])
		}
	}
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
