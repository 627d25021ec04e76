package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"slices"
	"sort"
	"strconv"
)

// WriteChrome renders the trace as a Chrome trace-event JSON file,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Layout:
//
//   - one thread track per span/instant track name (tids assigned in
//     sorted-name order, so GPU tracks stack gpu0, gpu1, ... top-down);
//   - gpu/llm spans as "X" complete events; request-lifecycle spans as
//     nestable async "b"/"e" pairs keyed by the request track, so the
//     queue/prefill/decode/reroute phases nest under the request root;
//   - instants ("crash", "preempt", "reroute") as "i" events;
//   - every registry metric as a "C" counter track;
//   - span/instant attributes — and the terminal reason, as key
//     "reason" — as a key-sorted "args" object on the carrying event
//     (request-span attrs ride the "b" event, the reason the "e").
//
// Output bytes are a pure function of the recorded trace: events are
// sorted by (logical time, seq, begin-before-end), numbers render via
// strconv (shortest round-trip form), and field order is fixed. Two
// identical runs — or a serial and a parallel run of the same
// deterministic simulation — emit byte-identical files.
//
// WriteChrome copies the span pages under the tracer's lock, then sorts
// and renders without it, so w never runs under the lock. Events are
// sorted as small references into that copy and each body is rendered
// into a reused scratch buffer feeding a bufio.Writer, so export
// allocations do not scale with event count
// (TestWriteChromeMatchesReference pins the bytes against the historical
// per-event-string implementation).
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "{\"traceEvents\":[]}\n")
		return err
	}
	// Spans are copied, not referenced: a recorded span may still be
	// closed or annotated while the copy renders.
	t.mu.Lock()
	pages := make([][]Span, len(t.pages))
	for i, page := range t.pages {
		pages[i] = append([]Span(nil), page...)
	}
	nspans := t.nspans
	instants := append([]Instant(nil), t.instants...)
	t.mu.Unlock()
	span := func(i int32) *Span { return &pages[i>>spanPageShift][i&(spanPage-1)] }

	// Assign tids by sorted track name so the layout is stable. Each
	// span's and instant's track is looked up once, as an index in
	// first-seen order that becomes its tid once the names are sorted.
	trackIdx := map[string]int32{}
	var tracks []string
	intern := func(track string) int32 {
		i, ok := trackIdx[track]
		if !ok {
			i = int32(len(tracks))
			trackIdx[track] = i
			tracks = append(tracks, track)
		}
		return i
	}
	spanTid := make([]int32, nspans)
	for i := range spanTid {
		spanTid[i] = intern(span(int32(i)).Track)
	}
	instTid := make([]int32, len(instants))
	for i := range instants {
		instTid[i] = intern(instants[i].Track)
	}
	sort.Strings(tracks)
	tidOf := make([]int32, len(tracks))
	for i, name := range tracks {
		tidOf[trackIdx[name]] = int32(i + 1)
	}
	for i := range spanTid {
		spanTid[i] = tidOf[spanTid[i]]
	}
	for i := range instTid {
		instTid[i] = tidOf[instTid[i]]
	}

	// Flatten counter points; they carry no tracer seq, so they get
	// synthetic seqs past the tracer's maximum, in sorted-metric-name
	// order, keeping the total order deterministic.
	var maxSeq uint64
	for i := int32(0); int(i) < nspans; i++ {
		s := span(i)
		maxSeq = max(maxSeq, s.StartSeq, s.EndSeq)
	}
	for i := range instants {
		if instants[i].Seq > maxSeq {
			maxSeq = instants[i].Seq
		}
	}
	type cpoint struct {
		name string
		p    Point
	}
	var cpoints []cpoint
	reg := t.Registry()
	for _, name := range reg.Names() {
		for _, p := range reg.Lookup(name).Points() {
			cpoints = append(cpoints, cpoint{name, p})
		}
	}

	// One reference per output event; kind breaks the only (ts, seq) tie
	// that exists — an unclosed span exporting its "b" and "e" at the
	// same instant — with begin first, as the historical stable sort did.
	const (
		kindBegin = iota // "X" span or request-span "b"
		kindEnd          // request-span "e"
		kindInstant
		kindCounter
	)
	type evRef struct {
		ts   float64
		seq  uint64
		kind uint8
		idx  int32
	}
	events := make([]evRef, 0, 2*nspans+len(instants)+len(cpoints))
	for i := int32(0); int(i) < nspans; i++ {
		s := span(i)
		events = append(events, evRef{s.StartMS, s.StartSeq, kindBegin, i})
		if s.Cat == CatRequest {
			endMS, endSeq := s.EndMS, s.EndSeq
			if !s.Closed {
				// An unclosed span still exports (zero duration at its
				// start) so a malformed trace is visible, not silently
				// dropped; the invariant checker reports it as an error.
				endMS, endSeq = s.StartMS, s.StartSeq
			}
			events = append(events, evRef{endMS, endSeq, kindEnd, i})
		}
	}
	for i := range instants {
		events = append(events, evRef{instants[i].AtMS, instants[i].Seq, kindInstant, int32(i)})
	}
	seq := maxSeq
	for i := range cpoints {
		seq++
		events = append(events, evRef{cpoints[i].p.AtMS, seq, kindCounter, int32(i)})
	}
	slices.SortFunc(events, func(a, b evRef) int {
		if a.ts != b.ts {
			if a.ts < b.ts {
				return -1
			}
			return 1
		}
		if a.seq != b.seq {
			if a.seq < b.seq {
				return -1
			}
			return 1
		}
		return int(a.kind) - int(b.kind)
	})

	bw := bufio.NewWriterSize(w, 64<<10)
	buf := make([]byte, 0, 512) // reused scratch for one event body
	common := func(dst []byte, tid int32, atMS float64) []byte {
		dst = append(dst, `"ts":`...)
		dst = appendNum(dst, atMS*1000)
		dst = append(dst, `,"pid":1,"tid":`...)
		return strconv.AppendInt(dst, int64(tid), 10)
	}
	// args renders an event's attribute set (plus the optional terminal
	// reason, which participates as key "reason") as a key-sorted JSON
	// object. The scratch is reused across events, so attribute-free
	// traces render through the exact historical path and byte count.
	attrScratch := make([]Attr, 0, 8)
	args := func(dst []byte, attrs []Attr, reasonStr string) []byte {
		if len(attrs) == 0 && reasonStr == "" {
			return dst
		}
		attrScratch = append(attrScratch[:0], attrs...)
		if reasonStr != "" {
			attrScratch = append(attrScratch, S("reason", reasonStr))
		}
		// Insertion sort by key: attribute sets are tiny, and a stable
		// in-place sort keeps the writer allocation-free per event.
		for i := 1; i < len(attrScratch); i++ {
			for j := i; j > 0 && attrScratch[j].Key < attrScratch[j-1].Key; j-- {
				attrScratch[j], attrScratch[j-1] = attrScratch[j-1], attrScratch[j]
			}
		}
		dst = append(dst, `,"args":{`...)
		for i, a := range attrScratch {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendStr(dst, a.Key)
			dst = append(dst, ':')
			dst = a.appendValue(dst)
		}
		return append(dst, '}')
	}
	head := func(dst []byte, s *Span) []byte {
		dst = append(dst, `{"name":`...)
		dst = appendStr(dst, s.Name)
		dst = append(dst, `,"cat":`...)
		dst = appendStr(dst, s.Cat)
		return dst
	}

	// bufio.Writer latches its first error and every later write is a
	// no-op, so intermediate write errors are deliberately discarded and
	// the single Flush at the end reports whatever happened first.
	_, _ = bw.WriteString(`{"traceEvents":[`)
	_ = bw.WriteByte('\n')
	_, _ = bw.WriteString(`{"name":"process_name","ph":"M","pid":1,"args":{"name":"dataai"}}`)
	for i, name := range tracks {
		buf = append(buf[:0], ",\n"...)
		buf = append(buf, `{"name":"thread_name","ph":"M","pid":1,"tid":`...)
		buf = strconv.AppendInt(buf, int64(i+1), 10)
		buf = append(buf, `,"args":{"name":`...)
		buf = appendStr(buf, name)
		buf = append(buf, `}}`...)
		_, _ = bw.Write(buf)
	}
	for _, e := range events {
		buf = append(buf[:0], ",\n"...)
		switch e.kind {
		case kindBegin, kindEnd:
			s, tid := span(e.idx), spanTid[e.idx]
			endMS := s.EndMS
			if !s.Closed {
				endMS = s.StartMS
			}
			if s.Cat == CatRequest {
				buf = head(buf, s)
				buf = append(buf, `,"id":`...)
				buf = appendStr(buf, s.Track)
				buf = append(buf, ',')
				if e.kind == kindBegin {
					buf = append(buf, `"ph":"b",`...)
					buf = common(buf, tid, s.StartMS)
					buf = args(buf, s.Attrs, "")
					buf = append(buf, '}')
				} else {
					buf = append(buf, `"ph":"e",`...)
					buf = common(buf, tid, endMS)
					buf = args(buf, nil, s.Reason)
					buf = append(buf, '}')
				}
				break
			}
			buf = head(buf, s)
			buf = append(buf, `,"ph":"X",`...)
			buf = common(buf, tid, s.StartMS)
			buf = append(buf, `,"dur":`...)
			buf = appendNum(buf, (endMS-s.StartMS)*1000)
			buf = args(buf, s.Attrs, s.Reason)
			buf = append(buf, '}')
		case kindInstant:
			in := &instants[e.idx]
			buf = append(buf, `{"name":`...)
			buf = appendStr(buf, in.Name)
			buf = append(buf, `,"ph":"i","s":"t",`...)
			buf = common(buf, instTid[e.idx], in.AtMS)
			buf = args(buf, in.Attrs, "")
			buf = append(buf, '}')
		case kindCounter:
			c := &cpoints[e.idx]
			buf = append(buf, `{"name":`...)
			buf = appendStr(buf, c.name)
			buf = append(buf, `,"ph":"C","ts":`...)
			buf = appendNum(buf, c.p.AtMS*1000)
			buf = append(buf, `,"pid":1,"args":{"value":`...)
			buf = appendNum(buf, c.p.Value)
			buf = append(buf, `}}`...)
		}
		_, _ = bw.Write(buf)
	}
	_, _ = bw.WriteString("\n]}\n")
	return bw.Flush()
}

// appendNum renders a float in its shortest round-trip decimal form —
// stable across runs and platforms, unlike %g's exponent thresholds.
func appendNum(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'f', -1, 64)
}

// appendInt renders an integer in decimal.
func appendInt(dst []byte, v int64) []byte {
	return strconv.AppendInt(dst, v, 10)
}

// num is appendNum as a string (kept for tests and small call sites).
func num(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// appendStr renders s as a JSON string literal, byte-identical to
// json.Marshal. The fast path covers the printable-ASCII strings every
// track and metric name in this repo uses; anything needing escapes
// (quotes, control bytes, HTML-escaped <>&, non-ASCII) takes the
// json.Marshal fallback, which handles escaping subtleties (U+2028,
// invalid UTF-8) exactly as the historical implementation did.
func appendStr(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, err := json.Marshal(s)
			if err != nil {
				// Strings never fail to marshal; keep the checker honest.
				return append(dst, `""`...)
			}
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// str renders s as a JSON string literal.
func str(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `""`
	}
	return string(b)
}
