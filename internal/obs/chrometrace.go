package obs

import (
	"encoding/json"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"

	"dataai/internal/par"
)

// Export rendering unit: events are rendered in chunks of chromeChunk,
// chromeWindow chunks per worker at a time, and each window's chunks are
// written in order before the next window is merged.
const (
	chromeChunk  = 1024
	chromeWindow = 4
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
// WriteChrome copies the span pages under the tracer's lock, then orders
// and renders without it, so w never runs under the lock. Ordering is
// linear on a trace recorded in time order: the tracer's events are
// placed by seq, sorted (pdqsort only checks a run that is already in
// order), and merged with the counter series, which are time-sorted by
// construction. Rendering splits the ordered events into fixed chunks
// rendered on par.DefaultWorkers() goroutines; a chunk's bytes depend
// only on its events, so the file is the same at any worker count.
// TestWriteChromeMatchesReference and TestWriteChromeRandomized pin the
// bytes against the historical per-event-string implementation.
func (t *Tracer) WriteChrome(w io.Writer) error { return t.writeChrome(w, par.DefaultWorkers()) }

// evRef is one output event: kind says which record idx indexes (span,
// instant, or metric), and (ts, seq, kind) is its sort key. kind breaks
// the only (ts, seq) tie that exists — an unclosed span exporting its
// "b" and "e" at the same instant — with begin first, as the historical
// stable sort did.
type evRef struct {
	ts   float64
	seq  uint64
	kind uint8
	idx  int32
}

const (
	kindBegin   = iota + 1 // "X" span or request-span "b"
	kindEnd                // request-span "e"
	kindInstant            // "i"
	kindCounter            // "C"; idx is the metric, seq locates the point
)

// cmpEv orders events by (ts, seq, kind): a total order when no time is
// NaN, since no two events share (seq, kind).
func cmpEv(a, b evRef) int {
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
}

// chromeExport is one export's copy of the trace and its event order.
type chromeExport struct {
	pages    [][]Span
	instants []Instant
	spanTid  []int32
	instTid  []int32
	names    []string  // metric names, sorted
	series   [][]Point // series[m] is metric names[m]'s points
	base     []uint64  // seq of series[m]'s first point
	run      []evRef   // tracer events not yet merged, sorted
	heads    []evRef   // min-heap of each unfinished series' next point
}

func (x *chromeExport) span(i int32) *Span { return &x.pages[i>>spanPageShift][i&(spanPage-1)] }

func (t *Tracer) writeChrome(w io.Writer, workers int) error {
	if t == nil {
		_, err := io.WriteString(w, "{\"traceEvents\":[]}\n")
		return err
	}
	// Spans are copied, not referenced: a recorded span may still be
	// closed or annotated while the copy renders. Every seq up to t.seq
	// belongs to exactly one begin, end or instant in the copy.
	x := &chromeExport{}
	t.mu.Lock()
	x.pages = make([][]Span, len(t.pages))
	for i, page := range t.pages {
		x.pages[i] = append([]Span(nil), page...)
	}
	nspans, maxSeq := t.nspans, t.seq
	x.instants = append([]Instant(nil), t.instants...)
	t.mu.Unlock()

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
	x.spanTid = make([]int32, nspans)
	for i := range x.spanTid {
		x.spanTid[i] = intern(x.span(int32(i)).Track)
	}
	x.instTid = make([]int32, len(x.instants))
	for i := range x.instants {
		x.instTid[i] = intern(x.instants[i].Track)
	}
	sort.Strings(tracks)
	tidOf := make([]int32, len(tracks))
	for i, name := range tracks {
		tidOf[trackIdx[name]] = int32(i + 1)
	}
	for i := range x.spanTid {
		x.spanTid[i] = tidOf[x.spanTid[i]]
	}
	for i := range x.instTid {
		x.instTid[i] = tidOf[x.instTid[i]]
	}

	nev := x.order(nspans, maxSeq, t.Registry())
	nchunks := (nev + chromeChunk - 1) / chromeChunk
	rs := make([]chromeRenderer, max(1, min(chromeWindow*workers, nchunks)))
	for i := range rs {
		// A serving trace averages about 110 bytes an event.
		rs[i] = chromeRenderer{x: x, buf: make([]byte, 0, 128*min(nev, chromeChunk))}
	}

	var err error
	write := func(b []byte) {
		if err == nil {
			_, err = w.Write(b)
		}
	}
	buf := append(rs[0].buf[:0], `{"traceEvents":[`...)
	buf = append(buf, '\n')
	buf = append(buf, `{"name":"process_name","ph":"M","pid":1,"args":{"name":"dataai"}}`...)
	for i, name := range tracks {
		buf = append(buf, ",\n"...)
		buf = append(buf, `{"name":"thread_name","ph":"M","pid":1,"tid":`...)
		buf = strconv.AppendInt(buf, int64(i+1), 10)
		buf = append(buf, `,"args":{"name":`...)
		buf = appendStr(buf, name)
		buf = append(buf, `}}`...)
		if len(buf) >= 64<<10 { // a request per track makes this long
			write(buf)
			buf = buf[:0]
		}
	}
	write(buf)
	rs[0].buf = buf

	// Merging is serial and cheap; rendering a window's chunks fans out.
	// Chunk boundaries are fixed multiples of chromeChunk whatever the
	// worker count, and each renderer's timestamp memo restarts per chunk.
	win := make([]evRef, 0, len(rs)*chromeChunk)
	for done := 0; done < nev && err == nil; done += len(win) {
		win = x.fill(win[:0], min(cap(win), nev-done))
		n := (len(win) + chromeChunk - 1) / chromeChunk
		par.ForEach(n, workers, func(c int) {
			r := &rs[c]
			r.buf = r.chunk(r.buf[:0], win[c*chromeChunk:min((c+1)*chromeChunk, len(win))])
		})
		for c := 0; c < n; c++ {
			write(rs[c].buf)
		}
	}
	write(append(rs[0].buf[:0], "\n]}\n"...))
	return err
}

// order builds the export's event order and returns its length. The
// tracer's events are placed in (seq, kind) order: slot 2·seq holds a
// span's begin or an instant, slot 2·seq+1 a request span's end (an
// unclosed one ends at its start seq, after its begin). The run is
// sorted by (ts, seq, kind) — linear when it is already in time order,
// as it is for a producer on a monotone logical clock — and fill merges
// it with the counter series. Counter points carry no tracer seq, so
// they get synthetic seqs past the tracer's maximum, in
// sorted-metric-name order, keeping the total order deterministic.
func (x *chromeExport) order(nspans int, maxSeq uint64, reg *Registry) int {
	slot := make([]evRef, 2*maxSeq+2)
	for i := int32(0); int(i) < nspans; i++ {
		s := x.span(i)
		slot[2*s.StartSeq] = evRef{s.StartMS, s.StartSeq, kindBegin, i}
		if s.Cat == CatRequest {
			endMS, endSeq := s.EndMS, s.EndSeq
			if !s.Closed {
				// An unclosed span still exports (zero duration at its
				// start) so a malformed trace is visible, not silently
				// dropped; the invariant checker reports it as an error.
				endMS, endSeq = s.StartMS, s.StartSeq
			}
			slot[2*endSeq+1] = evRef{endMS, endSeq, kindEnd, i}
		}
	}
	for i := range x.instants {
		in := &x.instants[i]
		slot[2*in.Seq] = evRef{in.AtMS, in.Seq, kindInstant, int32(i)}
	}
	x.run = slot[:0]
	for _, e := range slot {
		if e.kind != 0 {
			x.run = append(x.run, e)
		}
	}
	slices.SortFunc(x.run, cmpEv)

	x.names = reg.Names()
	x.series = make([][]Point, len(x.names))
	x.base = make([]uint64, len(x.names))
	next := maxSeq + 1
	for m, name := range x.names {
		x.series[m] = reg.Lookup(name).Points()
		x.base[m] = next
		next += uint64(len(x.series[m]))
		if len(x.series[m]) > 0 {
			x.heads = append(x.heads, evRef{x.series[m][0].AtMS, x.base[m], kindCounter, int32(m)})
		}
	}
	for i := len(x.heads)/2 - 1; i >= 0; i-- {
		x.siftDown(i)
	}
	return len(x.run) + int(next-maxSeq-1)
}

// fill appends the next n events in export order to dst.
func (x *chromeExport) fill(dst []evRef, n int) []evRef {
	for ; n > 0; n-- {
		if len(x.heads) == 0 || len(x.run) > 0 && cmpEv(x.run[0], x.heads[0]) < 0 {
			dst = append(dst, x.run[0])
			x.run = x.run[1:]
			continue
		}
		top := x.heads[0]
		dst = append(dst, top)
		m := top.idx
		if j := top.seq + 1 - x.base[m]; j < uint64(len(x.series[m])) {
			x.heads[0] = evRef{x.series[m][j].AtMS, top.seq + 1, kindCounter, m}
		} else {
			last := len(x.heads) - 1
			x.heads[0] = x.heads[last]
			x.heads = x.heads[:last]
		}
		x.siftDown(0)
	}
	return dst
}

// siftDown restores the heads heap below node i.
func (x *chromeExport) siftDown(i int) {
	h := x.heads
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && cmpEv(h[c+1], h[c]) < 0 {
			c++
		}
		if cmpEv(h[c], h[i]) >= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// chromeRenderer renders chunks of events into buf. Each window slot
// owns one, so a renderer is never shared between goroutines.
type chromeRenderer struct {
	x     *chromeExport
	buf   []byte
	attrs []Attr // scratch for one event's sorted args
	// The last timestamp rendered in this chunk: its bits and its text,
	// buf[tsLo:tsHi]. 75% of a serving trace's timestamps repeat the one
	// before.
	tsSet      bool
	tsBits     uint64
	tsLo, tsHi int
}

// chunk appends the bodies of events, each preceded by ",\n", to dst.
func (r *chromeRenderer) chunk(dst []byte, events []evRef) []byte {
	r.tsSet = false
	x := r.x
	for _, e := range events {
		dst = append(dst, ",\n"...)
		switch e.kind {
		case kindBegin, kindEnd:
			s, tid := x.span(e.idx), x.spanTid[e.idx]
			endMS := s.EndMS
			if !s.Closed {
				endMS = s.StartMS
			}
			dst = append(dst, `{"name":`...)
			dst = appendStr(dst, s.Name)
			dst = append(dst, `,"cat":`...)
			dst = appendStr(dst, s.Cat)
			if s.Cat == CatRequest {
				dst = append(dst, `,"id":`...)
				dst = appendStr(dst, s.Track)
				if e.kind == kindBegin {
					dst = append(dst, `,"ph":"b",`...)
					dst = r.common(dst, tid, s.StartMS)
					dst = r.args(dst, s.Attrs, "")
				} else {
					dst = append(dst, `,"ph":"e",`...)
					dst = r.common(dst, tid, endMS)
					dst = r.args(dst, nil, s.Reason)
				}
				dst = append(dst, '}')
				break
			}
			dst = append(dst, `,"ph":"X",`...)
			dst = r.common(dst, tid, s.StartMS)
			dst = append(dst, `,"dur":`...)
			dst = appendNum(dst, (endMS-s.StartMS)*1000)
			dst = r.args(dst, s.Attrs, s.Reason)
			dst = append(dst, '}')
		case kindInstant:
			in := &x.instants[e.idx]
			dst = append(dst, `{"name":`...)
			dst = appendStr(dst, in.Name)
			dst = append(dst, `,"ph":"i","s":"t",`...)
			dst = r.common(dst, x.instTid[e.idx], in.AtMS)
			dst = r.args(dst, in.Attrs, "")
			dst = append(dst, '}')
		case kindCounter:
			p := x.series[e.idx][e.seq-x.base[e.idx]]
			dst = append(dst, `{"name":`...)
			dst = appendStr(dst, x.names[e.idx])
			dst = append(dst, `,"ph":"C",`...)
			dst = r.ts(dst, p.AtMS)
			dst = append(dst, `,"pid":1,"args":{"value":`...)
			dst = appendNum(dst, p.Value)
			dst = append(dst, `}}`...)
		}
	}
	return dst
}

func (r *chromeRenderer) common(dst []byte, tid int32, atMS float64) []byte {
	dst = r.ts(dst, atMS)
	dst = append(dst, `,"pid":1,"tid":`...)
	return strconv.AppendInt(dst, int64(tid), 10)
}

// ts renders the "ts" field, reusing the previous timestamp's text when
// its float bits repeat (so -0 after +0 is rendered anew).
func (r *chromeRenderer) ts(dst []byte, atMS float64) []byte {
	dst = append(dst, `"ts":`...)
	v := atMS * 1000
	bits := math.Float64bits(v)
	if r.tsSet && bits == r.tsBits {
		return append(dst, dst[r.tsLo:r.tsHi]...)
	}
	lo := len(dst)
	dst = appendNum(dst, v)
	r.tsSet, r.tsBits, r.tsLo, r.tsHi = true, bits, lo, len(dst)
	return dst
}

// args renders an event's attribute set (plus the optional terminal
// reason, which participates as key "reason") as a key-sorted JSON
// object. Attribute-free events render no args at all.
func (r *chromeRenderer) args(dst []byte, attrs []Attr, reasonStr string) []byte {
	if len(attrs) == 0 && reasonStr == "" {
		return dst
	}
	r.attrs = append(r.attrs[:0], attrs...)
	if reasonStr != "" {
		r.attrs = append(r.attrs, S("reason", reasonStr))
	}
	// Insertion sort by key: attribute sets are tiny, and a stable
	// in-place sort keeps the writer allocation-free per event.
	as := r.attrs
	for i := 1; i < len(as); i++ {
		for j := i; j > 0 && as[j].Key < as[j-1].Key; j-- {
			as[j], as[j-1] = as[j-1], as[j]
		}
	}
	dst = append(dst, `,"args":{`...)
	for i, a := range as {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendStr(dst, a.Key)
		dst = append(dst, ':')
		dst = a.appendValue(dst)
	}
	return append(dst, '}')
}

// appendNum renders a float in its shortest round-trip decimal form —
// stable across runs and platforms, unlike %g's exponent thresholds. An
// integer below 2^53 in magnitude has exactly its decimal digits as that
// form, so it skips the float formatter; -0, NaN and ±Inf do not.
func appendNum(dst []byte, v float64) []byte {
	if v > -(1<<53) && v < 1<<53 {
		//lint:ignore floateq exact integrality test: the conversion either round-trips or v has a fraction
		if i := int64(v); float64(i) == v && (i != 0 || !math.Signbit(v)) {
			return strconv.AppendInt(dst, i, 10)
		}
	}
	return strconv.AppendFloat(dst, v, 'f', -1, 64)
}

// appendInt renders an integer in decimal.
func appendInt(dst []byte, v int64) []byte {
	return strconv.AppendInt(dst, v, 10)
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
