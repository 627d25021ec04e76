package obs

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// checkReference is the historical Tracer.Check, verbatim: it copies
// every span (Spans), indexes them in a map by ID, and groups GPU tracks
// and request phases as per-key []Span lists. It is kept here as the
// oracle for the in-place Check: on any trace, both must return nil or
// the identical error (TestCheckMatchesReference).
func checkReference(t *Tracer) error {
	if t == nil {
		return nil
	}
	spans := t.Spans()

	byID := make(map[uint64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	gpuTop := map[string][]Span{}
	reqKids := map[uint64][]Span{}
	for _, s := range spans {
		if !s.Closed {
			return errf("span %d (%s %q on %s) never ended", s.ID, s.Cat, s.Name, s.Track)
		}
		if s.EndMS < s.StartMS {
			return errf("span %d (%q on %s) ends at %.3f before start %.3f",
				s.ID, s.Name, s.Track, s.EndMS, s.StartMS)
		}
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				return errf("span %d (%q on %s) references unknown parent %d",
					s.ID, s.Name, s.Track, s.Parent)
			}
			if s.Parent >= s.ID {
				return errf("span %d (%q on %s) opened before its parent %d",
					s.ID, s.Name, s.Track, s.Parent)
			}
			if s.StartMS < p.StartMS || s.EndMS > p.EndMS {
				return errf("span %d (%q on %s) [%.3f,%.3f] escapes parent %d (%q) [%.3f,%.3f]",
					s.ID, s.Name, s.Track, s.StartMS, s.EndMS, p.ID, p.Name, p.StartMS, p.EndMS)
			}
		}
		if s.Cat == CatGPU && s.Parent == 0 {
			gpuTop[s.Track] = append(gpuTop[s.Track], s)
		}
		if s.Cat == CatRequest && s.Parent != 0 {
			reqKids[s.Parent] = append(reqKids[s.Parent], s)
		}
		if s.Cat == CatRequest && s.Parent == 0 && !terminalReasons[s.Reason] {
			return errf("request span %d (%q on %s) ends with non-terminal reason %q",
				s.ID, s.Name, s.Track, s.Reason)
		}
	}

	gpuTracks := make([]string, 0, len(gpuTop))
	for track := range gpuTop {
		gpuTracks = append(gpuTracks, track)
	}
	sort.Strings(gpuTracks)
	for _, track := range gpuTracks {
		ss := gpuTop[track]
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].StartMS != ss[j].StartMS {
				return ss[i].StartMS < ss[j].StartMS
			}
			return ss[i].StartSeq < ss[j].StartSeq
		})
		for i := 1; i < len(ss); i++ {
			if ss[i].StartMS < ss[i-1].EndMS {
				return errf("track %s: span %d (%q) starting %.3f overlaps span %d (%q) ending %.3f",
					track, ss[i].ID, ss[i].Name, ss[i].StartMS,
					ss[i-1].ID, ss[i-1].Name, ss[i-1].EndMS)
			}
		}
	}

	roots := make([]uint64, 0, len(reqKids))
	for id := range reqKids {
		roots = append(roots, id)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, id := range roots {
		ss := reqKids[id]
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].StartMS != ss[j].StartMS {
				return ss[i].StartMS < ss[j].StartMS
			}
			return ss[i].StartSeq < ss[j].StartSeq
		})
		for i := 1; i < len(ss); i++ {
			if ss[i].StartMS < ss[i-1].EndMS {
				return errf("request root %d: phase %d (%q) starting %.3f overlaps phase %d (%q) ending %.3f — sequence resident in two places",
					id, ss[i].ID, ss[i].Name, ss[i].StartMS,
					ss[i-1].ID, ss[i-1].Name, ss[i-1].EndMS)
			}
		}
	}

	reg := t.Registry()
	for _, name := range reg.Names() {
		if !strings.HasSuffix(name, KVUsedSuffix) {
			continue
		}
		capName := strings.TrimSuffix(name, KVUsedSuffix) + KVCapacitySuffix
		capMetric := reg.Lookup(capName)
		if capMetric == nil {
			continue
		}
		if used, capacity := reg.Lookup(name).Max(), capMetric.Final(); used > capacity {
			return errf("gauge %s peaks at %.0f blocks, over capacity %.0f (%s)",
				name, used, capacity, capName)
		}
	}

	if dl := t.Decisions(); dl != nil {
		if err := checkDecisionsReference(spans, dl); err != nil {
			return err
		}
	}
	return nil
}

// checkDecisionsReference is the historical checkDecisions, verbatim.
func checkDecisionsReference(spans []Span, dl *DecisionLog) error {
	decs := dl.Decisions()

	// Spans annotated with a decision seq, one per decision.
	bySeq := make(map[uint64]Span, len(decs))
	for _, s := range spans {
		a, ok := s.Attr(DecisionSeqKey)
		if !ok {
			continue
		}
		seq := uint64(a.Int)
		if a.Int < 1 || seq > uint64(len(decs)) {
			return errf("span %d (%q on %s) references unknown decision %d (log has %d)",
				s.ID, s.Name, s.Track, a.Int, len(decs))
		}
		if dup, found := bySeq[seq]; found {
			return errf("decision %d annotates spans %d and %d — a decision delivers once",
				seq, dup.ID, s.ID)
		}
		bySeq[seq] = s
	}

	arrivals := map[string]int{}     // request → arrival decisions
	rootArrivals := map[uint64]int{} // request root span ID → arrival decisions
	for _, d := range decs {
		if len(d.Candidates) == 0 {
			return errf("decision %d (req %s) recorded no candidates", d.Seq, d.ReqID)
		}
		if d.Chosen < 0 || d.Chosen >= len(d.Candidates) {
			return errf("decision %d (req %s) chose instance %d of %d candidates",
				d.Seq, d.ReqID, d.Chosen, len(d.Candidates))
		}
		for _, c := range d.Candidates {
			if math.IsNaN(c.Score) || math.IsInf(c.Score, 0) {
				return errf("decision %d (req %s): candidate %d has non-finite score",
					d.Seq, d.ReqID, c.Instance)
			}
		}
		s, ok := bySeq[d.Seq]
		if !ok {
			return errf("decision %d (req %s) has no annotated span on the timeline", d.Seq, d.ReqID)
		}
		if !strings.HasSuffix(s.Track, "/"+d.ReqID) {
			return errf("decision %d routed req %s but annotates track %s", d.Seq, d.ReqID, s.Track)
		}
		if inst, ok := s.Attr(DecisionInstKey); !ok || int(inst.Int) != d.Chosen {
			return errf("decision %d (req %s) chose instance %d but span %d records a different delivery",
				d.Seq, d.ReqID, d.Chosen, s.ID)
		}
		if d.Kind == DecisionArrival {
			arrivals[d.ReqID]++
			if arrivals[d.ReqID] > 1 {
				return errf("req %s has %d arrival decisions — a request arrives once",
					d.ReqID, arrivals[d.ReqID])
			}
			rootArrivals[s.Parent]++
		}
	}

	// Every finished request root was routed exactly once: its phase
	// children carry exactly one arrival decision.
	for _, s := range spans {
		if s.Cat == CatRequest && s.Parent == 0 && s.Reason == "finish" && rootArrivals[s.ID] != 1 {
			return errf("finished request root %d (%s) has %d arrival decisions, want exactly 1",
				s.ID, s.Track, rootArrivals[s.ID])
		}
	}
	return nil
}

// errText renders a Check result for comparison: "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkMatchesReference runs Check and the historical checkReference on
// tr, fails the test unless they agree, and returns Check's result.
func checkMatchesReference(t *testing.T, tr *Tracer) error {
	t.Helper()
	got := tr.Check()
	if want := checkReference(tr); errText(got) != errText(want) {
		t.Errorf("Check = %q, reference = %q", errText(got), errText(want))
	}
	return got
}

// Trace corruptions simTrace can apply to one request.
const (
	mutOpenSpan       = "open span"
	mutChildEarly     = "child before parent"
	mutGPUOverlap     = "gpu overlap"
	mutPhaseOverlap   = "phase overlap"
	mutNoReason       = "no terminal reason"
	mutDupDecision    = "duplicated decision attr"
	mutDanglingDec    = "dangling decision attr"
	mutKVOverCapacity = "kv over capacity"
)

// simTrace records a serving-shaped trace over several span pages: n
// requests routed to 4 GPU tracks, each a root span with abutting
// queue → prefill → decode phases, the queue phase annotated with its
// arrival decision, and one prefill and one decode iteration span per
// request on its GPU track, never overlapping. KV-occupancy and
// queue-depth gauges move at every step, and every 50th request leaves
// a preempt instant. Spans are recorded request by request with future
// end times, so recording order is not time order. muts corrupts the
// requests it names, one corruption each.
func simTrace(n int, muts map[int]string) *Tracer {
	const gpus = 4
	tr := NewTracer()
	dl := NewDecisionLog()
	tr.AttachDecisions(dl)
	reg := tr.Registry()
	free := make([]float64, gpus)
	for g := 0; g < gpus; g++ {
		reg.Gauge(fmt.Sprintf("gpu%d%s", g, KVCapacitySuffix)).Set(0, 1000)
	}
	arrive := 0.0
	for i := 0; i < n; i++ {
		mut := muts[i]
		arrive += 0.25 + float64(i%7)*0.125
		id := fmt.Sprintf("r%d", i)
		track := "req/" + id
		g := i % gpus
		gpu := fmt.Sprintf("gpu%d", g)
		prevFree := free[g]
		start := max(arrive, prevFree)
		mid := start + 1.5 + float64(i%3)
		end := mid + 2 + float64(i%5)*0.75
		free[g] = end

		root := tr.Begin(arrive, track, CatRequest, "request", 0)
		qStart := arrive
		if mut == mutChildEarly {
			qStart = arrive - 0.5
		}
		q := tr.Begin(qStart, track, CatRequest, "queue", root)
		cands := make([]Candidate, gpus)
		for c := range cands {
			cands[c] = Candidate{Instance: c, QueueLoad: (i + c) % 9, Score: float64((c - g + gpus) % gpus)}
		}
		seq := dl.Record(Decision{AtMS: arrive, ReqID: id, Kind: DecisionArrival, Chosen: g, Candidates: cands})
		switch mut {
		case mutDupDecision:
			seq--
		case mutDanglingDec:
			seq += uint64(n)
		}
		tr.SpanAttrs(q, I(DecisionSeqKey, int64(seq)), I(DecisionInstKey, int64(g)))
		reg.Gauge(gpu+"/queue_depth").Set(arrive, float64(i%5))
		qEnd := start
		if mut == mutPhaseOverlap {
			qEnd = start + 0.5
		}
		tr.End(qEnd, q)

		pStart := start
		if mut == mutGPUOverlap {
			pStart = prevFree - 0.25
		}
		it := tr.Begin(pStart, gpu, CatGPU, "prefill", 0)
		tr.End(mid, it)
		p := tr.Begin(start, track, CatRequest, "prefill", root)
		used := float64(100 + i%400)
		if mut == mutKVOverCapacity {
			used = 1001
		}
		reg.Gauge(gpu+KVUsedSuffix).Set(start, used)
		tr.End(mid, p)
		it = tr.Begin(mid, gpu, CatGPU, "decode", 0)
		tr.End(end, it)
		d := tr.Begin(mid, track, CatRequest, "decode", root)
		if mut != mutOpenSpan {
			tr.End(end, d)
		}
		reg.Gauge(gpu+KVUsedSuffix).Set(end, float64(i%50))
		if i%50 == 0 {
			tr.Instant(mid, gpu, "preempt")
		}
		reason := "finish"
		if mut == mutNoReason {
			reason = ""
		}
		tr.EndReason(end, root, reason)
	}
	return tr
}

func TestCheckMatchesReference(t *testing.T) {
	const n = 3000 // 18,000 spans: eighteen pages
	clean := simTrace(n, nil)
	if err := checkMatchesReference(t, clean); err != nil {
		t.Fatalf("clean sim trace failed Check: %v", err)
	}
	if got := len(clean.Spans()); got <= 4*spanPage {
		t.Fatalf("sim trace has %d spans, want more than four pages", got)
	}
	kinds := []string{mutOpenSpan, mutChildEarly, mutGPUOverlap, mutPhaseOverlap,
		mutNoReason, mutDupDecision, mutDanglingDec, mutKVOverCapacity}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, kind := range kinds {
			target := gpusSkip + rng.Intn(n-gpusSkip)
			if checkMatchesReference(t, simTrace(n, map[int]string{target: kind})) == nil {
				t.Errorf("seed %d: %s at request %d passed Check", seed, kind, target)
			}
		}
		// Two corruptions, each caught by a different stage of Check and
		// the later stage's in the earlier request: the first violation
		// reported must be the same.
		for _, pair := range [][2]string{
			{mutNoReason, mutOpenSpan}, {mutPhaseOverlap, mutGPUOverlap},
			{mutKVOverCapacity, mutPhaseOverlap}, {mutDupDecision, mutKVOverCapacity},
			{mutDanglingDec, mutChildEarly},
		} {
			muts := map[int]string{gpusSkip + rng.Intn(n/2-gpusSkip): pair[0], n/2 + rng.Intn(n/2): pair[1]}
			if checkMatchesReference(t, simTrace(n, muts)) == nil {
				t.Errorf("seed %d: corruptions %v passed Check", seed, muts)
			}
		}
	}
}

// gpusSkip keeps corruptions off the first request on each GPU track,
// whose iteration spans have no predecessor to overlap.
const gpusSkip = 4
