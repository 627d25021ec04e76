package obs

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
)

// Registry metric-name suffixes the checker pairs up: a gauge named
// "<instance>/kv_used_blocks" is checked against the fixed gauge
// "<instance>/kv_capacity_blocks".
const (
	KVUsedSuffix     = "/kv_used_blocks"
	KVCapacitySuffix = "/kv_capacity_blocks"
)

// Span attribute keys the decision invariants pair with an attached
// DecisionLog: a span carrying DecisionSeqKey is the queue phase a
// routing decision delivered, and its DecisionInstKey value is the
// instance that decision chose.
const (
	DecisionSeqKey  = "decision"
	DecisionInstKey = "inst"
)

// Terminal reasons a request-root span may close with. "finish" is a
// completed request, "reject" an admission/drain rejection, "drop" a
// request abandoned by a fault. Anything else (including an empty
// reason) means the lifecycle chain was left dangling.
var terminalReasons = map[string]bool{"finish": true, "reject": true, "drop": true}

// Check verifies the trace's structural invariants and returns the first
// violation found (nil if the trace is well-formed, and trivially nil on
// a nil tracer). Invariants:
//
//   - every span is closed, with end >= start;
//   - parents exist, were opened before their children, and contain
//     their children's intervals;
//   - top-level spans on a GPU track never overlap (an instance executes
//     one iteration at a time);
//   - every request-root span (cat "request", no parent) terminates with
//     a terminal reason — a crashed request's chain must still end in
//     finish, reject, or drop, never dangle;
//   - lifecycle phases under one request root never overlap: a sequence
//     is resident in one place at a time, so a migrated or re-routed
//     session's spans on its source and destination instances must
//     abut, never coincide (double residency would mean the same GPU
//     state was live in two places);
//   - no "<x>/kv_used_blocks" gauge ever exceeds the final value of its
//     "<x>/kv_capacity_blocks" gauge;
//   - when a DecisionLog is attached (AttachDecisions), the decisions
//     and the timeline agree: every decision annotates exactly one
//     span (attrs "decision"/"inst"), on the deciding request's track,
//     whose "inst" attr matches the chosen instance; every candidate
//     score is finite; no request gets more than one arrival decision;
//     and every finished request root has exactly one — a routed
//     (non-rejected) request was decided exactly once.
//
// Tests call this on whole simulation runs, turning the timeline itself
// into an assertion rather than spot-checking a few aggregates.
//
// Check reads the spans and the attached log in place, holding the
// tracer's lock (and then the log's) for its whole run, so recording
// blocks while it checks. It copies no span: GPU tracks and request
// phases are lists of span indices.
func (t *Tracer) Check() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.nspans

	// Span IDs are dense (span i has ID i+1), so a parent ID indexes the
	// pages directly. Request phases are grouped by parent with one
	// counting pass: first[p+1] counts parent p's phases, and the prefix
	// sums below turn the counts into offsets into phases.
	gpuTop := map[string][]int32{}
	first := make([]int32, n+1)
	for i := 0; i < n; i++ {
		s := t.at(i)
		if !s.Closed {
			return errf("span %d (%s %q on %s) never ended", s.ID, s.Cat, s.Name, s.Track)
		}
		if s.EndMS < s.StartMS {
			return errf("span %d (%q on %s) ends at %.3f before start %.3f",
				s.ID, s.Name, s.Track, s.EndMS, s.StartMS)
		}
		if s.Parent != 0 {
			if s.Parent > uint64(n) {
				return errf("span %d (%q on %s) references unknown parent %d",
					s.ID, s.Name, s.Track, s.Parent)
			}
			if s.Parent >= s.ID {
				return errf("span %d (%q on %s) opened before its parent %d",
					s.ID, s.Name, s.Track, s.Parent)
			}
			p := t.at(int(s.Parent - 1))
			if s.StartMS < p.StartMS || s.EndMS > p.EndMS {
				return errf("span %d (%q on %s) [%.3f,%.3f] escapes parent %d (%q) [%.3f,%.3f]",
					s.ID, s.Name, s.Track, s.StartMS, s.EndMS, p.ID, p.Name, p.StartMS, p.EndMS)
			}
		}
		if s.Cat == CatGPU && s.Parent == 0 {
			gpuTop[s.Track] = append(gpuTop[s.Track], int32(i))
		}
		if s.Cat == CatRequest && s.Parent != 0 {
			first[s.Parent+1]++
		}
		if s.Cat == CatRequest && s.Parent == 0 && !terminalReasons[s.Reason] {
			return errf("request span %d (%q on %s) ends with non-terminal reason %q",
				s.ID, s.Name, s.Track, s.Reason)
		}
	}

	// byStart orders span indices by (start, start seq); seqs are unique,
	// so the order is total.
	byStart := func(a, b int32) int {
		sa, sb := t.at(int(a)), t.at(int(b))
		if sa.StartMS != sb.StartMS {
			if sa.StartMS < sb.StartMS {
				return -1
			}
			return 1
		}
		return cmp.Compare(sa.StartSeq, sb.StartSeq)
	}

	gpuTracks := make([]string, 0, len(gpuTop))
	for track := range gpuTop {
		gpuTracks = append(gpuTracks, track)
	}
	sort.Strings(gpuTracks)
	for _, track := range gpuTracks {
		ss := gpuTop[track]
		slices.SortFunc(ss, byStart)
		for i := 1; i < len(ss); i++ {
			cur, prev := t.at(int(ss[i])), t.at(int(ss[i-1]))
			if cur.StartMS < prev.EndMS {
				return errf("track %s: span %d (%q) starting %.3f overlaps span %d (%q) ending %.3f",
					track, cur.ID, cur.Name, cur.StartMS,
					prev.ID, prev.Name, prev.EndMS)
			}
		}
	}

	// After the prefix sums first[p] is where parent p's phases start;
	// placing each phase advances first[p], leaving phases of p in
	// phases[first[p-1]:first[p]], in recording order.
	for p := 1; p <= n; p++ {
		first[p] += first[p-1]
	}
	phases := make([]int32, first[n])
	for i := 0; i < n; i++ {
		if s := t.at(i); s.Cat == CatRequest && s.Parent != 0 {
			phases[first[s.Parent]] = int32(i)
			first[s.Parent]++
		}
	}
	for id := 1; id < n; id++ {
		ss := phases[first[id-1]:first[id]]
		if len(ss) < 2 {
			continue
		}
		slices.SortFunc(ss, byStart)
		for i := 1; i < len(ss); i++ {
			cur, prev := t.at(int(ss[i])), t.at(int(ss[i-1]))
			if cur.StartMS < prev.EndMS {
				return errf("request root %d: phase %d (%q) starting %.3f overlaps phase %d (%q) ending %.3f — sequence resident in two places",
					id, cur.ID, cur.Name, cur.StartMS,
					prev.ID, prev.Name, prev.EndMS)
			}
		}
	}

	reg := t.reg
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

	if t.dlog != nil {
		return t.checkDecisions(t.dlog)
	}
	return nil
}

// checkDecisions verifies an attached DecisionLog against the span
// timeline (the decision invariants listed on Check). The caller holds
// t.mu; the log is read in place under its own lock.
func (t *Tracer) checkDecisions(dl *DecisionLog) error {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	decs := dl.decs
	n := t.nspans

	// Spans annotated with a decision seq, one per decision: bySeq[seq]
	// is 1 + the annotated span's index (0 = none).
	bySeq := make([]int32, len(decs)+1)
	for i := 0; i < n; i++ {
		s := t.at(i)
		a, ok := findAttr(s.Attrs, DecisionSeqKey)
		if !ok {
			continue
		}
		seq := uint64(a.Int)
		if a.Int < 1 || seq > uint64(len(decs)) {
			return errf("span %d (%q on %s) references unknown decision %d (log has %d)",
				s.ID, s.Name, s.Track, a.Int, len(decs))
		}
		if dup := bySeq[seq]; dup != 0 {
			return errf("decision %d annotates spans %d and %d — a decision delivers once",
				seq, t.at(int(dup-1)).ID, s.ID)
		}
		bySeq[seq] = int32(i + 1)
	}

	arrivals := map[string]int{}       // request → arrival decisions
	rootArrivals := make([]int32, n+1) // request root span ID → arrival decisions
	for i := range decs {
		d := &decs[i]
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
		si := bySeq[d.Seq]
		if si == 0 {
			return errf("decision %d (req %s) has no annotated span on the timeline", d.Seq, d.ReqID)
		}
		s := t.at(int(si - 1))
		if !hasReqSuffix(s.Track, d.ReqID) {
			return errf("decision %d routed req %s but annotates track %s", d.Seq, d.ReqID, s.Track)
		}
		if inst, ok := findAttr(s.Attrs, DecisionInstKey); !ok || int(inst.Int) != d.Chosen {
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
	for i := 0; i < n; i++ {
		s := t.at(i)
		if s.Cat == CatRequest && s.Parent == 0 && s.Reason == "finish" && rootArrivals[s.ID] != 1 {
			return errf("finished request root %d (%s) has %d arrival decisions, want exactly 1",
				s.ID, s.Track, rootArrivals[s.ID])
		}
	}
	return nil
}

// hasReqSuffix reports whether track ends in "/"+reqID, without building
// that string.
func hasReqSuffix(track, reqID string) bool {
	k := len(track) - len(reqID)
	return k > 0 && track[k-1] == '/' && track[k:] == reqID
}
