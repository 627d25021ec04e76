// Package extract implements schema extraction from semi-structured
// documents (§2.2.2 "Schema Extraction"), contrasting the two strategies
// the paper describes:
//
//   - Direct: call the LLM once per (record, attribute). Accurate but the
//     cost scales with collection size — the paper calls complete reliance
//     on LLMs for extraction "huge and unaffordable".
//   - Evaporate [7]: spend LLM calls only on a small sample — use it to
//     synthesize and validate cheap rule-based extraction functions, then
//     run those functions over the whole collection and combine their
//     outputs by accuracy-weighted vote (weak supervision). Cost is O(k)
//     in sample size instead of O(n) in collection size.
//
// Experiment E3 regenerates the cost/quality comparison.
package extract

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strings"

	"dataai/internal/corpus"
	"dataai/internal/llm"
)

// ErrNoRecords indicates an empty record set.
var ErrNoRecords = errors.New("extract: no records")

// Results holds per-record extracted attribute values plus cost accounting.
type Results struct {
	// Values maps record ID -> attribute -> extracted value.
	Values map[string]map[string]string
	// LLMCalls and CostUSD meter the model usage behind the extraction.
	LLMCalls int
	CostUSD  float64
	// Degraded counts responses a resilience policy produced after the
	// primary model path failed; zero with an unwrapped client.
	Degraded int
}

// Direct extracts every (record, attribute) pair with one LLM call.
type Direct struct {
	Client llm.Client
}

// Extract returns the value of every attribute of every record.
func (d Direct) Extract(rs *corpus.RecordSet) (*Results, error) {
	if len(rs.Records) == 0 {
		return nil, ErrNoRecords
	}
	out := &Results{}
	var err error
	if out.Values, err = out.label(d.Client, rs.Records, rs.Attributes, "direct"); err != nil {
		return nil, err
	}
	return out, nil
}

// label extracts every attribute of every record in recs with one LLM
// call per pair, returning the known values by record ID and attribute
// and metering the calls in res. An error names the failing pair after
// stage, the caller's name in error messages.
func (res *Results) label(c llm.Client, recs []corpus.Record, attrs []string, stage string) (map[string]map[string]string, error) {
	labels := make(map[string]map[string]string, len(recs))
	for _, rec := range recs {
		vals := make(map[string]string, len(attrs))
		for _, attr := range attrs {
			resp, err := c.Complete(llm.Request{Prompt: llm.ExtractPrompt(attr, rec.Text)})
			if err != nil {
				return nil, fmt.Errorf("extract: %s %s/%s: %w", stage, rec.ID, attr, err)
			}
			res.LLMCalls++
			if resp.Degraded {
				res.Degraded++
			}
			res.CostUSD += resp.CostUSD
			if !llm.IsUnknown(resp.Text) {
				vals[attr] = resp.Text
			}
		}
		labels[rec.ID] = vals
	}
	return labels, nil
}

// candidateFn is a synthesized rule-based extraction function.
type candidateFn struct {
	fn func(text, attr string) string
	// weight is the function's measured accuracy on the labeled sample.
	weight float64
}

// The candidate pool Evaporate "synthesizes". In the real system the LLM
// writes these as Python snippets from sample documents; here they are the
// layout conventions semi-structured collections actually follow, plus a
// deliberately weak heuristic so that vote weighting has work to do.
func candidatePool() []candidateFn {
	return []candidateFn{
		{fn: func(text, attr string) string {
			return firstMatch(text, regexp.MustCompile(`(?mi)^`+regexp.QuoteMeta(attr)+`\s*:\s*(.+)$`))
		}},
		{fn: func(text, attr string) string {
			return firstMatch(text, regexp.MustCompile(`(?mi)^`+regexp.QuoteMeta(attr)+`\s*=\s*(.+)$`))
		}},
		{fn: func(text, attr string) string {
			return firstMatch(text, regexp.MustCompile(`(?i)the `+regexp.QuoteMeta(attr)+` is ([^.\n]+)`))
		}},
		{fn: func(text, attr string) string {
			// Weak heuristic: the token following the attribute word.
			fields := strings.Fields(text)
			for i, f := range fields {
				if strings.EqualFold(strings.Trim(f, ":=."), attr) && i+1 < len(fields) {
					return strings.Trim(fields[i+1], ":=.")
				}
			}
			return ""
		}},
	}
}

func firstMatch(text string, re *regexp.Regexp) string {
	m := re.FindStringSubmatch(text)
	if m == nil {
		return ""
	}
	return strings.TrimSpace(m[1])
}

// Evaporate synthesizes extraction functions on a sample and applies them
// collection-wide with accuracy-weighted voting.
type Evaporate struct {
	Client llm.Client
	// SampleSize is how many records receive direct LLM extraction to
	// label the sample (default 10).
	SampleSize int
}

// minAccuracy prunes Evaporate's candidate functions scoring below it
// on the labeled sample.
const minAccuracy = 0.3

// Extract returns the value of every attribute of every record.
func (e Evaporate) Extract(rs *corpus.RecordSet) (*Results, error) {
	if len(rs.Records) == 0 {
		return nil, ErrNoRecords
	}
	sampleSize := e.SampleSize
	if sampleSize <= 0 {
		sampleSize = 10
	}
	if sampleSize > len(rs.Records) {
		sampleSize = len(rs.Records)
	}
	out := &Results{Values: make(map[string]map[string]string, len(rs.Records))}

	// Phase 1: label a sample with the LLM (the only model spending).
	sample := rs.Records[:sampleSize]
	labels, err := out.label(e.Client, sample, rs.Attributes, "evaporate sample")
	if err != nil {
		return nil, err
	}

	// Phase 2: score candidate functions against the sample labels.
	// Functions abstain by returning ""; they are scored on precision
	// when they fire (labeling-function semantics), not on coverage —
	// a colon-format extractor is not wrong about equals-format records,
	// it is silent about them.
	cands := candidatePool()
	var kept []candidateFn
	for _, c := range cands {
		agree, fired := 0, 0
		for _, rec := range sample {
			for _, attr := range rs.Attributes {
				want, ok := labels[rec.ID][attr]
				if !ok {
					continue
				}
				got := c.fn(rec.Text, attr)
				if got == "" {
					continue
				}
				fired++
				if got == want {
					agree++
				}
			}
		}
		if fired == 0 {
			continue
		}
		c.weight = float64(agree) / float64(fired)
		if c.weight >= minAccuracy {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		// No function generalized: fall back to the weak-supervision-free
		// answer of running every candidate unweighted.
		kept = candidatePool()
		for i := range kept {
			kept[i].weight = 1
		}
	}

	// Phase 3: apply kept functions everywhere, combine by weighted vote.
	for _, rec := range rs.Records {
		vals := make(map[string]string, len(rs.Attributes))
		for _, attr := range rs.Attributes {
			votes := make(map[string]float64)
			for _, c := range kept {
				if v := c.fn(rec.Text, attr); v != "" {
					votes[v] += c.weight
				}
			}
			if best := argmaxVote(votes); best != "" {
				vals[attr] = best
			}
		}
		out.Values[rec.ID] = vals
	}
	return out, nil
}

// argmaxVote returns the highest-weighted value, ties broken
// lexicographically for determinism.
func argmaxVote(votes map[string]float64) string {
	keys := make([]string, 0, len(votes))
	for v := range votes {
		keys = append(keys, v)
	}
	sort.Strings(keys)
	best, bestW := "", -1.0
	for _, v := range keys {
		if votes[v] > bestW {
			best, bestW = v, votes[v]
		}
	}
	return best
}

// Accuracy scores extracted values against a record set's gold labels:
// the fraction of (record, attribute) pairs whose extraction matches.
func Accuracy(rs *corpus.RecordSet, res *Results) float64 {
	total, right := 0, 0
	for _, rec := range rs.Records {
		for _, attr := range rs.Attributes {
			total++
			if res.Values[rec.ID][attr] == rec.Gold[attr] {
				right++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(right) / float64(total)
}
