// Package dataprep implements the Data Preparation stage of Data4LLM
// (§2.3.2): discovery (domain mixture), selection (coresets, perplexity),
// and cleaning (quality filtering, toxicity filtering, deduplication).
// Each sub-area follows the specific techniques the paper cites; see the
// per-file comments.
package dataprep

import (
	"errors"
	"fmt"
	"strings"

	"dataai/internal/par"
	"dataai/internal/token"
)

// ErrNoDocs indicates an operation over an empty document list.
var ErrNoDocs = errors.New("dataprep: no documents")

// Filter decides whether a document is kept. Implementations must be
// safe for concurrent use: ApplyFilters calls Keep on several documents
// at once. Every filter in this package is read-only once built.
type Filter interface {
	// Keep reports whether text passes the filter. Reason describes a
	// rejection (empty when kept).
	Keep(text string) (keep bool, reason string)
	// Name identifies the filter in reports.
	Name() string
}

// HeuristicFilter applies the rule-based quality checks production
// pipelines use ([41, 46]): length bounds, repetition ratio, and a
// minimum fraction of "common" words drawn from a reference vocabulary.
type HeuristicFilter struct {
	// MinTokens and MaxTokens bound document length (0 = unbounded max).
	MinTokens int
	MaxTokens int
	// MaxRepetitionRatio caps the frequency share of the single most
	// common token (gibberish and boilerplate repeat heavily).
	MaxRepetitionRatio float64
	// MinDistinctRatio requires distinct/total tokens above a floor.
	MinDistinctRatio float64
	// RequireSentencePunct demands at least one sentence terminator —
	// the C4 rule [46] that drops non-prose text (gibberish streams,
	// menus, code dumps rarely end sentences).
	RequireSentencePunct bool
}

// DefaultHeuristicFilter returns the configuration used by the E8
// experiment.
func DefaultHeuristicFilter() HeuristicFilter {
	return HeuristicFilter{
		MinTokens:            8,
		MaxTokens:            100000,
		MaxRepetitionRatio:   0.25,
		MinDistinctRatio:     0.3,
		RequireSentencePunct: true,
	}
}

// Name implements Filter.
func (h HeuristicFilter) Name() string { return "heuristic" }

// Keep implements Filter.
func (h HeuristicFilter) Keep(text string) (bool, string) {
	toks := token.Tokenize(text)
	n := len(toks)
	if n < h.MinTokens {
		return false, fmt.Sprintf("too short: %d < %d tokens", n, h.MinTokens)
	}
	if h.MaxTokens > 0 && n > h.MaxTokens {
		return false, fmt.Sprintf("too long: %d > %d tokens", n, h.MaxTokens)
	}
	freq := token.Frequencies(toks)
	maxCount := 0
	for _, c := range freq {
		if c > maxCount {
			maxCount = c
		}
	}
	if h.MaxRepetitionRatio > 0 && float64(maxCount)/float64(n) > h.MaxRepetitionRatio {
		return false, "excessive repetition"
	}
	if h.MinDistinctRatio > 0 && float64(len(freq))/float64(n) < h.MinDistinctRatio {
		return false, "low vocabulary diversity"
	}
	if h.RequireSentencePunct && !strings.ContainsAny(text, ".!?") {
		return false, "no sentence punctuation"
	}
	return true, ""
}

// ToxicityFilter rejects documents containing lexicon terms — the
// heuristic rule-based toxic filtering of [30, 46].
type ToxicityFilter struct {
	Lexicon []string
}

// Name implements Filter.
func (t ToxicityFilter) Name() string { return "toxicity" }

// Keep implements Filter.
func (t ToxicityFilter) Keep(text string) (bool, string) {
	lower := strings.ToLower(text)
	for _, w := range t.Lexicon {
		if strings.Contains(lower, strings.ToLower(w)) {
			return false, "toxic term: " + w
		}
	}
	return true, ""
}

// FilterReport tallies one cleaning pass.
type FilterReport struct {
	Kept    int
	Dropped int
	// ByReason counts rejections per "<filter>: <reason>" string prefix
	// (filter name only, to keep cardinality bounded).
	ByFilter map[string]int
}

// ApplyFilters runs docs through filters in order (cheap rules first by
// convention) and returns the surviving texts with a report.
func ApplyFilters(docs []string, filters ...Filter) ([]string, FilterReport) {
	return applyFilters(docs, par.DefaultWorkers(), filters...)
}

// applyFilters is ApplyFilters on up to workers goroutines. Which filter
// first rejects a document depends on that document alone, so each
// document's is found in parallel; the tally then walks the documents
// in order, so the kept texts and the report match a serial pass at any
// worker count.
func applyFilters(docs []string, workers int, filters ...Filter) ([]string, FilterReport) {
	rejectedBy := par.Map(len(docs), workers, func(i int) int {
		for j, f := range filters {
			if ok, _ := f.Keep(docs[i]); !ok {
				return j
			}
		}
		return -1
	})
	rep := FilterReport{ByFilter: make(map[string]int)}
	var kept []string
	for i, j := range rejectedBy {
		if j >= 0 {
			rep.Dropped++
			rep.ByFilter[filters[j].Name()]++
			continue
		}
		kept = append(kept, docs[i])
		rep.Kept++
	}
	return kept, rep
}
