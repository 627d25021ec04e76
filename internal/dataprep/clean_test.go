package dataprep

import (
	"reflect"
	"strings"
	"testing"

	"dataai/internal/corpus"
	"dataai/internal/embed"
)

func testCorpus(t *testing.T, seed int64) *corpus.Corpus {
	t.Helper()
	gen, err := corpus.NewGenerator(corpus.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return gen.Generate()
}

func TestHeuristicFilterRules(t *testing.T) {
	f := DefaultHeuristicFilter()
	cases := []struct {
		text string
		keep bool
	}{
		{"short", false}, // too few tokens
		{"a perfectly normal sentence with enough distinct words to pass all checks.", true},
		{strings.Repeat("spam ", 50), false},                                 // repetition
		{"zzqab zzqcd zzqef zzqgh zzqij zzqkl zzqmn zzqop zzqqr", false},     // gibberish: no sentence punctuation
		{"one two three four five six seven eight nine ten and done.", true}, // diverse, punctuated
	}
	for _, c := range cases {
		keep, reason := f.Keep(c.text)
		if keep != c.keep {
			t.Errorf("Keep(%.30q) = %v (%s), want %v", c.text, keep, reason, c.keep)
		}
	}
}

func TestHeuristicFilterMaxTokens(t *testing.T) {
	f := HeuristicFilter{MinTokens: 1, MaxTokens: 5}
	if keep, _ := f.Keep("one two three four five six"); keep {
		t.Error("over-long doc kept")
	}
}

func TestToxicityFilter(t *testing.T) {
	f := ToxicityFilter{Lexicon: []string{"grubflark"}}
	if keep, _ := f.Keep("contains the word Grubflark here"); keep {
		t.Error("toxic doc kept (case-insensitive match expected)")
	}
	if keep, _ := f.Keep("perfectly fine text"); !keep {
		t.Error("clean doc dropped")
	}
}

func TestApplyFiltersReport(t *testing.T) {
	c := testCorpus(t, 43)
	docs := c.Texts()
	kept, rep := ApplyFilters(docs,
		DefaultHeuristicFilter(),
		ToxicityFilter{Lexicon: c.ToxicLexicon},
	)
	if rep.Kept+rep.Dropped != len(docs) {
		t.Errorf("report counts %d+%d != %d", rep.Kept, rep.Dropped, len(docs))
	}
	if len(kept) != rep.Kept {
		t.Errorf("kept mismatch %d vs %d", len(kept), rep.Kept)
	}
	// Every toxic doc must be gone.
	for _, d := range kept {
		for _, w := range c.ToxicLexicon {
			if strings.Contains(d, w) {
				t.Fatalf("toxic doc survived filtering")
			}
		}
	}
	if rep.ByFilter["toxicity"] == 0 {
		t.Error("toxicity filter fired zero times on a corpus with toxic docs")
	}
	if rep.ByFilter["heuristic"] == 0 {
		t.Error("heuristic filter fired zero times on a corpus with noisy docs")
	}
}

func TestFilteringImprovesModelQuality(t *testing.T) {
	// The E8 claim in miniature: training on filtered data yields lower
	// held-out perplexity per training token than training on raw data.
	c := testCorpus(t, 47)
	var heldOut []string
	var raw []string
	cleanSeen := 0
	for _, d := range c.Docs {
		if d.Kind == corpus.Clean && cleanSeen < 60 {
			heldOut = append(heldOut, d.Text)
			cleanSeen++
			continue
		}
		raw = append(raw, d.Text)
	}
	filtered, _ := ApplyFilters(raw, DefaultHeuristicFilter(), ToxicityFilter{Lexicon: c.ToxicLexicon})

	ppRaw := trainAndScore(t, raw, heldOut)
	ppFiltered := trainAndScore(t, filtered, heldOut)
	if ppFiltered >= ppRaw {
		t.Errorf("filtered ppl %v >= raw %v", ppFiltered, ppRaw)
	}
}

// applyFiltersReference is ApplyFilters as a serial loop, as the package
// shipped it before the filters ran on several goroutines. It is the
// oracle for TestApplyFiltersMatchesSerial.
func applyFiltersReference(docs []string, filters ...Filter) ([]string, FilterReport) {
	rep := FilterReport{ByFilter: make(map[string]int)}
	var kept []string
outer:
	for _, d := range docs {
		for _, f := range filters {
			if ok, _ := f.Keep(d); !ok {
				rep.Dropped++
				rep.ByFilter[f.Name()]++
				continue outer
			}
		}
		kept = append(kept, d)
		rep.Kept++
	}
	return kept, rep
}

// TestApplyFiltersMatchesSerial compares the kept texts and the whole
// FilterReport of applyFilters at 1, 2 and 8 workers with the serial
// loop, for the package's three filters alone, chained in two orders,
// and for no filter and no document.
func TestApplyFiltersMatchesSerial(t *testing.T) {
	c := testCorpus(t, 97)
	docs := c.Texts()
	var clean, noisy []string
	for _, d := range c.Docs {
		switch d.Kind {
		case corpus.Clean:
			clean = append(clean, d.Text)
		case corpus.Noisy, corpus.Boilerplate:
			noisy = append(noisy, d.Text)
		}
	}
	classifier, err := FitClassifierFilter(embed.NewHashEmbedder(embed.DefaultDim), clean[:60], noisy[:15])
	if err != nil {
		t.Fatal(err)
	}
	heuristic, toxicity := DefaultHeuristicFilter(), ToxicityFilter{Lexicon: c.ToxicLexicon}
	chains := [][]Filter{
		{heuristic}, {toxicity}, {classifier},
		{heuristic, toxicity, classifier},
		{classifier, toxicity, heuristic},
		nil,
	}
	for ci, chain := range chains {
		for _, in := range [][]string{docs, nil} {
			wantKept, wantRep := applyFiltersReference(in, chain...)
			if len(chain) == 1 && len(in) > 0 && (wantRep.Dropped == 0 || wantRep.Kept == 0) {
				t.Fatalf("chain %d: %s kept %d and dropped %d; the comparison is vacuous",
					ci, chain[0].Name(), wantRep.Kept, wantRep.Dropped)
			}
			for _, workers := range []int{1, 2, 8} {
				kept, rep := applyFilters(in, workers, chain...)
				if !reflect.DeepEqual(kept, wantKept) || !reflect.DeepEqual(rep, wantRep) {
					t.Errorf("chain %d, %d docs, %d workers: kept %d %+v, serial kept %d %+v",
						ci, len(in), workers, len(kept), rep, len(wantKept), wantRep)
				}
			}
		}
	}
}
