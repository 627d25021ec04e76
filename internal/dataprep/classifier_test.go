package dataprep

import (
	"testing"

	"dataai/internal/corpus"
	"dataai/internal/embed"
)

func classifierFixture(t *testing.T) (good, bad, testGood, testBad []string) {
	t.Helper()
	c := testCorpus(t, 89)
	for _, d := range c.Docs {
		switch d.Kind {
		case corpus.Clean:
			if len(good) < 60 {
				good = append(good, d.Text)
			} else if len(testGood) < 60 {
				testGood = append(testGood, d.Text)
			}
		case corpus.Noisy, corpus.Boilerplate:
			if len(bad) < 15 {
				bad = append(bad, d.Text)
			} else {
				testBad = append(testBad, d.Text)
			}
		}
	}
	if len(bad) < 5 || len(testBad) < 5 {
		t.Skip("not enough bad docs in corpus")
	}
	return good, bad, testGood, testBad
}

func TestClassifierFilterSeparates(t *testing.T) {
	good, bad, testGood, testBad := classifierFixture(t)
	f, err := FitClassifierFilter(embed.NewHashEmbedder(embed.DefaultDim), good, bad)
	if err != nil {
		t.Fatal(err)
	}
	keptGood := 0
	for _, d := range testGood {
		if ok, _ := f.Keep(d); ok {
			keptGood++
		}
	}
	droppedBad := 0
	for _, d := range testBad {
		if ok, _ := f.Keep(d); !ok {
			droppedBad++
		}
	}
	if frac := float64(keptGood) / float64(len(testGood)); frac < 0.9 {
		t.Errorf("kept only %v of held-out good docs", frac)
	}
	if frac := float64(droppedBad) / float64(len(testBad)); frac < 0.8 {
		t.Errorf("dropped only %v of held-out bad docs", frac)
	}
}

func TestClassifierFilterValidation(t *testing.T) {
	e := embed.NewHashEmbedder(32)
	if _, err := FitClassifierFilter(e, nil, []string{"x"}); err == nil {
		t.Error("missing good seed accepted")
	}
	if _, err := FitClassifierFilter(e, []string{"x"}, nil); err == nil {
		t.Error("missing bad seed accepted")
	}
}

func TestClassifierScoreOrdering(t *testing.T) {
	good, bad, testGood, testBad := classifierFixture(t)
	f, err := FitClassifierFilter(embed.NewHashEmbedder(embed.DefaultDim), good, bad)
	if err != nil {
		t.Fatal(err)
	}
	var goodMean, badMean float32
	for _, d := range testGood {
		goodMean += f.Score(d)
	}
	goodMean /= float32(len(testGood))
	for _, d := range testBad {
		badMean += f.Score(d)
	}
	badMean /= float32(len(testBad))
	if goodMean <= badMean {
		t.Errorf("good mean score %v <= bad mean %v", goodMean, badMean)
	}
}

func TestClassifierComposesWithHeuristics(t *testing.T) {
	c := testCorpus(t, 97)
	var good, bad []string
	for _, d := range c.Docs {
		if d.Kind == corpus.Clean && len(good) < 50 {
			good = append(good, d.Text)
		}
		if (d.Kind == corpus.Noisy || d.Kind == corpus.Boilerplate) && len(bad) < 15 {
			bad = append(bad, d.Text)
		}
	}
	if len(bad) < 5 {
		t.Skip("not enough bad docs")
	}
	cf, err := FitClassifierFilter(embed.NewHashEmbedder(embed.DefaultDim), good, bad)
	if err != nil {
		t.Fatal(err)
	}
	kept, rep := ApplyFilters(c.Texts(),
		DefaultHeuristicFilter(),
		ToxicityFilter{Lexicon: c.ToxicLexicon},
		cf,
	)
	if rep.Kept != len(kept) {
		t.Error("report mismatch")
	}
	if rep.ByFilter["classifier"] == 0 && rep.ByFilter["heuristic"] == 0 {
		t.Error("neither quality filter fired")
	}
}
