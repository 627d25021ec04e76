package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"dataai/internal/corpus"
	"dataai/internal/dataprep"
	"dataai/internal/embed"
	"dataai/internal/llm/ngram"
	"dataai/internal/metrics"
)

func init() {
	register("E6", "Domain mixture optimization (§2.3.2 Data Discovery)", runE6)
	register("E7", "Data selection at budget (§2.3.2 Data Selection)", runE7)
	register("E8", "Cleaning and deduplication (§2.3.2 Data Cleaning)", runE8)
}

func trainPPL(train, heldOut []string) (float64, error) {
	m := ngram.New()
	m.TrainAll(train)
	return m.CorpusPerplexity(heldOut)
}

func runE6() (*metrics.Table, error) {
	c, err := experimentCorpus(1006)
	if err != nil {
		return nil, err
	}
	pool := dataprep.DomainPool{}
	var target, heldOut []string
	finSeen := 0
	for _, d := range c.Docs {
		if d.Kind != corpus.Clean {
			continue
		}
		if d.Domain == "finance" && finSeen < 50 {
			if finSeen < 20 {
				target = append(target, d.Text)
			} else {
				heldOut = append(heldOut, d.Text)
			}
			finSeen++
			continue
		}
		pool[d.Domain] = append(pool[d.Domain], d.Text)
	}
	const budget = 100
	t := metrics.NewTable("E6: domain mixture vs target-domain perplexity (budget 100 docs)",
		"mixture", "finance weight", "target ppl")
	addArm := func(name string, mix dataprep.Mixture) error {
		ppl, err := dataprep.EvaluateMixture(pool, mix, heldOut, budget, 9)
		if err != nil {
			return err
		}
		t.AddRowf(name, mix["finance"], ppl)
		return nil
	}
	if err := addArm("uniform", dataprep.UniformMixture(pool)); err != nil {
		return nil, err
	}
	if err := addArm("proportional (heuristic)", dataprep.ProportionalMixture(pool)); err != nil {
		return nil, err
	}
	imp, err := dataprep.ImportanceMixture(pool, target)
	if err != nil {
		return nil, err
	}
	if err := addArm("importance resampling (DSIR)", imp); err != nil {
		return nil, err
	}
	grad, err := dataprep.GradientMixture(pool, target, 1)
	if err != nil {
		return nil, err
	}
	if err := addArm("gradient reweighting (DoGE)", grad); err != nil {
		return nil, err
	}
	return t, nil
}

func runE7() (*metrics.Table, error) {
	c, err := experimentCorpus(1007)
	if err != nil {
		return nil, err
	}
	var pool, target, heldOut []string
	finSeen := 0
	for _, d := range c.Docs {
		if d.Kind != corpus.Clean {
			continue
		}
		if d.Domain == "finance" {
			switch {
			case finSeen < 20:
				target = append(target, d.Text)
			case finSeen < 50:
				heldOut = append(heldOut, d.Text)
			default:
				pool = append(pool, d.Text)
			}
			finSeen++
			continue
		}
		pool = append(pool, d.Text)
	}
	e := embed.NewHashEmbedder(embed.DefaultDim)
	selectors := []dataprep.Selector{
		dataprep.RandomSelector{Seed: 7},
		dataprep.PerplexitySelector{Target: target},
		dataprep.InfluenceSelector{Embedder: e, Target: target},
		dataprep.CoresetSelector{Embedder: e, Seed: 7},
	}
	t := metrics.NewTable("E7: data selection — target perplexity by budget",
		"selector", "budget 40", "budget 80", "budget 160")
	for _, s := range selectors {
		row := []interface{}{s.Name()}
		for _, budget := range []int{40, 80, 160} {
			idx, err := s.Select(pool, budget)
			if err != nil {
				return nil, fmt.Errorf("E7 %s: %w", s.Name(), err)
			}
			ppl, err := trainPPL(dataprep.Pick(pool, idx), heldOut)
			if err != nil {
				return nil, err
			}
			row = append(row, ppl)
		}
		t.AddRowf(row...)
	}
	return t, nil
}

func runE8() (*metrics.Table, error) {
	cfg := corpus.DefaultConfig(1008)
	cfg.DuplicateFraction = 0.3
	cfg.NoisyFraction = 0.08
	cfg.ToxicFraction = 0.07
	cfg.BoilerplateFraction = 0.08
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	c := gen.Generate()
	perm := rand.New(rand.NewSource(88)).Perm(len(c.Docs))
	var heldOut, raw []string
	heldOutIDs := map[string]bool{}
	cleanSeen := 0
	for _, pi := range perm {
		d := c.Docs[pi]
		if d.Kind == corpus.Clean && cleanSeen < 60 {
			heldOut = append(heldOut, d.Text)
			heldOutIDs[d.ID] = true
			cleanSeen++
		}
	}
	for _, pi := range perm {
		d := c.Docs[pi]
		if heldOutIDs[d.ID] || (d.Kind == corpus.Duplicate && heldOutIDs[d.DupOf]) {
			continue
		}
		raw = append(raw, d.Text)
	}

	filters := []dataprep.Filter{
		dataprep.DefaultHeuristicFilter(),
		dataprep.ToxicityFilter{Lexicon: c.ToxicLexicon},
	}
	filtered, _ := dataprep.ApplyFilters(raw, filters...)
	mh, err := dataprep.NewMinHasher(128, 32, 3, 8)
	if err != nil {
		return nil, err
	}
	deduped, _ := mh.Dedup(filtered, 0.6)

	budget := len(deduped)
	toxicLeak := func(docs []string) int {
		leaks := 0
		for _, d := range docs {
			for _, w := range c.ToxicLexicon {
				if strings.Contains(d, w) {
					leaks++
					break
				}
			}
		}
		return leaks
	}
	t := metrics.NewTable(fmt.Sprintf("E8: cleaning pipeline (matched %d-doc training budget)", budget),
		"pipeline", "docs", "toxic docs", "held-out ppl")
	arms := []struct {
		name string
		docs []string
	}{
		{"raw", raw[:min(budget, len(raw))]},
		{"filtered", filtered[:min(budget, len(filtered))]},
		{"filtered+deduped", deduped},
	}
	for _, a := range arms {
		ppl, err := trainPPL(a.docs, heldOut)
		if err != nil {
			return nil, err
		}
		t.AddRowf(a.name, len(a.docs), toxicLeak(a.docs), ppl)
	}
	return t, nil
}
