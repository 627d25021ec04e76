package dataprep

import (
	"fmt"

	"dataai/internal/embed"
)

// ClassifierFilter is the learned quality filter the paper cites for data
// cleaning ([10]'s GPT-3 quality classifier, QuRating [62]): a classifier
// trained on examples of wanted and unwanted text scores each candidate
// document. Here it is a nearest-centroid classifier over embeddings:
// documents closer to the "bad" centroid than to the "good" one are
// dropped.
type ClassifierFilter struct {
	emb  embed.Embedder
	good []float32
	bad  []float32
}

// FitClassifierFilter trains the filter from labeled seed sets.
func FitClassifierFilter(e embed.Embedder, goodSeed, badSeed []string) (*ClassifierFilter, error) {
	if len(goodSeed) == 0 || len(badSeed) == 0 {
		return nil, fmt.Errorf("dataprep: classifier filter needs good and bad seeds: %w", ErrNoDocs)
	}
	goodVecs := make([][]float32, len(goodSeed))
	for i, s := range goodSeed {
		goodVecs[i] = e.Embed(s)
	}
	badVecs := make([][]float32, len(badSeed))
	for i, s := range badSeed {
		badVecs[i] = e.Embed(s)
	}
	return &ClassifierFilter{
		emb:  e,
		good: embed.Mean(goodVecs),
		bad:  embed.Mean(badVecs),
	}, nil
}

// Name implements Filter.
func (c *ClassifierFilter) Name() string { return "classifier" }

// Keep implements Filter.
func (c *ClassifierFilter) Keep(text string) (bool, string) {
	v := c.emb.Embed(text)
	goodSim := embed.Cosine(v, c.good)
	badSim := embed.Cosine(v, c.bad)
	if goodSim >= badSim {
		return true, ""
	}
	return false, fmt.Sprintf("classifier: good %.3f < bad %.3f", goodSim, badSim)
}

// Score returns the classifier's margin for a document (positive = more
// good-like), for threshold sweeps and ranking.
func (c *ClassifierFilter) Score(text string) float32 {
	v := c.emb.Embed(text)
	return embed.Cosine(v, c.good) - embed.Cosine(v, c.bad)
}
