package embed

import "dataai/internal/par"

// EmbedBatch embeds texts across up to workers goroutines, committing
// vectors in input order: out[i] is exactly e.Embed(texts[i]). Embedder
// implementations are documented deterministic and HashEmbedder holds no
// mutable state, so the worker count never changes any vector — only
// how the same work is scheduled. workers <= 0 means GOMAXPROCS.
//
// This is the ingestion hot path: rag's Ingest embeds each window of
// chunks through it before a single query runs, and each Embed is
// independent of every other.
func EmbedBatch(e Embedder, texts []string, workers int) [][]float32 {
	return par.Map(len(texts), workers, func(i int) []float32 {
		return e.Embed(texts[i])
	})
}
