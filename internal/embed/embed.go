// Package embed produces deterministic dense vector embeddings for text.
//
// The paper's LLM4Data techniques (RAG §2.2.2, AOP schema linking over data
// lakes) rely on an embedding model that maps semantically related text to
// nearby vectors. Real deployments call a neural encoder; this repository
// substitutes a seeded feature-hashing embedder: each token (and each token
// bigram) is hashed into d signed buckets, the bucket vector is then
// L2-normalized. Texts sharing vocabulary — which in our synthetic corpora
// is exactly what "semantically related" means, since related documents are
// generated from shared entity/fact templates — land close in cosine space,
// while unrelated texts are near-orthogonal in expectation. That preserves
// the behaviour the experiments need: similarity search returns the
// documents generated from the same underlying facts.
package embed

import (
	"fmt"
	"math"
	"unicode"
	"unicode/utf8"

	"dataai/internal/token"
)

// DefaultDim is the embedding dimensionality used across the repository.
// 256 keeps flat search cheap while leaving hash collisions rare for the
// vocabulary sizes the synthetic corpora produce.
const DefaultDim = 256

// Embedder converts text into fixed-dimension vectors. Implementations
// must be deterministic: the same text always yields the same vector.
// They must also be safe for concurrent use: EmbedBatch, and with it
// rag's Ingest, embeds several texts at once. HashEmbedder holds no
// mutable state.
type Embedder interface {
	// Embed returns the vector for text. The returned slice is owned by
	// the caller.
	Embed(text string) []float32
	// Dim reports the dimensionality of produced vectors.
	Dim() int
}

// hashSeed seeds every feature hash the embedder computes.
const hashSeed = 0x5eed

// HashEmbedder is the feature-hashing Embedder described in the package
// comment: token, character-trigram and token-bigram features hashed
// with hashSeed. The zero value is not usable; construct with
// NewHashEmbedder. It is safe for concurrent use (it holds no mutable
// state).
type HashEmbedder struct {
	dim int
}

// NewHashEmbedder returns a HashEmbedder producing dim-dimensional vectors.
// It panics if dim <= 0 (a programming error, not a runtime condition).
func NewHashEmbedder(dim int) *HashEmbedder {
	if dim <= 0 {
		panic(fmt.Sprintf("embed: invalid dimension %d", dim))
	}
	return &HashEmbedder{dim: dim}
}

// Dim implements Embedder.
func (e *HashEmbedder) Dim() int { return e.dim }

// stopWeight downweights function words and punctuation the way a trained
// encoder's attention does implicitly: without it, template tokens ("the",
// "of", "is") dominate similarity and retrieval confuses documents that
// share phrasing but not content.
const stopWeight = 0.1

var stopwords = map[string]bool{
	"the": true, "a": true, "an": true, "of": true, "is": true, "are": true,
	"was": true, "in": true, "on": true, "at": true, "to": true, "and": true,
	"or": true, "what": true, "which": true, "who": true, "whose": true,
	"entity": true, "it": true, "its": true, "this": true, "that": true,
	"for": true, "with": true, "by": true, "from": true, "as": true,
}

func tokenWeight(t string) float32 {
	if stopwords[t] {
		return stopWeight
	}
	if r, n := utf8.DecodeRuneInString(t); n > 0 && !unicode.IsLetter(r) && !unicode.IsDigit(r) {
		return stopWeight // punctuation
	}
	return 1
}

// subwordWeight scales character-trigram features. Subword features give
// the embedder what trained encoders get from BPE: surface variants of
// the same string ("anor" vs "an-or", truncations, re-hyphenations) stay
// close even when their token identities differ — the "semantic matching
// between different representations of the same entity" the paper's
// open-world motivation (§2.1) describes.
const subwordWeight = 0.3

// Embed implements Embedder. Empty or all-space text yields the zero
// vector, which has zero cosine similarity with everything.
//
// Term weighting is sublinear in frequency (1+ln tf per distinct token):
// without it, boilerplate tokens repeated on every line of a structured
// rendering (key paths, field labels) drown out the few tokens that
// identify the content.
func (e *HashEmbedder) Embed(text string) []float32 {
	v := make([]float32, e.dim)
	toks := token.Tokenize(text)
	// Visit distinct tokens in first-occurrence order, not map order:
	// bucket accumulation is float32 addition, and hash collisions put
	// several features in one bucket, so accumulation order must be
	// fixed for Embed to be bit-for-bit stable call to call. (Randomized
	// map iteration here was a latent determinism bug: rendered
	// experiment tables absorbed the last-ulp noise, but any near-tie
	// downstream could have flipped between runs.) Each processed token
	// is deleted from freq, so the map doubles as the seen-set.
	freq := token.Frequencies(toks)
	for _, t := range toks {
		tf, ok := freq[t]
		if !ok {
			continue // not the first occurrence
		}
		delete(freq, t)
		w := tokenWeight(t) * float32(1+math.Log(float64(tf)))
		e.add(v, t, w)
		if !stopwords[t] && len(t) >= 4 {
			// Hash character trigrams through a fixed stack buffer
			// ("##" prefix + 3 bytes) instead of building a string per
			// trigram — the dominant allocation on this hot path.
			// Hash64SeedBytes produces the identical hash, so vectors
			// are bit-for-bit unchanged.
			var buf [5]byte
			buf[0], buf[1] = '#', '#'
			for j := 0; j+3 <= len(t); j++ {
				buf[2], buf[3], buf[4] = t[j], t[j+1], t[j+2]
				e.addHash(v, token.Hash64SeedBytes(buf[:], hashSeed), subwordWeight*w)
			}
		}
	}
	for i, h := range token.HashNGrams(toks, 2) {
		// Bigram weight is the min of its two token weights, computed
		// on the fly: tokenWeight is two map lookups, cheaper than
		// materializing a per-token scratch slice.
		w := tokenWeight(toks[i])
		if w2 := tokenWeight(toks[i+1]); w2 < w {
			w = w2
		}
		e.addHash(v, h, 0.5*w)
	}
	Normalize(v)
	return v
}

func (e *HashEmbedder) add(v []float32, feature string, w float32) {
	e.addHash(v, token.Hash64Seed(feature, hashSeed), w)
}

func (e *HashEmbedder) addHash(v []float32, h uint64, w float32) {
	// Mix in the seed, times the 64-bit golden ratio (wrapping), so
	// n-gram hashes are seeded too.
	seed := uint64(hashSeed)
	h ^= seed * 0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	idx := int(h % uint64(e.dim))
	sign := float32(1)
	if (h>>63)&1 == 1 {
		sign = -1
	}
	v[idx] += sign * w
}

// Normalize scales v to unit L2 norm in place. The zero vector is left
// unchanged.
func Normalize(v []float32) {
	var ss float64
	for _, x := range v {
		ss += float64(x) * float64(x)
	}
	if ss == 0 {
		return
	}
	inv := float32(1 / math.Sqrt(ss))
	for i := range v {
		v[i] *= inv
	}
}

// Dot returns the inner product of a and b. It panics on length mismatch
// (a programming error: vectors from different embedders were mixed).
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("embed: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Cosine returns the cosine similarity of a and b, in [-1, 1]. Zero
// vectors have similarity 0 with everything.
func Cosine(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("embed: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return float32(dot / math.Sqrt(na*nb))
}

// EuclideanSq returns the squared Euclidean distance between a and b.
func EuclideanSq(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("embed: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Mean returns the element-wise mean of vecs. It returns nil for an empty
// input and panics on dimension mismatch among inputs.
func Mean(vecs [][]float32) []float32 {
	if len(vecs) == 0 {
		return nil
	}
	dim := len(vecs[0])
	out := make([]float32, dim)
	for _, v := range vecs {
		if len(v) != dim {
			panic(fmt.Sprintf("embed: dimension mismatch %d vs %d", len(v), dim))
		}
		for i, x := range v {
			out[i] += x
		}
	}
	inv := float32(1) / float32(len(vecs))
	for i := range out {
		out[i] *= inv
	}
	return out
}
