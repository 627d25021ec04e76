// Package token provides tokenization primitives shared by every layer of
// the Data+AI stack: a deterministic word-level tokenizer with a mutable
// vocabulary, n-gram hashing, and stable 64-bit hashing for shingles.
//
// The tokenizer is intentionally simple — lower-cased word and punctuation
// splitting — because the experiments in this repository measure *systems*
// behaviour (cost, cache hit rates, dedup recall, perplexity deltas), not
// linguistic quality. Determinism matters more than BPE fidelity here: the
// same text must always produce the same token stream so that every
// simulator and benchmark is reproducible.
package token

import (
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Special token identifiers reserved at the bottom of every Vocabulary.
const (
	// UnknownID stands for a token the vocabulary does not hold.
	UnknownID = 0
	// BOSID marks the beginning of a sequence.
	BOSID = 1
	// EOSID marks the end of a sequence.
	EOSID = 2

	numReserved = 3
)

// Tokenize splits text into lower-cased word and punctuation tokens.
// Runs of letters or digits form one token; every other non-space rune is
// its own token, and an invalid UTF-8 byte is the token "\uFFFD". The
// output is deterministic for a given input.
//
// Tokens share text's memory: a token that lower-casing leaves unchanged
// is a slice of text, so anything that keeps tokens keeps text alive
// with them. Vocabulary copies each token it registers, so a vocabulary
// (and with it the n-gram tables of package llm/ngram, which key on
// vocabulary ids) never pins the documents it was built from.
func Tokenize(text string) []string {
	if text == "" {
		return nil
	}
	toks := make([]string, 0, len(text)/5+1)
	word := -1 // start of the word being scanned, or -1 between words
	for i := 0; i < len(text); {
		r, w := rune(text[i]), 1
		var inWord, space bool
		if r < utf8.RuneSelf {
			c := text[i]
			inWord = 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
			space = c == ' ' || '\t' <= c && c <= '\r'
		} else {
			r, w = utf8.DecodeRuneInString(text[i:])
			inWord = unicode.IsLetter(r) || unicode.IsDigit(r)
			space = !inWord && unicode.IsSpace(r)
		}
		if inWord {
			if word < 0 {
				word = i
			}
		} else {
			if word >= 0 {
				// strings.ToLower returns its argument when no rune
				// changes, so an already lower-case word stays a slice.
				toks = append(toks, strings.ToLower(text[word:i]))
				word = -1
			}
			if !space {
				toks = append(toks, runeToken(text[i:i+w], r))
			}
		}
		i += w
	}
	if word >= 0 {
		toks = append(toks, strings.ToLower(text[word:]))
	}
	return toks
}

// runeToken is the token of a punctuation rune r, encoded in text as s:
// r lower-cased, and s itself when lower-casing leaves r unchanged,
// except that an invalid byte reads as "\uFFFD" (utf8.RuneError), as
// ranging over a string decodes it.
func runeToken(s string, r rune) string {
	if l := unicode.ToLower(r); l != r {
		return string(l)
	}
	if r == utf8.RuneError && len(s) == 1 {
		return string(utf8.RuneError)
	}
	return s
}

// Detokenize joins tokens back into readable text. Punctuation tokens are
// attached to the preceding word. Tokenize(Detokenize(t)) == t for token
// streams produced by Tokenize.
func Detokenize(toks []string) string {
	var b strings.Builder
	for i, t := range toks {
		if i > 0 && !isPunct(t) {
			b.WriteByte(' ')
		}
		b.WriteString(t)
	}
	return b.String()
}

func isPunct(t string) bool {
	if len(t) == 0 {
		return false
	}
	r, _ := utf8.DecodeRuneInString(t)
	return !unicode.IsLetter(r) && !unicode.IsDigit(r)
}

// Count returns the number of tokens in text without materializing them.
func Count(text string) int {
	n := 0
	inWord := false
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			if !inWord {
				n++
				inWord = true
			}
		case unicode.IsSpace(r):
			inWord = false
		default:
			n++
			inWord = false
		}
	}
	return n
}

// Vocabulary maps token strings to dense integer identifiers. The zero
// value is not usable; construct with NewVocabulary. A Vocabulary is safe
// for concurrent use.
type Vocabulary struct {
	mu    sync.RWMutex
	ids   map[string]int
	words []string
}

// NewVocabulary returns an empty vocabulary with the reserved special
// tokens pre-registered.
func NewVocabulary() *Vocabulary {
	v := &Vocabulary{
		ids:   make(map[string]int, 1024),
		words: make([]string, numReserved, 1024),
	}
	v.words[UnknownID] = "<unk>"
	v.words[BOSID] = "<bos>"
	v.words[EOSID] = "<eos>"
	v.ids["<unk>"] = UnknownID
	v.ids["<bos>"] = BOSID
	v.ids["<eos>"] = EOSID
	return v
}

// Size reports the number of registered tokens, including reserved ones.
func (v *Vocabulary) Size() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.words)
}

// ID returns the identifier for tok, registering it if it is new.
func (v *Vocabulary) ID(tok string) int {
	v.mu.RLock()
	id, ok := v.ids[tok]
	v.mu.RUnlock()
	if ok {
		return id
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if id, ok := v.ids[tok]; ok { // re-check under write lock
		return id
	}
	id = len(v.words)
	tok = strings.Clone(tok) // a token may be a slice of a whole document
	v.ids[tok] = id
	v.words = append(v.words, tok)
	return id
}

// IDIfPresent returns the identifier for tok without registering it,
// reporting whether tok is known.
func (v *Vocabulary) IDIfPresent(tok string) (int, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	id, ok := v.ids[tok]
	return id, ok
}

// Word returns the token string for id, or "<unk>" if out of range.
func (v *Vocabulary) Word(id int) string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if id < 0 || id >= len(v.words) {
		return v.words[UnknownID]
	}
	return v.words[id]
}

// HashNGrams returns the FNV-1a 64-bit hash of every n-gram of toks,
// avoiding the string join. Used by dedup's shingling.
func HashNGrams(toks []string, n int) []uint64 {
	if n <= 0 || len(toks) < n {
		return nil
	}
	out := make([]uint64, 0, len(toks)-n+1)
	for i := 0; i+n <= len(toks); i++ {
		h := fnvOffset
		for j := i; j < i+n; j++ {
			for k := 0; k < len(toks[j]); k++ {
				h ^= uint64(toks[j][k])
				h *= fnvPrime
			}
			h ^= ' '
			h *= fnvPrime
		}
		out = append(out, h)
	}
	return out
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Hash64 returns the FNV-1a 64-bit hash of s. It is the single stable
// string hash used across the repository (embeddings, MinHash seeds,
// cache keys) so results are reproducible across runs and platforms.
func Hash64(s string) uint64 {
	h := fnvOffset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// Hash64Seed hashes s mixed with a seed, for families of hash functions.
func Hash64Seed(s string, seed uint64) uint64 {
	h := fnvOffset ^ (seed * 0x9e3779b97f4a7c15)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	// Final avalanche (splitmix64 tail) so nearby seeds decorrelate.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Uniform maps (s, seed) to a deterministic uniform in [0,1): the top
// 53 bits of Hash64Seed as a float64 fraction. It is the repo's one
// seeded draw (fault windows, LLM decisions, retry jitter, rewrite
// proposals): equal inputs give equal draws on every run, platform and
// worker count.
func Uniform(s string, seed uint64) float64 {
	return float64(Hash64Seed(s, seed)>>11) / float64(1<<53)
}

// Hash64SeedBytes is Hash64Seed over a byte slice: it lets hot paths
// hash composed features (prefix + substring) through a reusable stack
// buffer instead of allocating a string per feature. For any s and
// seed, Hash64SeedBytes([]byte(s), seed) == Hash64Seed(s, seed).
func Hash64SeedBytes(b []byte, seed uint64) uint64 {
	h := fnvOffset ^ (seed * 0x9e3779b97f4a7c15)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Frequencies counts token occurrences in toks.
func Frequencies(toks []string) map[string]int {
	m := make(map[string]int, len(toks))
	for _, t := range toks {
		m[t]++
	}
	return m
}
