package dataprep

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"dataai/internal/par"
	"dataai/internal/token"
)

// This file implements the deduplication techniques of §2.3.2 Data
// Cleaning: exact document hashing [24, 52], and MinHash with LSH
// banding for near-duplicates [29, 46].

// ExactDedup removes documents whose full token stream hashes equal an
// earlier document's. First occurrence wins; order is preserved.
func ExactDedup(docs []string) []string {
	seen := make(map[uint64]bool, len(docs))
	var out []string
	for _, d := range docs {
		h := token.Hash64(normalizeForHash(d))
		if seen[h] {
			continue
		}
		seen[h] = true
		out = append(out, d)
	}
	return out
}

// normalizeForHash canonicalizes whitespace/case so trivially reformatted
// copies hash equal.
func normalizeForHash(d string) string {
	return token.Detokenize(token.Tokenize(d))
}

// MinHasher computes MinHash signatures over token shingles and groups
// near-duplicates with LSH banding.
type MinHasher struct {
	// NumHashes is the signature length (bands * rowsPerBand).
	NumHashes int
	// Bands for LSH; candidates collide when any band matches exactly.
	Bands int
	// ShingleSize is the n-gram width hashed into the signature.
	ShingleSize int
	// Workers bounds the goroutines Dedup uses for its signature pass
	// and its band pass; <= 0 means GOMAXPROCS. A signature is a pure
	// function of its document and a band's candidate pairs of the
	// signatures, so the worker count never changes which documents are
	// kept or removed.
	Workers int
	seed    uint64
}

// NewMinHasher validates the configuration. numHashes must be divisible
// by bands.
func NewMinHasher(numHashes, bands, shingleSize int, seed uint64) (*MinHasher, error) {
	if numHashes <= 0 || bands <= 0 || shingleSize <= 0 {
		return nil, fmt.Errorf("dataprep: invalid minhash config %d/%d/%d", numHashes, bands, shingleSize)
	}
	if numHashes%bands != 0 {
		return nil, fmt.Errorf("dataprep: numHashes %d not divisible by bands %d", numHashes, bands)
	}
	return &MinHasher{NumHashes: numHashes, Bands: bands, ShingleSize: shingleSize, seed: seed}, nil
}

// Signature computes the document's MinHash signature. Documents shorter
// than the shingle size fall back to unigram shingles.
func (m *MinHasher) Signature(text string) []uint64 {
	return m.signature(make([]uint64, m.NumHashes), text)
}

// hashStep spaces the hash functions' constants: function i hashes a
// shingle sh to mix(sh ^ (seed + i·hashStep)), a universal-ish family.
const hashStep uint64 = 0x9e3779b97f4a7c15

// signature writes text's signature into sig, which has NumHashes
// slots, and returns it. Each group of four hash functions takes its
// minima over every shingle in one minHash4 call, so the functions'
// constants are worked out once per group rather than once per shingle.
func (m *MinHasher) signature(sig []uint64, text string) []uint64 {
	toks := token.Tokenize(text)
	n := m.ShingleSize
	if len(toks) < n {
		n = 1
	}
	shingles := token.HashNGrams(toks, n)
	i := 0
	for ; i+4 <= len(sig); i += 4 {
		minHash4((*[4]uint64)(sig[i:i+4]), shingles, m.seed+uint64(i)*hashStep)
	}
	for ; i < len(sig); i++ {
		c := m.seed + uint64(i)*hashStep
		sig[i] = ^uint64(0)
		for _, sh := range shingles {
			sig[i] = min(sig[i], mix(sh^c))
		}
	}
	return sig
}

// minHash4 sets sig[j] to the minimum over the shingles of
// mix(sh ^ (c + j·hashStep)), or to the maximum uint64 when there are
// none: four hash functions per shingle, each folded in with a
// branchless min.
//
// It stays out of line, as vecdb's addScaled does, so its loop is
// compiled on its own and keeps every pointer and temporary in a
// register. Keeping the four minima and constants in registers instead
// spilled the mix temporaries to the stack (the amd64 compiler ran out
// of registers), and that form ran slower on a 2-vCPU Xeon
// (BENCH_par.json, prep_fanout.minhash_kernel).
//
//go:noinline
func minHash4(sig *[4]uint64, shingles []uint64, c uint64) {
	cs := [4]uint64{c, c + hashStep, c + hashStep + hashStep, c + hashStep + hashStep + hashStep}
	sig[0], sig[1], sig[2], sig[3] = ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
	for _, sh := range shingles {
		sig[0] = min(sig[0], mix(sh^cs[0]))
		sig[1] = min(sig[1], mix(sh^cs[1]))
		sig[2] = min(sig[2], mix(sh^cs[2]))
		sig[3] = min(sig[3], mix(sh^cs[3]))
	}
}

func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// EstimateJaccard estimates the Jaccard similarity of two documents from
// their signatures (the fraction of agreeing hash positions).
func (m *MinHasher) EstimateJaccard(a, b []uint64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	agree := 0
	for i := range a {
		if a[i] == b[i] {
			agree++
		}
	}
	return float64(agree) / float64(len(a))
}

// Dedup removes near-duplicate documents: LSH banding proposes candidate
// pairs, and candidates whose estimated Jaccard exceeds threshold are
// clustered; only each cluster's first document survives. Returns the
// kept documents and the indices of removed ones.
func (m *MinHasher) Dedup(docs []string, threshold float64) (kept []string, removed []int) {
	n, h, rows := len(docs), m.NumHashes, m.NumHashes/m.Bands
	// Each document's signature and band hashes depend on that document
	// alone, so they are worked out on up to Workers goroutines, each
	// into the document's own slots.
	sigs := make([]uint64, n*h)             // document i's at i*NumHashes
	bandHashes := make([]uint64, n*m.Bands) // document i's band b at i*Bands+b
	sig := func(i int) []uint64 { return sigs[i*h : (i+1)*h : (i+1)*h] }
	par.ForEach(n, m.Workers, func(i int) {
		s := m.signature(sig(i), docs[i])
		// A band's key is its words as 8-byte little-endian values,
		// hashed with the band index as the seed.
		var buf [128]byte
		for band := 0; band < m.Bands; band++ {
			key := buf[:0]
			for _, v := range s[band*rows : (band+1)*rows] {
				key = binary.LittleEndian.AppendUint64(key, v)
			}
			bandHashes[i*m.Bands+band] = token.Hash64SeedBytes(key, uint64(band))
		}
	})

	// Each band groups the documents whose band keys hash alike. Sorting
	// (hash, doc) pairs puts every group in one run with its lowest doc
	// index first, and each other member is unioned with that first one
	// when their signatures agree enough. Bands are independent, so
	// contiguous runs of them are sorted and scanned on up to Workers
	// goroutines, each unioning its candidate pairs into a forest of its
	// own; the forests merge afterwards. Union-find yields the same
	// clusters in any union order, so each cluster's lowest document,
	// the one kept, does not depend on the worker count.
	forests := par.MapChunks(m.Bands, m.Workers, func(_, lo, hi int) []int {
		parent := make([]int, n)
		for i := range parent {
			parent[i] = i
		}
		keyed := make([]bandHash, n)
		for band := lo; band < hi; band++ {
			for i := range keyed {
				keyed[i] = bandHash{h: bandHashes[i*m.Bands+band], doc: i}
			}
			slices.SortFunc(keyed, func(a, b bandHash) int {
				if a.h != b.h {
					return cmp.Compare(a.h, b.h)
				}
				return cmp.Compare(a.doc, b.doc)
			})
			for g := 0; g < len(keyed); {
				a, j := keyed[g].doc, g+1
				for ; j < len(keyed) && keyed[j].h == keyed[g].h; j++ {
					if b := keyed[j].doc; m.EstimateJaccard(sig(a), sig(b)) >= threshold {
						union(parent, a, b)
					}
				}
				g = j
			}
		}
		return parent
	})
	var parent []int
	for c, f := range forests {
		if c == 0 {
			parent = f
			continue
		}
		for i := range f {
			union(parent, i, find(f, i))
		}
	}
	seen := make([]bool, n) // cluster roots whose first document is kept
	for i, d := range docs {
		if r := find(parent, i); !seen[r] {
			seen[r] = true
			kept = append(kept, d)
		} else {
			removed = append(removed, i)
		}
	}
	return kept, removed
}

// find returns the root of x's tree in the union-find forest parent,
// halving the path on the way.
func find(parent []int, x int) int {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// union joins the trees of a and b in the forest parent.
func union(parent []int, a, b int) { parent[find(parent, a)] = find(parent, b) }

// bandHash is one document's band key hash.
type bandHash struct {
	h   uint64
	doc int
}
