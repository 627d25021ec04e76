package vecdb

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"dataai/internal/embed"
	"dataai/internal/par"
)

// Serial-vs-parallel benchmarks for the wired search paths, at 1/2/4/8
// workers (run them all with `go test -bench=Par -benchtime=1x ./...`).
//
// Two metrics per run:
//
//   - ns/op — wall clock, which is machine-dependent and in particular
//     shows no speedup on a single-core container (the CI box pins the
//     process to one CPU);
//   - critpath-x — the deterministic critical-path speedup: total
//     distance computations divided by the largest per-worker share.
//     This is the repo's usual machine-independent cost proxy (exactly
//     like E16 reporting dist/query instead of QPS) and is what
//     BENCH_par.json records as the scaling evidence.

// critPathSpeedupShards is total work over the largest contiguous shard
// (the single-query sharded scan's critical path).
func critPathSpeedupShards(n, workers int) float64 {
	chunks := min(workers, n) // MapChunks' shard count
	maxShard := 0
	for c := 0; c < chunks; c++ {
		lo, hi := par.ChunkBounds(n, chunks, c)
		if hi-lo > maxShard {
			maxShard = hi - lo
		}
	}
	return float64(n) / float64(maxShard)
}

// critPathSpeedupQueries is total work over the largest per-worker
// query share (the batch path's critical path; queries all cost the
// same full scan on Flat).
func critPathSpeedupQueries(nq, workers int) float64 {
	if workers > nq {
		workers = nq
	}
	perWorker := (nq + workers - 1) / workers
	return float64(nq) / float64(perWorker)
}

func benchFlat(b *testing.B, n, dim int) *Flat {
	b.Helper()
	f := NewFlat(dim)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		if err := f.Add(fmt.Sprintf("v%06d", i), randVec(rng, dim)); err != nil {
			b.Fatal(err)
		}
	}
	return f
}

// sparseVec returns a unit vector with nz non-zero coordinates at
// distinct random positions.
func sparseVec(rng *rand.Rand, dim, nz int) []float32 {
	v := make([]float32, dim)
	for _, d := range rng.Perm(dim)[:nz] {
		v[d] = float32(rng.NormFloat64())
	}
	embed.Normalize(v)
	return v
}

// benchFlatSearch times f.Search(q, k) at each worker count.
func benchFlatSearch(b *testing.B, f *Flat, q []float32, k int, workers ...int) {
	n := f.Len()
	for _, w := range workers {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			f.SetParallelism(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Search(q, k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(critPathSpeedupShards(n, w), "critpath-x")
		})
	}
}

// BenchmarkParFlatSearch measures the sharded single-query Flat scan.
func BenchmarkParFlatSearch(b *testing.B) {
	const n, dim, k = 16384, 64, 10
	f := benchFlat(b, n, dim)
	q := randVec(rand.New(rand.NewSource(2)), dim)
	benchFlatSearch(b, f, q, k, 1, 2, 4, 8)
}

// BenchmarkParFlatSearchAtMin times the scan at flatParallelWork, the
// least work the sharded scan runs on, on a dense index and on the
// prep-rag shape of BenchmarkParFlatSearchSparse, each with just enough
// rows for its query's work to reach the threshold: w2 must not lose to
// w1 here for that threshold to stand. Each iteration runs one serial
// and one 2-worker search, alternating which goes first, so the host's
// speed drift (it moves by tens of percent within seconds on a shared
// machine) hits both sides alike; it reports each side's median per
// search, the share of iterations the 2-worker search won, and the
// index's rows and its query's work.
func BenchmarkParFlatSearchAtMin(b *testing.B) {
	const dim, k = 64, 10
	// A dense query's work is its index's rows times dim.
	dense := benchFlat(b, flatParallelWork/dim, dim)
	b.Run("dense", func(b *testing.B) {
		benchAlternating(b, dense, randVec(rand.New(rand.NewSource(2)), dim), k)
	})
	sparse, q := sparseFlatAtWork(b, flatParallelWork)
	b.Run("sparse", func(b *testing.B) { benchAlternating(b, sparse, q, sparseK) })
}

// sparseFlatAtWork returns an index of the prep-rag shape with the
// fewest rows for which its query's scan work reaches work, and the
// query.
func sparseFlatAtWork(b *testing.B, work int) (*Flat, []float32) {
	b.Helper()
	rng := rand.New(rand.NewSource(6))
	q := sparseVec(rng, sparseDim, sparseQueryNZ)
	f := NewFlat(sparseDim)
	for i := 0; f.scanWorkOf(q) < work; i++ {
		if err := f.Add(fmt.Sprintf("v%06d", i), sparseVec(rng, sparseDim, sparseStoredNZ)); err != nil {
			b.Fatal(err)
		}
	}
	return f, q
}

// scanWorkOf is scanWork under the read lock.
func (f *Flat) scanWorkOf(query []float32) int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.scanWork(query)
}

// benchAlternating runs b.N rounds of one serial and one 2-worker
// f.Search(q, k), alternating which goes first, and reports each side's
// median time per search and the share of rounds w2 won.
func benchAlternating(b *testing.B, f *Flat, q []float32, k int) {
	times := [2][]float64{make([]float64, b.N), make([]float64, b.N)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 2; j++ {
			w := 1 + (i+j)%2
			f.SetParallelism(w)
			start := time.Now()
			if _, err := f.Search(q, k); err != nil {
				b.Fatal(err)
			}
			times[w-1][i] = float64(time.Since(start).Nanoseconds()) / 1e6
		}
	}
	wins := 0
	for i := range times[0] {
		if times[1][i] < times[0][i] {
			wins++
		}
	}
	for w, ts := range times {
		sort.Float64s(ts)
		b.ReportMetric(ts[len(ts)/2], fmt.Sprintf("w%d-ms", w+1))
	}
	b.ReportMetric(float64(wins)/float64(b.N), "w2-wins")
	b.ReportMetric(float64(f.Len()), "rows")
	b.ReportMetric(float64(f.scanWorkOf(q)), "work")
}

// The prep-rag benchmark's shape: the hash embedder's 256-dim chunk
// vectors carry about 46 non-zero coordinates and its queries about 25,
// and the RAG pipeline asks for the top 4.
const sparseDim, sparseStoredNZ, sparseQueryNZ, sparseK = 256, 46, 25, 4

// sparseFlat returns an n-row index of the prep-rag shape and a query.
func sparseFlat(b *testing.B, n int) (*Flat, []float32) {
	b.Helper()
	rng := rand.New(rand.NewSource(6))
	f := NewFlat(sparseDim)
	for i := 0; i < n; i++ {
		if err := f.Add(fmt.Sprintf("v%06d", i), sparseVec(rng, sparseDim, sparseStoredNZ)); err != nil {
			b.Fatal(err)
		}
	}
	return f, sparseVec(rng, sparseDim, sparseQueryNZ)
}

// BenchmarkParFlatSearchSparse measures the scan on the prep-rag
// benchmark's shape (see sparseDim) over 13,312 chunks, thirteen full
// blocks.
func BenchmarkParFlatSearchSparse(b *testing.B) {
	f, q := sparseFlat(b, 13312)
	benchFlatSearch(b, f, q, sparseK, 1, 2)
}

// BenchmarkParFlatSearchBatch measures SearchBatch across queries — the
// acceptance path: ≥ 2x critical-path speedup at 4 workers.
func BenchmarkParFlatSearchBatch(b *testing.B) {
	const n, dim, nq, k = 8192, 64, 32, 10
	f := benchFlat(b, n, dim)
	rng := rand.New(rand.NewSource(3))
	queries := make([][]float32, nq)
	for i := range queries {
		queries[i] = randVec(rng, dim)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			f.SetParallelism(workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.SearchBatch(queries, k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(critPathSpeedupQueries(nq, workers), "critpath-x")
		})
	}
}

// BenchmarkParIVFSearchBatch measures the batch path on a trained IVF.
func BenchmarkParIVFSearchBatch(b *testing.B) {
	const n, dim, nq, k = 8192, 64, 32, 10
	iv := NewIVF(dim, 64, 8, 4)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < n; i++ {
		if err := iv.Add(fmt.Sprintf("v%06d", i), randVec(rng, dim)); err != nil {
			b.Fatal(err)
		}
	}
	if err := iv.Train(4); err != nil {
		b.Fatal(err)
	}
	queries := make([][]float32, nq)
	for i := range queries {
		queries[i] = randVec(rng, dim)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			iv.SetParallelism(workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := iv.SearchBatch(queries, k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(critPathSpeedupQueries(nq, workers), "critpath-x")
		})
	}
}

// BenchmarkParHNSWSearchBatch measures the batch path on HNSW (smaller
// index: graph construction dominates setup).
func BenchmarkParHNSWSearchBatch(b *testing.B) {
	const n, dim, nq, k = 2048, 64, 32, 10
	h := NewHNSW(dim, 16, 64, 4)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		if err := h.Add(fmt.Sprintf("v%06d", i), randVec(rng, dim)); err != nil {
			b.Fatal(err)
		}
	}
	queries := make([][]float32, nq)
	for i := range queries {
		queries[i] = randVec(rng, dim)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			h.SetParallelism(workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.SearchBatch(queries, k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(critPathSpeedupQueries(nq, workers), "critpath-x")
		})
	}
}

// BenchmarkFlatColumnKernels times the two ways a scan adds one query
// coordinate's products into a block's scores: addScaled over every row
// of a dense column, and addPairs over a sparse column's (row, value)
// pairs, here a third of the block's rows at random. Each reports its
// cost per multiply-add (ns/madd); their ratio sets flatSparseMax.
func BenchmarkFlatColumnKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var scores [flatBlockRows]float32
	col := make([]float32, flatBlockRows)
	for r := range col {
		col[r] = float32(rng.NormFloat64())
	}
	var pairs []rowValue
	for r, x := range col {
		if rng.Intn(3) == 0 {
			pairs = append(pairs, rowValue{row: uint32(r), v: x})
		}
	}
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			addScaled(scores[:], col, 0.5)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(col)), "ns/madd")
	})
	b.Run("pairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			addPairs(&scores, pairs, 0.5)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/madd")
	})
}
