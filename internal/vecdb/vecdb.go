// Package vecdb implements the vector database substrate the paper lists
// under both LLM4Data (RAG retrieval, §2.2.1: "embedding indexing and
// searching") and the Figure 1 architecture's "Vector Database" box.
//
// Three index types are provided with one interface:
//
//   - Flat: exact brute-force scan — the recall ceiling and baseline.
//   - IVF: inverted-file index with k-means coarse quantizer and an
//     nprobe search parameter.
//   - HNSW: hierarchical navigable small world graph.
//
// All similarity is inner product; callers that want cosine should insert
// unit vectors (package embed produces them already normalized).
package vecdb

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dataai/internal/par"
)

// Errors returned by index operations. Callers branch on these with
// errors.Is.
var (
	// ErrDimension indicates a vector whose length does not match the
	// index dimensionality.
	ErrDimension = errors.New("vecdb: vector dimension mismatch")
	// ErrDuplicateID indicates an Add with an id already present.
	ErrDuplicateID = errors.New("vecdb: duplicate id")
	// ErrNotFound indicates a lookup for an absent id.
	ErrNotFound = errors.New("vecdb: id not found")
	// ErrEmptyIndex indicates a search against an index with no vectors.
	ErrEmptyIndex = errors.New("vecdb: empty index")
	// ErrNonFinite indicates a vector with a NaN or infinite coordinate,
	// which Flat refuses to store (see Flat.Add).
	ErrNonFinite = errors.New("vecdb: non-finite vector coordinate")
)

// Result is one search hit. Score is the inner product with the query —
// higher is more similar.
type Result struct {
	ID    string
	Score float32
}

// Index is the common contract of all vector indexes in this package.
type Index interface {
	// Add inserts a vector under id. It returns ErrDimension or
	// ErrDuplicateID on invalid input.
	Add(id string, vec []float32) error
	// Search returns the k nearest vectors to query by inner product,
	// most similar first. Fewer than k results are returned when the
	// index holds fewer vectors. It returns ErrEmptyIndex when empty.
	Search(query []float32, k int) ([]Result, error)
	// SearchBatch runs Search for every query, fanning the queries out
	// across the index's configured parallelism (SetParallelism) and
	// returning per-query results in query order — identical to calling
	// Search in a loop. The first per-query error (by query index) is
	// returned, with no results.
	SearchBatch(queries [][]float32, k int) ([][]Result, error)
	// SetParallelism sets the worker count used by SearchBatch (and,
	// for Flat, the sharded single-query scan). n <= 0 restores the
	// default: GOMAXPROCS at search time. Parallelism never changes
	// results — only how the same work is scheduled.
	SetParallelism(n int)
	// Delete removes id from the index (tombstoned in HNSW). It returns
	// ErrNotFound for absent ids.
	Delete(id string) error
	// Len reports the number of stored (live) vectors.
	Len() int
	// Dim reports the index dimensionality.
	Dim() int
}

// DistCounter is implemented by every index in this package: a running
// count of inner-product evaluations. It is the deterministic cost proxy
// experiment E16 reports instead of wall-clock QPS — identical across
// runs and machines, which wall time never is, and the quantity ANN
// papers themselves use to compare search effort.
type DistCounter interface {
	// DistComps returns the cumulative number of inner products computed
	// by this index across Add, Train, and Search. Callers measuring one
	// phase snapshot before and after and subtract.
	DistComps() uint64
}

// Flat is an exact brute-force index. It is safe for concurrent use.
//
// Vectors are stored dimension-major in blocks of flatBlockRows rows:
// coordinate d of row r lives at blocks[r/flatBlockRows][d*blockCap +
// r%flatBlockRows]. A search then reads, per block, only the columns of
// the query's non-zero coordinates (see scan). Only the first block
// grows, by doubling, so a small index stays small; once it is full,
// blockCap is flatBlockRows and every later block is allocated whole.
//
// A block is sealed when its last row is added: sealed[b] then lists
// the non-zeros of each of block b's sparse columns, which a scan reads
// instead of the whole column. The blocks stay the source of truth for
// Get, Delete and the unfilled last block.
type Flat struct {
	parallelism
	mu       sync.RWMutex
	dim      int
	ids      []string
	blocks   [][]float32
	sealed   []*sealedBlock // per block; nil until the block is full
	blockCap int            // rows per block column; flatBlockRows once a second block exists
	pos      map[string]int
	dists    atomic.Uint64
}

// flatBlockRows is the row count of a full Flat block, and the length of
// the on-stack score buffer a scan fills per block.
const flatBlockRows = 1024

// sealedBlock is the sparse form of a full block: for each column d with
// fewer than flatSparseMax non-zeros, cols[d] lists them as (row, value)
// pairs in row order; dense[d] marks the other columns, which a scan
// reads from the block itself.
type sealedBlock struct {
	dense []bool
	cols  [][]rowValue
	pairs []rowValue // backing array of cols
}

// rowValue is one non-zero of a sparse column: its row within the block
// and its value.
type rowValue struct {
	row uint32
	v   float32
}

// flatSparseMax is the non-zero count from which a sealed column is
// scanned densely. A pair costs about 1.5 times a dense row
// (BenchmarkFlatColumnKernels on a 2-vCPU Xeon: ~1.0 ns per pair against
// ~0.65 ns per row), so pairs pay up to about two thirds of the block,
// and half leaves a margin. On the prep-rag benchmark's index (seed 1:
// 13,208 chunks, its 1,100 questions, one worker) a search took 154 µs
// with this cut, 168 µs with a third, 156 µs with 0.6, 158 µs with every
// column as pairs and 275 µs with every column dense.
const flatSparseMax = flatBlockRows / 2

// DistComps implements DistCounter.
func (f *Flat) DistComps() uint64 { return f.dists.Load() }

// NewFlat returns an empty exact index for dim-dimensional vectors.
func NewFlat(dim int) *Flat {
	return &Flat{dim: dim, blocks: make([][]float32, 1), sealed: make([]*sealedBlock, 1), pos: make(map[string]int)}
}

// Dim implements Index.
func (f *Flat) Dim() int { return f.dim }

// Len implements Index.
func (f *Flat) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.ids)
}

// Add implements Index. It also returns ErrNonFinite, storing nothing,
// when vec has a NaN or infinite coordinate: such a value has no place
// in the strict total order results are ranked by (see beats), and it
// would make the sparse scan differ from a dense inner product, where
// 0 × Inf is NaN.
func (f *Flat) Add(id string, vec []float32) error {
	if len(vec) != f.dim {
		return fmt.Errorf("%w: got %d want %d", ErrDimension, len(vec), f.dim)
	}
	for d, x := range vec {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return fmt.Errorf("%w: %q coordinate %d is %v", ErrNonFinite, id, d, x)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.pos[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	f.grow()
	row := len(f.ids)
	f.pos[id] = row
	f.ids = append(f.ids, id)
	blk, r := f.blocks[row/flatBlockRows], row%flatBlockRows
	for d, x := range vec {
		blk[d*f.blockCap+r] = x
	}
	if r == flatBlockRows-1 {
		f.seal(row / flatBlockRows)
	}
	return nil
}

// seal records the sparse columns of full block b in f.sealed[b],
// reusing the memory of its previous seal. Must be called with f.mu
// held.
func (f *Flat) seal(b int) {
	s := f.sealed[b]
	if s == nil {
		s = &sealedBlock{dense: make([]bool, f.dim), cols: make([][]rowValue, f.dim)}
		f.sealed[b] = s
	}
	blk := f.blocks[b]
	total := 0
	for d := range s.dense {
		nz := 0
		for _, x := range blk[d*flatBlockRows : (d+1)*flatBlockRows] {
			nz += nonZero(x)
		}
		s.dense[d] = nz >= flatSparseMax
		if !s.dense[d] {
			total += nz
		}
	}
	// One spare slot: the fill below writes each row's pair before it
	// knows whether to keep it.
	s.pairs = slices.Grow(s.pairs[:0], total+1)[:total+1]
	n := 0
	for d, dense := range s.dense {
		start := n
		if !dense {
			for r, x := range blk[d*flatBlockRows : (d+1)*flatBlockRows] {
				s.pairs[n] = rowValue{row: uint32(r), v: x}
				n += nonZero(x)
			}
		}
		s.cols[d] = s.pairs[start:n:n]
	}
	s.pairs = s.pairs[:n]
}

// nonZero is 1 when x is not ±0, else 0, without a branch.
func nonZero(x float32) int {
	return int((math.Float32bits(x)&0x7fffffff + 0x7fffffff) >> 31)
}

// grow makes room for row len(f.ids): it doubles the first block,
// moving its columns to the new stride, until that block is full, then
// appends whole blocks. Must be called with f.mu held.
func (f *Flat) grow() {
	n := len(f.ids)
	switch {
	case f.blockCap == flatBlockRows:
		if n == len(f.blocks)*flatBlockRows {
			f.blocks = append(f.blocks, make([]float32, flatBlockRows*f.dim))
			f.sealed = append(f.sealed, nil)
		}
	case n == f.blockCap:
		c := max(2*f.blockCap, 1)
		blk := make([]float32, c*f.dim)
		for d := 0; d < f.dim; d++ {
			copy(blk[d*c:d*c+n], f.blocks[0][d*f.blockCap:])
		}
		f.blocks[0], f.blockCap = blk, c
	}
}

// row copies stored row i into dst. Must be called with f.mu read-held.
func (f *Flat) row(i int, dst []float32) {
	blk, r := f.blocks[i/flatBlockRows], i%flatBlockRows
	for d := range dst {
		dst[d] = blk[d*f.blockCap+r]
	}
}

// Get returns a copy of the stored vector for id: writing to it does
// not change the index.
func (f *Flat) Get(id string) ([]float32, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	i, ok := f.pos[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	v := make([]float32, f.dim)
	f.row(i, v)
	return v, nil
}

// Search implements Index.
func (f *Flat) Search(query []float32, k int) ([]Result, error) {
	return f.SearchFilter(query, k, nil)
}

// SearchFilter is Search restricted to ids accepted by keep. A nil keep
// accepts everything. Filtered search supports the data-lake linking
// experiments, which search within one modality at a time.
//
// When the index's parallelism (SetParallelism, default GOMAXPROCS) is
// above 1 and the query's scan work reaches flatParallelWork, the scan
// shards across workers; keep must then be safe for concurrent calls
// (the pure closures callers pass already are). Sharding never changes
// the result: see scanShards.
func (f *Flat) SearchFilter(query []float32, k int, keep func(id string) bool) ([]Result, error) {
	return f.searchOne(query, k, keep, f.searchWorkers())
}

// flatParallelWork is the scan work (see scanWork) below which a
// sharded scan is not worth the fan-out overhead. A row count cannot
// say this: a sealed block of the prep-rag benchmark's shape scans
// about six times cheaper than a dense one. BenchmarkParFlatSearchAtMin
// times one and two workers on indexes sized so their query's work is
// just at the threshold. On a 2-vCPU Xeon, with internal/par's helper
// awake, at 49152 two workers won on both shapes in 10 of 10 runs: a
// dense 768 × 64 index (w1 0.048, w2 0.035 ms, w2 faster in 80–88% of
// searches) and the prep-rag shape (7,003 rows; 0.082 against
// 0.061 ms, 60–95%). At 32768 the prep-rag shape (2,989 rows) only
// broke even (0.041 against 0.040 ms, w2 faster in 8 of 10 runs and
// 41–76% of searches). Every search of the prep-rag benchmark's index
// (13k rows, work from 70k up at every seed checked) shards
// (BENCH_par.json, prep_fanout.flat_parallel_work).
const flatParallelWork = 49152

// searchOne runs one scan at the given worker count, sharded when the
// query's work reaches flatParallelWork.
func (f *Flat) searchOne(query []float32, k int, keep func(id string) bool, workers int) ([]Result, error) {
	return f.searchShards(query, k, keep, workers, flatParallelWork)
}

// searchShards is searchOne with the work from which the scan shards as
// a parameter; the tests pass 0 to shard every scan.
func (f *Flat) searchShards(query []float32, k int, keep func(id string) bool, workers, minWork int) ([]Result, error) {
	if len(query) != f.dim {
		return nil, fmt.Errorf("%w: got %d want %d", ErrDimension, len(query), f.dim)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := len(f.ids)
	if n == 0 {
		return nil, ErrEmptyIndex
	}
	if workers > 1 && f.scanWork(query) >= minWork {
		return f.scanShards(query, k, keep, workers), nil
	}
	h := newTopK(k)
	f.dists.Add(f.scan(query, 0, n, keep, h))
	return h.sorted(), nil
}

// scanWork is the number of multiply-adds a full scan of query makes:
// for each non-zero query coordinate, the pairs of that column in every
// sealed block where it is sparse, plus the rows of every block where it
// is dense or that is not sealed. Must be called with f.mu read-held.
func (f *Flat) scanWork(query []float32) int {
	work := 0
	for d, qd := range query {
		if qd == 0 {
			continue
		}
		for b, s := range f.sealed {
			switch {
			case s == nil:
				work += len(f.ids) - b*flatBlockRows // only the last block is unsealed
			case s.dense[d]:
				work += flatBlockRows
			default:
				work += len(s.cols[d])
			}
		}
	}
	return work
}

// scan scores rows [lo, hi) against query, offers every row keep accepts
// to h in row order, and returns how many it offered.
//
// Each block is scored column by column: for every non-zero query
// coordinate d, in ascending order, q[d]·v[d] is added to each row's
// running score in an on-stack buffer. A sealed block's sparse column
// adds only its non-zeros (clipped to the rows scanned); other columns
// add every row. A row's score is therefore exactly embed.Dot(query, v)
// — the same float32 products, added in the same order, starting from
// +0 — minus terms where q[d] or v[d] is zero. Skipping those cannot
// change a bit: the other factor is finite (Add refuses anything else),
// so the skipped product is ±0; a sum that starts at +0 can never become
// -0, and adding ±0 to anything other than -0 returns it unchanged.
//
// Must be called with f.mu read-held.
func (f *Flat) scan(query []float32, lo, hi int, keep func(id string) bool, h *topK) uint64 {
	var buf [flatBlockRows]float32
	var nzBuf [256]int32 // the embedders' default dimension; more spill to the heap
	nz := nzBuf[:0]      // the query's non-zero coordinates, in ascending order
	for d, qd := range query {
		if qd != 0 {
			nz = append(nz, int32(d))
		}
	}
	var dots uint64
	for lo < hi {
		b, r0 := lo/flatBlockRows, lo%flatBlockRows
		r1 := min(r0+hi-lo, flatBlockRows)
		blk, s := f.blocks[b], f.sealed[b]
		scores := buf[r0:r1]
		clear(scores)
		for _, d := range nz {
			qd := query[d]
			if s == nil || s.dense[d] {
				addScaled(scores, blk[int(d)*f.blockCap+r0:], qd)
				continue
			}
			col := s.cols[d]
			if r0 > 0 || r1 < flatBlockRows {
				col = clipRows(col, r0, r1)
			}
			addPairs(&buf, col, qd)
		}
		dots += h.offerRows(scores, f.ids[lo:lo+len(scores)], keep)
		lo += len(scores)
	}
	return dots
}

// clipRows returns the pairs of col, which is in row order, whose rows
// lie in [r0, r1).
func clipRows(col []rowValue, r0, r1 int) []rowValue {
	lo, _ := slices.BinarySearchFunc(col, uint32(r0), func(p rowValue, r uint32) int { return cmp.Compare(p.row, r) })
	hi, _ := slices.BinarySearchFunc(col, uint32(r1), func(p rowValue, r uint32) int { return cmp.Compare(p.row, r) })
	return col[lo:hi]
}

// addPairs adds q·v to scores[row] for every (row, v) pair of col. Like
// addScaled, it handles four entries per iteration, which cut its cost
// per pair by about a quarter (BenchmarkFlatColumnKernels), and stays out
// of line.
//
//go:noinline
func addPairs(scores *[flatBlockRows]float32, col []rowValue, q float32) {
	i := 0
	for ; i+4 <= len(col); i += 4 {
		p := col[i : i+4 : i+4]
		scores[p[0].row%flatBlockRows] += q * p[0].v
		scores[p[1].row%flatBlockRows] += q * p[1].v
		scores[p[2].row%flatBlockRows] += q * p[2].v
		scores[p[3].row%flatBlockRows] += q * p[3].v
	}
	for ; i < len(col); i++ {
		scores[col[i].row%flatBlockRows] += q * col[i].v
	}
}

// addScaled adds q·col[r] to scores[r] for every row r of scores.
//
// It handles four rows per iteration and stays out of line, so its loop
// keeps its counters in registers instead of spilling them around scan's
// large frame. The plain one-row loop inlined into scan was at the mercy
// of where the linker put it: on a 2-vCPU Xeon the same 4096 × 64 serial
// scan read 0.25 or 0.41 ms depending on the loop's offset within a
// 64-byte line, where this form read 0.23–0.27 ms at every offset tried.
//
//go:noinline
func addScaled(scores, col []float32, q float32) {
	col = col[:len(scores)]
	r := 0
	for ; r+4 <= len(col); r += 4 {
		s, c := scores[r:r+4:r+4], col[r:r+4:r+4]
		s[0] += q * c[0]
		s[1] += q * c[1]
		s[2] += q * c[2]
		s[3] += q * c[3]
	}
	for ; r < len(col); r++ {
		scores[r] += q * col[r]
	}
}

// flatShard is one shard's contribution to a sharded scan: its local
// top-k heap and its own count of inner products evaluated.
type flatShard struct {
	h    *topK
	dots uint64
}

// scanShards is the parallel Flat scan: the rows are split into
// contiguous shards, each shard selects its local top-k under the same
// strict total order the serial scan uses (see beats), and shards merge
// in shard-index order. Determinism is by construction, not by luck:
//
//   - a row's score does not depend on which shard, or which part of a
//     block, scores it (see scan), and topK selection under a strict
//     total order is a pure function of the candidate multiset (offer
//     order cannot matter), so merging the shard-local top-ks yields
//     exactly the serial scan's top-k;
//   - every stored vector is scored in exactly one shard, and the
//     per-shard uint64 counts sum — integer addition is associative —
//     to exactly the serial DistComps increment.
//
// Must be called with f.mu read-held.
func (f *Flat) scanShards(query []float32, k int, keep func(id string) bool, workers int) []Result {
	parts := par.MapChunks(len(f.ids), workers, func(_, lo, hi int) flatShard {
		sh := flatShard{h: newTopK(k)}
		sh.dots = f.scan(query, lo, hi, keep, sh.h)
		return sh
	})
	h := newTopK(k)
	var dots uint64
	for _, sh := range parts {
		dots += sh.dots
		for _, r := range sh.h.items {
			h.offer(r)
		}
	}
	f.dists.Add(dots)
	return h.sorted()
}

// beats reports whether a ranks strictly ahead of b in result order:
// higher score first, score ties by ascending ID. Because IDs are
// unique within an index, this is a strict total order over candidates
// — which makes streaming top-k selection a pure function of the
// candidate multiset, independent of offer order. That property is what
// lets the sharded parallel scan (scanShards) and the serial scan
// produce byte-identical results, and it also pins tie behaviour at the
// k boundary to something principled instead of heap happenstance.
func beats(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// topK keeps the k best results seen so far using a min-heap under the
// beats total order (the root is the worst kept candidate). items is
// preallocated to capacity k so a full search performs exactly one
// allocation for the heap regardless of how many candidates it sees.
type topK struct {
	k     int
	items []Result
}

func newTopK(k int) *topK {
	if k < 1 {
		k = 1
	}
	return &topK{k: k, items: make([]Result, 0, k)}
}

func (h *topK) Len() int           { return len(h.items) }
func (h *topK) Less(i, j int) bool { return beats(h.items[j], h.items[i]) }
func (h *topK) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *topK) Push(x interface{}) { h.items = append(h.items, x.(Result)) }
func (h *topK) Pop() interface{} {
	n := len(h.items)
	it := h.items[n-1]
	h.items = h.items[:n-1]
	return it
}

// offerRows offers each row keep accepts, in order, as the Result of
// ids[r] and scores[r], and returns how many it offered. A row scoring
// below a full heap's root cannot beat it (see beats), so it is counted
// but builds no Result.
func (h *topK) offerRows(scores []float32, ids []string, keep func(id string) bool) uint64 {
	ids = ids[:len(scores)]
	var offered uint64
	full, root := h.full()
	for r, sc := range scores {
		if keep != nil && !keep(ids[r]) {
			continue
		}
		offered++
		if full && sc < root {
			continue
		}
		h.offer(Result{ID: ids[r], Score: sc})
		full, root = h.full()
	}
	return offered
}

// full reports whether h holds k results and, if so, the root's score.
func (h *topK) full() (bool, float32) {
	if len(h.items) < h.k {
		return false, 0
	}
	return true, h.items[0].Score
}

func (h *topK) offer(r Result) {
	if len(h.items) < h.k {
		heap.Push(h, r)
		return
	}
	if beats(r, h.items[0]) {
		h.items[0] = r
		heap.Fix(h, 0)
	}
}

// sorted drains the heap into a best-first slice under the same total
// order selection used, so output order is deterministic too.
func (h *topK) sorted() []Result {
	out := make([]Result, len(h.items))
	copy(out, h.items)
	sort.Slice(out, func(i, j int) bool { return beats(out[i], out[j]) })
	return out
}

// Recall computes recall@k of got against an exact result set: the
// fraction of want ids that appear in got. Used by the E16 experiment.
func Recall(got, want []Result) float64 {
	if len(want) == 0 {
		return 1
	}
	set := make(map[string]bool, len(got))
	for _, r := range got {
		set[r.ID] = true
	}
	hit := 0
	for _, r := range want {
		if set[r.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}
