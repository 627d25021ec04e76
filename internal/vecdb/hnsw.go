package vecdb

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"dataai/internal/embed"
)

// HNSW is a hierarchical navigable small world graph index (Malkov &
// Yashunin). Inner product is the similarity; construction is
// deterministic for a given seed and insertion order.
type HNSW struct {
	parallelism
	mu             sync.RWMutex
	dim            int
	m              int // max links per node on upper levels
	m0             int // max links on level 0
	efConstruction int
	efSearch       int
	levelMult      float64
	rng            *rand.Rand

	nodes []*hnswNode
	pos   map[string]int
	entry int // index into nodes, -1 when empty
	top   int // highest level in the graph
	// tombstones marks deleted nodes: they still route searches but are
	// excluded from results (see delete.go).
	tombstones map[int]bool
	dists      atomic.Uint64
}

// DistComps implements DistCounter.
func (h *HNSW) DistComps() uint64 { return h.dists.Load() }

type hnswNode struct {
	id  string
	vec []float32
	// links[l] lists neighbor node indexes at each level l the node is on.
	links [][]int
}

// NewHNSW returns an empty HNSW index. m is the graph degree (16 is a
// conventional default), efConstruction the construction beam width.
func NewHNSW(dim, m, efConstruction int, seed int64) *HNSW {
	if m < 2 {
		m = 2
	}
	if efConstruction < m {
		efConstruction = m
	}
	return &HNSW{
		dim:            dim,
		m:              m,
		m0:             2 * m,
		efConstruction: efConstruction,
		efSearch:       efConstruction,
		levelMult:      1 / math.Log(float64(m)),
		rng:            rand.New(rand.NewSource(seed)),
		pos:            make(map[string]int),
		entry:          -1,
	}
}

// SetEFSearch sets the search beam width (the recall/latency knob swept
// in experiment E16). Values below 1 are clamped to 1.
func (h *HNSW) SetEFSearch(ef int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ef < 1 {
		ef = 1
	}
	h.efSearch = ef
}

// Dim implements Index.
func (h *HNSW) Dim() int { return h.dim }

// Len implements Index.
func (h *HNSW) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.nodes) - len(h.tombstones)
}

func (h *HNSW) maxLinks(level int) int {
	if level == 0 {
		return h.m0
	}
	return h.m
}

// Add implements Index.
func (h *HNSW) Add(id string, vec []float32) error {
	if len(vec) != h.dim {
		return fmt.Errorf("%w: got %d want %d", ErrDimension, len(vec), h.dim)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.pos[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	cp := make([]float32, len(vec))
	copy(cp, vec)
	level := int(math.Floor(-math.Log(h.rng.Float64()+1e-12) * h.levelMult))
	n := &hnswNode{id: id, vec: cp, links: make([][]int, level+1)}
	idx := len(h.nodes)
	h.nodes = append(h.nodes, n)
	h.pos[id] = idx

	if h.entry < 0 {
		h.entry, h.top = idx, level
		return nil
	}

	ep := h.entry
	// Greedy descent through levels above the new node's level.
	for l := h.top; l > level; l-- {
		ep = h.greedyClosest(cp, ep, l)
	}
	// Insert with beam search on each level the node participates in.
	for l := min(level, h.top); l >= 0; l-- {
		cands := h.searchLayer(cp, ep, h.efConstruction, l)
		maxL := h.maxLinks(l)
		neighbors := h.selectNeighbors(cands, maxL)
		n.links[l] = append([]int(nil), neighbors...)
		for _, nb := range neighbors {
			nbNode := h.nodes[nb]
			nbNode.links[l] = append(nbNode.links[l], idx)
			if len(nbNode.links[l]) > maxL {
				nbNode.links[l] = h.shrink(nbNode.vec, nbNode.links[l], maxL)
			}
		}
		if len(cands) > 0 {
			ep = cands[0].node
		}
	}
	if level > h.top {
		h.top, h.entry = level, idx
	}
	return nil
}

type scored struct {
	node int
	dot  float32
}

// greedyClosest walks level l edges greedily toward vec.
func (h *HNSW) greedyClosest(vec []float32, ep, l int) int {
	cur := ep
	curDot := embed.Dot(vec, h.nodes[cur].vec)
	dots := uint64(1)
	for {
		improved := false
		node := h.nodes[cur]
		if l < len(node.links) {
			dots += uint64(len(node.links[l]))
			for _, nb := range node.links[l] {
				if d := embed.Dot(vec, h.nodes[nb].vec); d > curDot {
					cur, curDot = nb, d
					improved = true
				}
			}
		}
		if !improved {
			h.dists.Add(dots)
			return cur
		}
	}
}

// searchLayer runs a beam search of width ef on level l starting at ep,
// returning candidates sorted most similar first.
func (h *HNSW) searchLayer(vec []float32, ep, ef, l int) []scored {
	visited := map[int]bool{ep: true}
	epDot := embed.Dot(vec, h.nodes[ep].vec)
	dots := uint64(1)
	defer func() { h.dists.Add(dots) }()
	cand := &maxHeap{{ep, epDot}}
	result := &minHeap{{ep, epDot}}
	for cand.Len() > 0 {
		c := heap.Pop(cand).(scored)
		if result.Len() >= ef && c.dot < (*result)[0].dot {
			break
		}
		node := h.nodes[c.node]
		if l >= len(node.links) {
			continue
		}
		for _, nb := range node.links[l] {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			dots++
			d := embed.Dot(vec, h.nodes[nb].vec)
			if result.Len() < ef || d > (*result)[0].dot {
				heap.Push(cand, scored{nb, d})
				heap.Push(result, scored{nb, d})
				if result.Len() > ef {
					heap.Pop(result)
				}
			}
		}
	}
	out := make([]scored, result.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(result).(scored)
	}
	return out
}

// selectNeighbors keeps the top max candidates by similarity.
func (h *HNSW) selectNeighbors(cands []scored, max int) []int {
	if len(cands) > max {
		cands = cands[:max]
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.node
	}
	return out
}

// shrink re-selects the best max links for a node whose list overflowed.
func (h *HNSW) shrink(vec []float32, links []int, max int) []int {
	cands := make([]scored, len(links))
	h.dists.Add(uint64(len(links)))
	for i, nb := range links {
		cands[i] = scored{nb, embed.Dot(vec, h.nodes[nb].vec)}
	}
	// Partial selection sort for the top max — lists are small.
	for i := 0; i < max && i < len(cands); i++ {
		best := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].dot > cands[best].dot {
				best = j
			}
		}
		cands[i], cands[best] = cands[best], cands[i]
	}
	if len(cands) > max {
		cands = cands[:max]
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.node
	}
	return out
}

// Search implements Index.
func (h *HNSW) Search(query []float32, k int) ([]Result, error) {
	if len(query) != h.dim {
		return nil, fmt.Errorf("%w: got %d want %d", ErrDimension, len(query), h.dim)
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.entry < 0 {
		return nil, ErrEmptyIndex
	}
	ep := h.entry
	for l := h.top; l > 0; l-- {
		ep = h.greedyClosest(query, ep, l)
	}
	ef := h.efSearch
	if ef < k {
		ef = k
	}
	// Tombstoned nodes still route but cannot be returned; widen the
	// beam so k live results survive the filter.
	ef += len(h.tombstones)
	cands := h.searchLayer(query, ep, ef, 0)
	tk := newTopK(k)
	for _, c := range cands {
		if h.tombstones[c.node] {
			continue
		}
		tk.offer(Result{ID: h.nodes[c.node].id, Score: c.dot})
	}
	return tk.sorted(), nil
}

// maxHeap pops the highest-dot candidate first.
type maxHeap []scored

func (q maxHeap) Len() int            { return len(q) }
func (q maxHeap) Less(i, j int) bool  { return q[i].dot > q[j].dot }
func (q maxHeap) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *maxHeap) Push(x interface{}) { *q = append(*q, x.(scored)) }
func (q *maxHeap) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// minHeap pops the lowest-dot result first (for bounding the beam).
type minHeap []scored

func (q minHeap) Len() int            { return len(q) }
func (q minHeap) Less(i, j int) bool  { return q[i].dot < q[j].dot }
func (q minHeap) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *minHeap) Push(x interface{}) { *q = append(*q, x.(scored)) }
func (q *minHeap) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}
