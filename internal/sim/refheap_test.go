package sim

import "container/heap"

// newHeapEngine returns an engine backed by the seed's container/heap
// queue. It is the reference implementation the differential tests and
// the BENCH_sim baseline run against; production callers use NewEngine.
func newHeapEngine() *Engine {
	return &Engine{queue: &heapQueue{}}
}

// heapQueue is the seed engine's event queue: a single container/heap
// min-heap ordered by (time, seq). It is kept verbatim as the reference
// implementation — the differential fuzz tests in diff_test.go run every
// schedule through both queues and assert identical firing order, and
// BENCH_sim.json's heap-vs-calendar comparison measures against it. Note
// heap.Push takes `any`, so every scheduled event pays one boxing
// allocation; that, plus O(log n) sift per operation, is what the
// calendar queue removes.
type heapQueue struct {
	h eventHeap
}

func (q *heapQueue) push(e event) { heap.Push(&q.h, e) }
func (q *heapQueue) size() int    { return len(q.h) }
func (q *heapQueue) pop() (event, bool) {
	if len(q.h) == 0 {
		return event{}, false
	}
	return heap.Pop(&q.h).(event), true
}

// eventHeap orders events by (time, seq).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = event{}
	*h = old[:n-1]
	return e
}
