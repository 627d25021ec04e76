package serving

import "dataai/internal/workload"

// This file holds the serving layer's steady-state allocation machinery:
// a free-listed pool of seqStates and a ring deque for instance queues.
// Together with the engine's argument-carrying events (sim.AtArg binding
// one handler per instance instead of one closure per event) they take
// the per-request cost of a run down to zero heap allocations once pools
// and rings have warmed up — which is what makes million-request traces
// affordable (see BENCH_sim.json).

// seqSlab is how many seqStates a pool carves per backing allocation.
const seqSlab = 256

// seqPool recycles seqStates within one run. Engines are
// single-threaded, so the pool needs no locking; a sequence is released
// exactly once — by instance.finish after its Result has been handed to
// onFinish, or by the post-run drain loop after reporting it rejected
// (crash-dropped and migrating sequences stay live in between: they
// travel to another instance; admission-impossible rejects are reported
// straight from their request, never pooled).
type seqPool struct {
	free []*seqState
	// outstanding counts live sequences (gets minus puts). After a
	// routed run drains — crashes, migrations, and all — it must be
	// zero: every sequence either finished (pooled by instance.finish)
	// or was reported rejected and pooled by the drain loop. The
	// post-drain invariant test pins this alongside KV occupancy.
	outstanding int
	// stamps issues join stamps (instance.join). Every instance of a run
	// shares the run's pool, so a stamp names one join across the run
	// and a finish-heap entry stays stale after its sequence moves on.
	stamps uint64
}

// get returns a zeroed seqState carrying req.
func (p *seqPool) get(req workload.Request) *seqState {
	n := len(p.free)
	if n == 0 {
		slab := make([]seqState, seqSlab)
		for i := range slab {
			p.free = append(p.free, &slab[i])
		}
		n = len(p.free)
	}
	s := p.free[n-1]
	p.free = p.free[:n-1]
	s.req = req
	p.outstanding++
	return s
}

// put zeroes s (releasing its request and span refs) and returns it to
// the free list.
func (p *seqPool) put(s *seqState) {
	if p == nil {
		return
	}
	*s = seqState{}
	p.free = append(p.free, s)
	p.outstanding--
}

// seqRing is a growable ring deque of sequences — an instance's waiting
// and prefill queues. The historical code used plain slices, which leak
// the popped head (`q = q[1:]`) and reallocate the whole queue to push a
// preempted victim back at the front; the ring does both in O(1) with no
// steady-state allocation, and pops nil the vacated slot so finished
// sequences can be pooled without the queue pinning them.
type seqRing struct {
	buf  []*seqState
	head int
	n    int
}

// Len reports the number of queued sequences.
func (q *seqRing) Len() int { return q.n }

// At returns the i-th sequence from the front (0 <= i < Len).
func (q *seqRing) At(i int) *seqState {
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// Front returns the head without removing it.
func (q *seqRing) Front() *seqState { return q.At(0) }

func (q *seqRing) grow() {
	size := len(q.buf) * 2
	if size == 0 {
		size = 16
	}
	buf := make([]*seqState, size) // power of two: grow doubles, start 16
	for i := 0; i < q.n; i++ {
		buf[i] = q.At(i)
	}
	q.buf = buf
	q.head = 0
}

// PushBack appends s at the tail.
func (q *seqRing) PushBack(s *seqState) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = s
	q.n++
}

// PushFront prepends s at the head — how a preempted victim rejoins the
// waiting queue first in line.
func (q *seqRing) PushFront(s *seqState) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = s
	q.n++
}

// RemoveAt removes and returns the i-th sequence from the front
// (0 <= i < Len) — how a priority scheduler admits out of FCFS order.
// The shorter side of the ring shifts to close the gap, so RemoveAt(0)
// is PopFront and the worst case moves n/2 pointers; the vacated slot is
// nilled like every pop so the queue never pins a finished sequence.
func (q *seqRing) RemoveAt(i int) *seqState {
	s := q.At(i)
	mask := len(q.buf) - 1
	if i < q.n-1-i {
		for j := i; j > 0; j-- {
			q.buf[(q.head+j)&mask] = q.buf[(q.head+j-1)&mask]
		}
		q.buf[q.head] = nil
		q.head = (q.head + 1) & mask
	} else {
		for j := i; j < q.n-1; j++ {
			q.buf[(q.head+j)&mask] = q.buf[(q.head+j+1)&mask]
		}
		q.buf[(q.head+q.n-1)&mask] = nil
	}
	q.n--
	return s
}

// PopFront removes and returns the head.
func (q *seqRing) PopFront() *seqState {
	s := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return s
}

// Clear empties the ring, nilling every slot for GC.
func (q *seqRing) Clear() {
	for i := 0; i < q.n; i++ {
		q.buf[(q.head+i)&(len(q.buf)-1)] = nil
	}
	q.head, q.n = 0, 0
}
