package sim

import (
	"slices"
	"sort"
)

// The calendar queue: a fixed wheel of time buckets covering the near
// future plus a min-heap for everything beyond the horizon.
//
// Layout. The wheel has calBuckets buckets of calWidth logical ms each;
// buckets[cursor] covers [base, base+calWidth) and bucket (cursor+i)
// covers [base+i*calWidth, ...). An event whose time falls inside the
// horizon is appended to its bucket unsorted; events at or past the
// horizon go to the overflow heap and are pulled into the wheel lazily
// as base advances past the point where they fit.
//
// Ordering. A bucket is sorted by (time, seq) once, the first time pop
// drains from it. Handlers that schedule while the bucket is draining
// either land in a later bucket (plain append) or at the current instant
// (clamped to now), in which case they are placed by binary search into
// the still-undrained sorted tail — the only insertion the queue ever
// shifts elements for, and in practice a tail of length 0 or 1 (the
// After(0) kick chain). seq is unique, so the sort's permutation is
// deterministic whether or not the algorithm is stable, and the pop
// sequence is exactly the (time, seq) total order the Engine promises.
//
// Cost. For the clustered schedules serving workloads produce (many
// events per millisecond), push is an append and pop is an index bump:
// amortized O(1), no per-event allocation once bucket capacity has
// grown. The heap only sees far-future events, which enter and leave it
// once each; a trace's arrivals are streamed (Engine.Stream), so it
// holds at most the next one of them. Sparse stretches cost one
// empty-bucket step per calWidth of simulated silence; a fully empty
// wheel jumps straight to the overflow's next epoch instead of crawling.
const (
	calBuckets = 1024
	calMask    = calBuckets - 1
	calWidth   = 1.0 // logical ms per bucket
)

type calQueue struct {
	base    float64 // start time of buckets[cursor]
	cursor  int     // wheel index of the current bucket
	curIdx  int     // drain position within the current bucket
	entered bool    // current bucket sorted; [curIdx:] is its sorted tail
	wheel   int     // events resident in wheel buckets
	buckets [calBuckets][]event
	over    overflowHeap // events at or beyond the horizon
}

func newCalQueue() *calQueue {
	return &calQueue{}
}

func (q *calQueue) size() int { return q.wheel + len(q.over) }

func (q *calQueue) push(e event) {
	// The mapping d = (t-base)/width is monotone in t, so even when two
	// nearby times straddle a bucket boundary differently than exact
	// arithmetic would place them, earlier times never map to later
	// buckets — the per-bucket sort restores the exact (time, seq) order.
	d := (e.time - q.base) / calWidth
	if d >= calBuckets {
		q.over.push(e)
		return
	}
	idx := int(d)
	if idx < 0 {
		// Clamped-to-now events can sit fractionally before base after
		// the cursor advanced; they belong to the current bucket.
		idx = 0
	}
	if idx == 0 && q.entered {
		// The current bucket is mid-drain: keep its undrained tail
		// sorted by inserting in place.
		b := q.buckets[q.cursor]
		tail := b[q.curIdx:]
		pos := q.curIdx + sort.Search(len(tail), func(i int) bool {
			return eventCmp(e, tail[i]) < 0
		})
		b = append(b, event{})
		copy(b[pos+1:], b[pos:])
		b[pos] = e
		q.buckets[q.cursor] = b
	} else {
		slot := (q.cursor + idx) & calMask
		q.buckets[slot] = append(q.buckets[slot], e)
	}
	q.wheel++
}

func (q *calQueue) pop() (event, bool) {
	for {
		if q.wheel == 0 {
			if len(q.over) == 0 {
				return event{}, false
			}
			q.jump()
			continue
		}
		b := q.buckets[q.cursor]
		if q.curIdx < len(b) {
			if !q.entered {
				slices.SortFunc(b, eventCmp)
				q.entered = true
			}
			e := b[q.curIdx]
			b[q.curIdx] = event{} // release the handler for GC
			q.curIdx++
			q.wheel--
			if q.curIdx == len(b) {
				// Bucket drained: reset it (keeping capacity) so pushes
				// at the current instant start a fresh sorted tail.
				q.buckets[q.cursor] = b[:0]
				q.curIdx = 0
			}
			return e, true
		}
		q.advance()
	}
}

// advance moves the cursor to the next bucket and pulls any overflow
// events that now fall inside the horizon into their wheel buckets.
func (q *calQueue) advance() {
	q.buckets[q.cursor] = q.buckets[q.cursor][:0]
	q.cursor = (q.cursor + 1) & calMask
	q.base += calWidth
	q.curIdx = 0
	q.entered = false
	q.pull()
}

// jump is advance for an empty wheel: instead of stepping bucket by
// bucket through simulated silence, move base directly to the overflow
// head's epoch and refill from there.
func (q *calQueue) jump() {
	t := q.over[0].time
	if d := (t - q.base) / calWidth; d >= calBuckets {
		q.base = t
	} else if d >= 1 {
		steps := int(d)
		q.cursor = (q.cursor + steps) & calMask
		q.base += float64(steps) * calWidth
	}
	q.curIdx = 0
	q.entered = false
	q.pull()
}

// pull drains overflow events that fit inside the wheel horizon into
// their buckets.
func (q *calQueue) pull() {
	for len(q.over) > 0 {
		d := (q.over[0].time - q.base) / calWidth
		if d >= calBuckets {
			return
		}
		e := q.over.pop()
		idx := int(d)
		if idx < 0 {
			idx = 0
		}
		slot := (q.cursor + idx) & calMask
		q.buckets[slot] = append(q.buckets[slot], e)
		q.wheel++
	}
}

// overflowHeap is a plain min-heap of events ordered by (time, seq). It
// is hand-rolled rather than container/heap because the interface-based
// heap boxes every pushed event into an `any`, which is exactly the
// per-event allocation this queue exists to remove.
type overflowHeap []event

func (h *overflowHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if eventCmp(s[i], s[parent]) >= 0 {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *overflowHeap) pop() event {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = event{} // release the handler for GC
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && eventCmp(s[l], s[min]) < 0 {
			min = l
		}
		if r < n && eventCmp(s[r], s[min]) < 0 {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}
