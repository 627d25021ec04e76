// Package work exercises the parcapture analyzer: closures handed to
// the par entry points that mutate captured state, next to every
// accepted idiom.
package work

import (
	"sync"

	"fix/internal/par"
)

// BadSum accumulates into a captured variable: the total depends on
// goroutine interleaving under the real par.
func BadSum(xs []float64) float64 {
	sum := 0.0
	par.ForEach(len(xs), 4, func(i int) {
		sum += xs[i] // want `closure passed to par\.ForEach writes captured "sum" without synchronization`
	})
	return sum
}

// BadAppend grows a captured slice from workers.
func BadAppend(xs []int) []int {
	var out []int
	_ = par.Map(len(xs), 4, func(i int) int {
		out = append(out, xs[i]) // want `closure passed to par\.Map writes captured "out" without synchronization`
		return xs[i]
	})
	return out
}

// BadMapWrite writes a captured map: concurrent map writes fault even
// on disjoint keys.
func BadMapWrite(xs []int) map[int]int {
	m := map[int]int{}
	par.ForEach(len(xs), 4, func(i int) {
		m[i] = xs[i] // want `closure passed to par\.ForEach writes captured "m" without synchronization`
	})
	return m
}

// BadCount uses ++ on a captured counter inside a MapChunks chunk.
func BadCount(xs []int) int {
	seen := 0
	_ = par.MapChunks(len(xs), 4, func(_, lo, hi int) int {
		seen++ // want `closure passed to par\.MapChunks writes captured "seen" without synchronization`
		return hi - lo
	})
	return seen
}

// GoodSlots writes disjoint per-index slots: deterministic by
// construction.
func GoodSlots(xs []int) []int {
	out := make([]int, len(xs))
	par.ForEach(len(xs), 4, func(i int) {
		out[i] = xs[i] * 2
	})
	return out
}

// GoodChunks writes only chunk-local slots through a closure-local
// index.
func GoodChunks(xs []int) []int {
	out := make([]int, len(xs))
	_ = par.MapChunks(len(xs), 4, func(_, lo, hi int) int {
		for j := lo; j < hi; j++ {
			out[j] = xs[j] + 1
		}
		return hi - lo
	})
	return out
}

// GoodLocked synchronizes: commit order is the author's design, not the
// analyzer's call.
func GoodLocked(xs []int) int {
	var mu sync.Mutex
	total := 0
	par.ForEach(len(xs), 4, func(i int) {
		mu.Lock()
		total += xs[i]
		mu.Unlock()
	})
	return total
}

// GoodReturn commits through return values, the canonical idiom.
func GoodReturn(xs []int) []int {
	return par.Map(len(xs), 4, func(i int) int { return xs[i] * 3 })
}

// GoodGrid mirrors sim.Sweep's per-cell slot write: the closure derives
// its grid coordinates from the cell index it was handed and commits
// only to out[cell], so a parameter sweep is deterministic at any
// worker count.
func GoodGrid(dims []int, workers int) []int {
	cells := 1
	for _, d := range dims {
		cells *= d
	}
	out := make([]int, cells)
	par.ForEach(cells, workers, func(cell int) {
		rem, sum := cell, 0
		for i := len(dims) - 1; i >= 0; i-- {
			sum += rem % dims[i]
			rem /= dims[i]
		}
		out[cell] = sum
	})
	return out
}
