// Package par is a serial stand-in for the real deterministic parallel
// layer: same signatures, so the parcapture analyzer sees the exact
// call shapes the hot paths use.
package par

// Map runs fn(i) for i in [0, n) and commits results by slot.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = fn(i)
	}
	return out
}

// ForEach is Map without results.
func ForEach(n, workers int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// MapChunks hands fn one contiguous chunk per worker.
func MapChunks[T any](n, workers int, fn func(chunk, lo, hi int) T) []T {
	return []T{fn(0, 0, n)}
}
