package par

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// BenchmarkParMapOverhead measures the fixed cost of the fan-out
// machinery against a serial loop on trivially small work items — the
// worst case for any pool. Run with the rest of the Par benchmarks:
//
//	go test -bench=Par -benchtime=1x ./...
func BenchmarkParMapOverhead(b *testing.B) {
	const n = 4096
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := Map(n, workers, func(i int) int { return i * 31 })
				if out[n-1] != (n-1)*31 {
					b.Fatal("bad result")
				}
			}
		})
	}
}

// handoffItems are the work sizes BenchmarkParHandoff fans out: about 20
// and 50 µs of handoffWork on one core of a 2-vCPU Xeon (1.7 ns an item).
var handoffItems = []struct {
	name  string
	items int
}{{"20us", 12000}, {"50us", 30000}}

// handoffWork is pure CPU work over items [lo, hi): a multiply-xorshift
// mix of each index, summed.
//
//go:noinline
func handoffWork(lo, hi int) uint64 {
	var s uint64
	for i := lo; i < hi; i++ {
		x := uint64(i) * 0x9E3779B97F4A7C15
		x ^= x >> 29
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 32
		s += x
	}
	return s
}

// BenchmarkParHandoff measures what a fan-out costs against the work it
// splits: each iteration runs the same handoffWork once serially and
// once as a 2-worker MapChunks summed in chunk order, alternating which
// goes first, so the
// host's speed drift hits both sides alike and the serial call is the
// gap a hot loop leaves between fan-outs. It reports each side's median
// per call and the share of iterations the 2-worker call won.
func BenchmarkParHandoff(b *testing.B) {
	for _, tc := range handoffItems {
		b.Run(tc.name, func(b *testing.B) {
			want := handoffWork(0, tc.items)
			times := [2][]float64{make([]float64, b.N), make([]float64, b.N)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 2; j++ {
					w := 1 + (i+j)%2
					start := time.Now()
					var got uint64
					for _, part := range MapChunks(tc.items, w, func(_, lo, hi int) uint64 { return handoffWork(lo, hi) }) {
						got += part
					}
					times[w-1][i] = float64(time.Since(start).Nanoseconds()) / 1e3
					if got != want {
						b.Fatalf("w%d: sum %d, want %d", w, got, want)
					}
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
				b.ReportMetric(ts[len(ts)/2], fmt.Sprintf("w%d-us", w+1))
			}
			b.ReportMetric(float64(wins)/float64(b.N), "w2-wins")
		})
	}
}
