package par

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapCommitsInInputOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 33} {
		got := Map(100, workers, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEdgeCases(t *testing.T) {
	if got := Map(0, 4, func(i int) int { return i }); got != nil {
		t.Fatalf("Map(0) = %v, want nil", got)
	}
	if got := Map(-3, 4, func(i int) int { return i }); got != nil {
		t.Fatalf("Map(-3) = %v, want nil", got)
	}
	// workers <= 0 falls back to DefaultWorkers and still completes.
	got := Map(5, 0, func(i int) int { return i + 1 })
	if want := []int{1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Map workers=0 = %v, want %v", got, want)
	}
	if w := DefaultWorkers(); w < 1 {
		t.Fatalf("DefaultWorkers = %d, want >= 1", w)
	}
}

// TestMapDeterministicAcrossWorkerCounts is the package's core contract:
// the output is identical at every worker count.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	ref := Map(500, 1, func(i int) string { return fmt.Sprintf("r%03d", i*7%501) })
	for _, workers := range []int{2, 3, 4, 8, 16} {
		got := Map(500, workers, func(i int) string { return fmt.Sprintf("r%03d", i*7%501) })
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d output differs from serial", workers)
		}
	}
}

func TestMapChunksOrderAndCoverage(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{1, 1}, {1, 8}, {7, 3}, {100, 4}, {100, 7}, {5, 100},
	} {
		covered := make([]bool, tc.n)
		var mu sync.Mutex
		parts := MapChunks(tc.n, tc.workers, func(chunk, lo, hi int) [2]int {
			mu.Lock()
			for i := lo; i < hi; i++ {
				if covered[i] {
					t.Errorf("n=%d w=%d: index %d covered twice", tc.n, tc.workers, i)
				}
				covered[i] = true
			}
			mu.Unlock()
			return [2]int{lo, hi}
		})
		if want := min(tc.workers, tc.n); len(parts) != want {
			t.Fatalf("n=%d w=%d: %d parts, want %d", tc.n, tc.workers, len(parts), want)
		}
		for i := range covered {
			if !covered[i] {
				t.Fatalf("n=%d w=%d: index %d never visited", tc.n, tc.workers, i)
			}
		}
		// Parts arrive in chunk order: each part's lo equals the previous
		// part's hi.
		prev := 0
		for ci, p := range parts {
			if p[0] != prev {
				t.Fatalf("n=%d w=%d: chunk %d starts at %d, want %d", tc.n, tc.workers, ci, p[0], prev)
			}
			if p[1] < p[0] {
				t.Fatalf("n=%d w=%d: chunk %d inverted bounds %v", tc.n, tc.workers, ci, p)
			}
			prev = p[1]
		}
		if prev != tc.n {
			t.Fatalf("n=%d w=%d: chunks end at %d, want %d", tc.n, tc.workers, prev, tc.n)
		}
	}
}

func TestForEach(t *testing.T) {
	var sum atomic.Int64
	ForEach(100, 4, func(i int) { sum.Add(int64(i)) })
	if got := sum.Load(); got != 4950 {
		t.Fatalf("ForEach sum = %d, want 4950", got)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if !strings.Contains(fmt.Sprint(r), "boom") {
					t.Fatalf("workers=%d: panic %v does not mention cause", workers, r)
				}
			}()
			Map(50, workers, func(i int) int {
				if i == 17 {
					panic("boom")
				}
				return i
			})
		}()
	}
}

// TestMapAllWorkersPanic: every call panics; Map must still return (no
// deadlock) and re-raise one of the panics.
func TestMapAllWorkersPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	Map(64, 8, func(i int) int { panic(fmt.Sprintf("worker item %d", i)) })
}

func TestMapChunksPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	MapChunks(50, 4, func(chunk, lo, hi int) int {
		if chunk == 2 {
			panic("chunk boom")
		}
		return lo
	})
}

// TestMapRaceStress hammers Map from multiple goroutines at once — under
// `go test -race` this proves result commits never collide.
func TestMapRaceStress(t *testing.T) {
	t.Parallel()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				n := 64 + g
				out := Map(n, 4, func(i int) int { return i * (g + 1) })
				for i, v := range out {
					if v != i*(g+1) {
						t.Errorf("g=%d iter=%d: out[%d] = %d", g, iter, i, v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestChunkBounds(t *testing.T) {
	// Balanced split: sizes differ by at most one, cover [0, n).
	for _, tc := range []struct{ n, chunks int }{{10, 3}, {7, 7}, {100, 8}} {
		minSize, maxSize := tc.n, 0
		for c := 0; c < tc.chunks; c++ {
			lo, hi := ChunkBounds(tc.n, tc.chunks, c)
			size := hi - lo
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
		}
		if maxSize-minSize > 1 {
			t.Fatalf("n=%d chunks=%d: sizes range %d..%d", tc.n, tc.chunks, minSize, maxSize)
		}
	}
}

// poolState reads the helper pool's counts under its lock.
func poolState() (helpers, parked int) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return pool.helpers, pool.parked
}

// helperSeats is the most helpers one fan-out can seat on this machine;
// the tests that block every helper need at least one.
func helperSeats(t *testing.T) int {
	t.Helper()
	h := runtime.GOMAXPROCS(0) - 1
	if h < 1 {
		t.Skip("needs GOMAXPROCS >= 2 for a helper")
	}
	return h
}

// holdHelpers fans out h+1 shards from a goroutine of its own and
// returns once every shard is running, which seats all h helpers in
// that fan-out (its caller blocks in the shard it claimed first, so the
// helpers must claim the rest). Calling release lets the shards finish
// and waits for the fan-out to return.
func holdHelpers(h int) (release func()) {
	var entered sync.WaitGroup
	entered.Add(h + 1)
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		MapChunks(h+1, h+1, func(_, _, _ int) int {
			entered.Done()
			<-gate
			return 0
		})
	}()
	entered.Wait()
	return func() {
		close(gate)
		<-done
	}
}

// TestFanOutBusyHelpersRunsOnCaller: with every helper held inside
// another fan-out, a fan-out finishes on its caller alone — one index
// at a time, in index order — instead of waiting for a helper.
func TestFanOutBusyHelpersRunsOnCaller(t *testing.T) {
	release := holdHelpers(helperSeats(t))
	defer release()
	var running, maxRunning atomic.Int32
	var seq atomic.Int64
	got := Map(200, 8, func(i int) int64 {
		if r := running.Add(1); r > maxRunning.Load() {
			maxRunning.Store(r)
		}
		defer running.Add(-1)
		return seq.Add(1)
	})
	if m := maxRunning.Load(); m != 1 {
		t.Fatalf("%d indices ran at once with every helper busy, want 1", m)
	}
	for i, v := range got {
		if v != int64(i+1) {
			t.Fatalf("index %d ran %dth, want index order", i, v)
		}
	}
	parts := MapChunks(10, 4, func(c, lo, hi int) int { return c*100 + hi - lo })
	if want := []int{2, 103, 202, 303}; !reflect.DeepEqual(parts, want) {
		t.Fatalf("MapChunks with every helper busy = %v, want %v", parts, want)
	}
}

// TestPanicInCallersShare: a panic in an index the caller runs is
// re-raised only after every other claimed index has finished.
func TestPanicInCallersShare(t *testing.T) {
	release := holdHelpers(helperSeats(t))
	defer release()
	var finished atomic.Int32
	func() {
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(fmt.Sprint(r), "caller boom") {
				t.Fatalf("recovered %v, want the caller's panic", r)
			}
			if f := finished.Load(); f != 3 {
				t.Fatalf("%d of the other 3 shards finished before the re-raise", f)
			}
		}()
		MapChunks(4, 4, func(c, _, _ int) int {
			if c == 1 {
				panic("caller boom")
			}
			finished.Add(1)
			return c
		})
	}()
}

// TestPanicWaitsForHelperShare: whichever goroutine claims the
// panicking shard, the re-raise waits for the other shard, which is
// slower, to finish.
func TestPanicWaitsForHelperShare(t *testing.T) {
	helperSeats(t)
	for round := 0; round < 50; round++ {
		var finished atomic.Bool
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("panic did not propagate")
				}
				if !finished.Load() {
					t.Fatalf("round %d: re-raised before the other shard finished", round)
				}
			}()
			MapChunks(2, 2, func(c, _, _ int) uint64 {
				if c == 0 {
					panic("shard boom")
				}
				s := uint64(0)
				for i := 0; i < 20000; i++ {
					s += uint64(i) * 0x9E3779B97F4A7C15
				}
				finished.Store(true)
				return s
			})
		}()
	}
}

// TestNestedFanOut: fan-outs inside fan-outs, three deep, give the
// serial results at every worker count and always return.
func TestNestedFanOut(t *testing.T) {
	leaf := func(a, b, c int) int { return a*10000 + b*100 + c }
	want := make([][][]int, 6)
	for a := range want {
		want[a] = make([][]int, 5)
		for b := range want[a] {
			for c := 0; c < 7; c++ {
				want[a][b] = append(want[a][b], leaf(a, b, c))
			}
		}
	}
	for _, workers := range []int{1, 2, 3, 8} {
		got := Map(6, workers, func(a int) [][]int {
			return Map(5, workers, func(b int) []int {
				var out []int
				for _, part := range MapChunks(7, workers, func(_, lo, hi int) []int {
					var out []int
					for c := lo; c < hi; c++ {
						out = append(out, leaf(a, b, c))
					}
					return out
				}) {
					out = append(out, part...)
				}
				return out
			})
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: nested result differs from serial", workers)
		}
	}
}

// TestConcurrentCallersBound: callers fanning out at once each get their
// own results, and no fan-out ever runs on more than min(workers,
// GOMAXPROCS) goroutines at a time.
func TestConcurrentCallersBound(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 30; iter++ {
				workers := 1 + (g+iter)%5
				var running, maxRunning atomic.Int32
				parts := MapChunks(40, workers, func(c, lo, hi int) int {
					r := running.Add(1)
					for m := maxRunning.Load(); r > m && !maxRunning.CompareAndSwap(m, r); m = maxRunning.Load() {
					}
					s := 0
					for i := lo; i < hi; i++ {
						s += i * (g + 1)
					}
					runtime.Gosched()
					running.Add(-1)
					return s
				})
				total := 0
				for _, p := range parts {
					total += p
				}
				if want := 780 * (g + 1); total != want {
					t.Errorf("g=%d iter=%d: sum %d, want %d", g, iter, total, want)
					return
				}
				if m := int(maxRunning.Load()); m > min(workers, procs) {
					t.Errorf("g=%d: a %d-worker fan-out ran on %d goroutines at once (GOMAXPROCS %d)", g, workers, m, procs)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if h, _ := poolState(); h > procs-1 {
		t.Fatalf("%d helpers for GOMAXPROCS %d", h, procs)
	}
}

// TestHelpersParkAfterSpin: after a fan-out every helper spins its
// fixed budget of rounds and then parks; the next fan-out wakes them.
func TestHelpersParkAfterSpin(t *testing.T) {
	h := helperSeats(t)
	// waitParked polls until every helper is parked; a helper that spun
	// without bound would never get there.
	waitParked := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			helpers, parked := poolState()
			if helpers == h && parked == h {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d helpers parked after 10 s", parked, helpers)
			}
			runtime.Gosched()
		}
	}
	Map(64, 2, func(i int) int { return i }) // starts the helpers
	waitParked()
	for round := 0; round < 3; round++ {
		parks, spins := pool.parks.Load(), pool.spins.Load()
		// Every helper must wake and join for this fan-out to finish.
		holdHelpers(h)()
		waitParked()
		if d := pool.parks.Load() - parks; d != int64(h) {
			t.Fatalf("round %d: helpers parked %d times after one fan-out, want %d", round, d, h)
		}
		if d := pool.spins.Load() - spins; d < int64(h*spinRounds) {
			t.Fatalf("round %d: helpers spun %d rounds before parking, want at least %d", round, d, h*spinRounds)
		}
	}
}
