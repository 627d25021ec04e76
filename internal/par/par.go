// Package par provides the deterministic parallel execution primitives
// the hot paths of this repository fan out on: an ordered-commit Map and
// a contiguous-chunk MapChunks.
//
// The repository's determinism contract (EXPERIMENTS.md, the benchall
// golden output, the nondeterminism analyzer in internal/lint) requires
// that parallelism never changes results: the same inputs must produce
// byte-identical outputs at any worker count, including 1. Every
// primitive here is deterministic *by construction*, not by luck:
//
//   - Map(n, workers, fn) runs fn(i) on up to `workers` goroutines but
//     each result is committed to slot i of the output slice — the
//     output is a pure function of the inputs no matter which goroutine
//     computed which index, or in what order they finished.
//
//   - MapChunks(n, workers, fn) splits [0, n) into contiguous chunks
//     whose boundaries depend only on (n, workers) — never on timing —
//     and returns the per-chunk results in chunk order. Chunk-local
//     work observes items in the same relative order as a serial scan.
//
// # Who runs a fan-out
//
// A fan-out publishes its indices (Map's dispatch chunks, MapChunks'
// chunks) as one task and claims them, one at a time and
// in index order, on the calling goroutine. The package's helpers claim
// from the same task: a pool of GOMAXPROCS−1 goroutines, started on the
// first fan-out that could seat one and grown if GOMAXPROCS rises. No
// fan-out waits for a goroutine to start. A helper that is parked, not
// yet scheduled or busy in another fan-out (an outer one, or another
// caller's) claims nothing, and the caller runs every index no helper
// took, so a fan-out whose helpers are all busy finishes on its caller.
// A helper that finds no task spins a fixed number of yielding rounds
// (runtime.Gosched) before it parks, so the next fan-out of a hot loop
// finds it awake instead of waiting for an idle vCPU to wake; the
// budget counts rounds, not time, and nothing here reads a clock.
//
// # The concurrency bound
//
// workers is an upper bound: a fan-out runs on at most min(workers,
// GOMAXPROCS at call time, its index count) goroutines, its caller and
// one fewer helpers. Functions run on the calling goroutine alone when
// workers or n is 1, so the serial path and the parallel path are the
// same code.
//
// # The rule for fn
//
// Every index of a fan-out may run on its caller, after the indices
// before it. So fn must not wait for another index of its own fan-out
// to start or finish: a barrier across indices, or a channel one index
// receives from and another sends on, deadlocks when one goroutine
// claims both. Waiting on work already running elsewhere (a call
// another goroutine started) is fine, and so is a nested fan-out, which
// its own caller can always finish alone.
//
// A panic in any fn is recovered, the fan-out's other indices still
// run, and the first panic is re-raised on the calling goroutine once
// every claimed index has finished.
package par

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count used when a caller passes
// workers <= 0: GOMAXPROCS at call time. Tests and benchmarks pass an
// explicit count instead, which keeps their behaviour identical on any
// machine.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// clampWorkers resolves a caller-supplied worker count against the work
// size: non-positive means DefaultWorkers, and there is no point running
// more workers than items.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// panicBox captures the first panic raised by any index so it can be
// re-raised on the calling goroutine. Without this a panic on a helper
// would kill the process with a goroutine stack the caller never sees.
type panicBox struct {
	once sync.Once
	val  interface{}
}

func (p *panicBox) capture() {
	if r := recover(); r != nil {
		p.once.Do(func() { p.val = r })
	}
}

func (p *panicBox) rethrow() {
	if p.val != nil {
		panic(fmt.Sprintf("par: worker panic: %v", p.val))
	}
}

// spinRounds is how many yielding rounds (runtime.Gosched) a helper
// polls for a new task before it parks, and a caller polls for its
// helpers to finish before it blocks. On a 2-vCPU Xeon whose other
// core runs the caller's serial work, a helper spun 0.6–1.1 ms before
// parking: long enough to span the serial work a hot loop such as
// prep-rag's question loop does between two searches, short enough
// that a process with nothing to fan out soon stops spinning. A parked
// helper is woken by the next fan-out, which starts on its caller
// without waiting for it.
const spinRounds = 4096

// task is one fan-out: indices [0, n) of run, claimed in index order by
// the caller and by the helpers seated in it.
type task struct {
	run  func(i int)
	n    int64
	next atomic.Int64 // the next index to claim
	// seats is how many more helpers may join; guarded by pool.mu.
	seats int
	busy  atomic.Int32   // helpers seated and not yet done, which the caller polls
	done  sync.WaitGroup // the same helpers, which the caller blocks on
	box   panicBox
}

// claimAll runs the task's indices until none is left to claim.
func (t *task) claimAll() {
	for {
		i := t.next.Add(1) - 1
		if i >= t.n {
			return
		}
		t.runOne(int(i))
	}
}

func (t *task) runOne(i int) {
	defer t.box.capture()
	t.run(i)
}

// helperPool is the package's helpers and the tasks they may join.
type helperPool struct {
	mu    sync.Mutex
	wake  sync.Cond // parked helpers wait here; L is &mu
	tasks []*task   // published tasks with seats and indices left, oldest first
	// open is len(tasks), which spinning helpers poll without mu.
	open    atomic.Int32
	helpers int // helpers started
	parked  int // helpers waiting on wake
	// parks and spins count the times a helper parked and the rounds
	// helpers spun; the tests read them.
	parks, spins atomic.Int64
}

// pool is the package's one helper pool. Like a sync.Pool it is shared
// by every caller: helpers are a property of the process, not of a
// call, and a fan-out's result never depends on which of them ran it.
var pool = newHelperPool()

func newHelperPool() *helperPool {
	p := &helperPool{}
	p.wake.L = &p.mu
	return p
}

// fanOut runs run(i) for every i in [0, n) on the calling goroutine and
// on at most min(workers, GOMAXPROCS, n)−1 helpers, and returns once
// every index has finished, re-raising the first panic. It is the one
// path Map and MapChunks fan out on; both call it with n and workers of
// at least 2.
func fanOut(n, workers int, run func(i int)) {
	t := &task{run: run, n: int64(n)}
	procs := runtime.GOMAXPROCS(0)
	seats := min(workers, n, procs) - 1
	if seats > 0 {
		t.seats = seats
		pool.publish(t, procs)
	}
	t.claimAll()
	if seats > 0 {
		pool.retire(t)
		for r := 0; r < spinRounds && t.busy.Load() > 0; r++ {
			runtime.Gosched()
		}
		t.done.Wait()
	}
	t.box.rethrow()
}

// publish makes t joinable, starts helpers up to procs−1, and wakes as
// many parked helpers as t has seats.
func (p *helperPool) publish(t *task, procs int) {
	p.mu.Lock()
	for ; p.helpers < procs-1; p.helpers++ {
		go p.help()
	}
	p.tasks = append(p.tasks, t)
	p.open.Store(int32(len(p.tasks)))
	for i := min(p.parked, t.seats); i > 0; i-- {
		p.wake.Signal()
	}
	p.mu.Unlock()
}

// retire takes t off the published list if no helper dropped it first.
// After it returns no helper can join t.
func (p *helperPool) retire(t *task) {
	p.mu.Lock()
	if i := slices.Index(p.tasks, t); i >= 0 {
		p.drop(i)
	}
	p.mu.Unlock()
}

// drop removes tasks[i]; p.mu must be held.
func (p *helperPool) drop(i int) {
	p.tasks = slices.Delete(p.tasks, i, i+1)
	p.open.Store(int32(len(p.tasks)))
}

// help is a helper's loop: join a task and claim its indices, else spin,
// else park until the next fan-out.
func (p *helperPool) help() {
	for {
		if t := p.join(); t != nil {
			t.claimAll()
			t.busy.Add(-1)
			t.done.Done()
			continue
		}
		if !p.spin() {
			p.park()
		}
	}
}

// join seats the helper in the oldest published task that has a seat
// and an index left to claim, dropping tasks with none left, and returns
// it; nil when there is none.
func (p *helperPool) join() *task {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.tasks) > 0 {
		t := p.tasks[0]
		if t.next.Load() >= t.n {
			p.drop(0)
			continue
		}
		t.seats--
		if t.seats == 0 {
			p.drop(0)
		}
		t.busy.Add(1)
		t.done.Add(1)
		return t
	}
	return nil
}

// spin polls for a published task for up to spinRounds yielding rounds
// and reports whether one appeared.
func (p *helperPool) spin() bool {
	r := 0
	for ; r < spinRounds && p.open.Load() == 0; r++ {
		runtime.Gosched()
	}
	p.spins.Add(int64(r))
	return r < spinRounds
}

// park blocks the helper until a fan-out is published.
func (p *helperPool) park() {
	p.mu.Lock()
	if len(p.tasks) == 0 {
		p.parked++
		p.parks.Add(1)
		p.wake.Wait()
		p.parked--
	}
	p.mu.Unlock()
}

// mapGrainFactor is how many dispatch chunks Map creates per worker.
// The caller and the helpers claim whole chunks (one atomic per chunk,
// amortized over the items inside) instead of single items, which is
// what keeps tiny-item maps from paying per-item coordination; several
// chunks per worker preserves dynamic load balancing when item costs
// are skewed.
const mapGrainFactor = 8

// Map runs fn(i) for every i in [0, n) on up to workers goroutines, the
// caller among them, and returns the n results committed in input order:
// out[i] = fn(i). fn must be safe to call concurrently. Work is handed
// out in contiguous index chunks (ChunkBounds over workers*8 chunks,
// claimed dynamically), which is invisible in the output because each
// result lands in its own slot. workers <= 0 means DefaultWorkers.
func Map[T any](n, workers int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	workers = clampWorkers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	chunks := min(workers*mapGrainFactor, n)
	fanOut(chunks, workers, func(c int) {
		lo, hi := ChunkBounds(n, chunks, c)
		for i := lo; i < hi; i++ {
			out[i] = fn(i)
		}
	})
	return out
}

// ForEach is Map without results: it runs fn(i) for every i in [0, n)
// on up to workers goroutines and returns when all calls complete.
func ForEach(n, workers int, fn func(i int)) {
	Map(n, workers, func(i int) struct{} {
		fn(i)
		return struct{}{}
	})
}

// ChunkBounds returns the half-open range [lo, hi) of chunk c out of
// `chunks` over n items. Boundaries are the standard balanced split
// (sizes differ by at most one) and depend only on (n, chunks, c).
func ChunkBounds(n, chunks, c int) (lo, hi int) {
	return c * n / chunks, (c + 1) * n / chunks
}

// MapChunks splits [0, n) into min(workers, n) contiguous chunks and
// runs fn(chunk, lo, hi) for each, on up to that many goroutines, the
// caller among them, returning the per-chunk results in chunk index
// order. Chunk boundaries are a pure function of (n, workers), so a
// caller that scans items lo..hi in order observes exactly the serial
// visiting order within its shard.
func MapChunks[T any](n, workers int, fn func(chunk, lo, hi int) T) []T {
	if n <= 0 {
		return nil
	}
	chunks := clampWorkers(workers, n)
	if chunks == 1 {
		return []T{fn(0, 0, n)}
	}
	out := make([]T, chunks)
	fanOut(chunks, chunks, func(c int) {
		lo, hi := ChunkBounds(n, chunks, c)
		out[c] = fn(c, lo, hi)
	})
	return out
}
