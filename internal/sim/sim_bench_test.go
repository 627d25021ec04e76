package sim

import (
	"slices"
	"testing"
	"time"
)

// runClustered drives procs self-rescheduling processes until each has
// fired perProc events — the shape serving workloads produce: many
// concurrent processes, deltas clustered within a few milliseconds, an
// always-short horizon. One ArgHandler serves every event, so the
// steady-state schedule/fire path allocates nothing on the calendar
// engine.
func runClustered(e *Engine, procs, perProc int) {
	remaining := make([]int, procs)
	var h ArgHandler
	h = func(now float64, arg uint64) {
		p := int(arg)
		remaining[p]--
		if remaining[p] > 0 {
			// Deterministic pseudo-random delta in [0, 9.7) ms.
			d := float64((p*7+remaining[p]*13)%97) / 10
			e.AfterArg(d, h, arg)
		}
	}
	for p := 0; p < procs; p++ {
		remaining[p] = perProc
		e.AfterArg(float64(p%50)/5, h, uint64(p))
	}
	e.Run()
}

// runSpread schedules every event up front across a wide horizon — the
// arrival-wave shape of a whole trace's arrivals scheduled before Run,
// in which most events pass through the overflow heap
// (BenchmarkEngineStream schedules the same wave with Stream).
func runSpread(e *Engine, n int) {
	h := ArgHandler(func(now float64, arg uint64) {})
	for i := 0; i < n; i++ {
		e.AtArg(float64((i*2654435761)%100000), h, uint64(i))
	}
	e.Run()
}

const benchEvents = 1 << 20 // ~10^6 events per op

func BenchmarkEngineClustered(b *testing.B) {
	for _, eng := range []struct {
		name string
		mk   func() *Engine
	}{{"calendar", NewEngine}, {"heap", newHeapEngine}} {
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := eng.mk()
				runClustered(e, 100, benchEvents/100)
				if e.Fired() < benchEvents-100 {
					b.Fatalf("fired %d events, want ~%d", e.Fired(), benchEvents)
				}
			}
		})
	}
}

func BenchmarkEngineSpread(b *testing.B) {
	for _, eng := range []struct {
		name string
		mk   func() *Engine
	}{{"calendar", NewEngine}, {"heap", newHeapEngine}} {
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runSpread(eng.mk(), benchEvents)
			}
		})
	}
}

// BenchmarkEngineStream is BenchmarkEngineSpread's arrival wave in
// arrival order — the same 2^20 times, sorted — scheduled the way the
// serving runs schedule a trace: with one Stream ("stream") against
// upfront AtArg calls on the same calendar engine ("upfront"). The
// stream keeps one arrival queued instead of 2^20, so nothing passes
// through the overflow heap.
func BenchmarkEngineStream(b *testing.B) {
	times := make([]float64, benchEvents)
	for i := range times {
		times[i] = float64((i * 2654435761) % 100000)
	}
	slices.Sort(times)
	at := func(i int) float64 { return times[i] }
	h := ArgHandler(func(now float64, arg uint64) {})
	for _, mode := range []struct {
		name     string
		schedule func(e *Engine)
	}{
		{"stream", func(e *Engine) { e.Stream(len(times), at, h) }},
		{"upfront", func(e *Engine) {
			for i, t := range times {
				e.AtArg(t, h, uint64(i))
			}
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := NewEngine()
				mode.schedule(e)
				e.Run()
				if e.Fired() != benchEvents {
					b.Fatalf("fired %d events, want %d", e.Fired(), benchEvents)
				}
			}
		})
	}
}

// BenchmarkScheduleFire measures the steady-state cost of one
// schedule+fire pair on a warmed engine. The calendar queue must report
// 0 allocs/op (BENCH_sim.json pins it); the heap reference pays the
// container/heap boxing allocation on every event.
func BenchmarkScheduleFire(b *testing.B) {
	for _, eng := range []struct {
		name string
		mk   func() *Engine
	}{{"calendar", NewEngine}, {"heap", newHeapEngine}} {
		b.Run(eng.name, func(b *testing.B) {
			e := eng.mk()
			h := ArgHandler(func(now float64, arg uint64) {})
			// Warm bucket and heap capacity across several full wheel
			// revolutions before measuring.
			for i := 0; i < 1<<16; i++ {
				e.AfterArg(float64(i%37)/4, h, 0)
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.AfterArg(float64(i%37)/4, h, uint64(i))
				e.Step()
			}
		})
	}
}

// TestCalendarOutperformsHeap is the check.sh sim-bench smoke: on a
// 10^5-event clustered schedule the calendar queue must beat the
// reference heap on events/sec. Wall-clock timing in a test is exempt
// from the nondeterminism analyzer (and this asserts only an ordering,
// not a number); raceEnabled skips it because instrumentation skews the
// two queues differently.
func TestCalendarOutperformsHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("timing comparison is meaningless under the race detector")
	}
	const procs, perProc = 100, 1000 // 10^5 events
	best := func(mk func() *Engine) time.Duration {
		bestD := time.Duration(1<<63 - 1)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			runClustered(mk(), procs, perProc)
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	// Interleave a throwaway warm-up of each before timing.
	runClustered(NewEngine(), procs, perProc/10)
	runClustered(newHeapEngine(), procs, perProc/10)
	cal, ref := best(NewEngine), best(newHeapEngine)
	t.Logf("calendar %v, heap %v (%.2fx)", cal, ref, float64(ref)/float64(cal))
	if cal >= ref {
		t.Errorf("calendar queue (%v) not faster than reference heap (%v)", cal, ref)
	}
}
