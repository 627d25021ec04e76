package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// The differential harness: run the same event program through the
// calendar queue (NewEngine) and the reference min-heap (newHeapEngine)
// and assert identical firing order. The program is a function of the
// firing order itself (handlers draw from a seeded rng to schedule more
// events), so any divergence compounds instead of hiding.

type fireRec struct {
	id int
	t  float64
}

// program is a randomized self-extending event program: every event
// may schedule more, with deltas chosen by a seeded rng in firing order.
type program struct {
	e      *Engine
	rng    *rand.Rand
	log    []fireRec
	nextID int
}

// schedule adds one event at t that, while d > 0, schedules up to two
// more. Deltas are chosen to stress the calendar queue's seams:
// same-instant chains, sub-bucket fractions, exact bucket-width
// multiples, far-future overflow pushes, and past-time clamps.
func (p *program) schedule(t float64, d int) {
	id := p.nextID
	p.nextID++
	p.e.At(t, func(now float64) {
		p.log = append(p.log, fireRec{id, now})
		if d == 0 {
			return
		}
		for j := p.rng.Intn(3); j > 0; j-- {
			var delta float64
			switch p.rng.Intn(6) {
			case 0:
				delta = 0 // same-instant chain
			case 1:
				delta = p.rng.Float64() * 0.5 // sub-bucket
			case 2:
				delta = p.rng.Float64() * 3 // a few buckets out
			case 3:
				delta = float64(p.rng.Intn(5)) * calWidth // exact bucket multiples
			case 4:
				delta = calBuckets*calWidth + p.rng.Float64()*2000 // overflow
			case 5:
				delta = -p.rng.Float64() * 10 // past: clamps to now
			}
			p.schedule(now+delta, d-1)
		}
	})
}

// runProgram schedules a randomized self-extending event program on e
// and returns the (id, time) firing log.
func runProgram(e *Engine, seed int64, roots, depth int) []fireRec {
	p := &program{e: e, rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < roots; i++ {
		// Roots span several buckets and reach past the horizon.
		p.schedule(p.rng.Float64()*float64(2*calBuckets), depth)
	}
	e.Run()
	return p.log
}

func TestDifferentialCalendarVsHeap(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		cal := runProgram(NewEngine(), seed, 40, 3)
		ref := runProgram(newHeapEngine(), seed, 40, 3)
		if !reflect.DeepEqual(cal, ref) {
			n := len(cal)
			if len(ref) < n {
				n = len(ref)
			}
			for i := 0; i < n; i++ {
				if cal[i] != ref[i] {
					t.Fatalf("seed %d: firing logs diverge at %d: calendar %+v, heap %+v",
						seed, i, cal[i], ref[i])
				}
			}
			t.Fatalf("seed %d: firing logs differ in length: calendar %d, heap %d",
				seed, len(cal), len(ref))
		}
	}
}

func TestSameInstantAcrossOverflowAndWheel(t *testing.T) {
	// Two events at the same instant, one routed through the overflow
	// heap (scheduled while 5000 was past the horizon) and one through
	// the wheel (scheduled once the clock was close), must still fire in
	// seq order.
	e := NewEngine()
	var got []string
	e.At(5000, func(now float64) { got = append(got, "early-seq") }) // overflow at schedule time
	e.At(4999, func(now float64) {
		e.At(5000, func(now float64) { got = append(got, "late-seq") }) // wheel at schedule time
	})
	e.Run()
	if want := []string{"early-seq", "late-seq"}; !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

func TestClampAtBucketBoundary(t *testing.T) {
	// A handler firing fractionally past a bucket boundary schedules
	// into the past; the clamped event maps before the current bucket's
	// base and must still fire immediately, after same-instant peers.
	e := NewEngine()
	var got []string
	at := 3*calWidth + 0.25
	e.At(at, func(now float64) {
		e.At(now-5*calWidth, func(float64) { got = append(got, "clamped") })
	})
	e.At(at, func(now float64) { got = append(got, "peer") })
	e.Run()
	if want := []string{"peer", "clamped"}; !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
	if e.Now() != at {
		t.Errorf("Now = %v, want %v", e.Now(), at)
	}
}

func TestFarFutureOnlySchedule(t *testing.T) {
	// An empty wheel with overflow-only events exercises the jump path:
	// the queue must leap to each epoch rather than crawl, and order by
	// (time, seq) throughout.
	e := NewEngine()
	var got []float64
	times := []float64{90000, 5000, 300000, 5000, 77777.5}
	for _, at := range times {
		e.At(at, func(now float64) { got = append(got, now) })
	}
	e.Run()
	want := []float64{5000, 5000, 77777.5, 90000, 300000}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fired at %v, want %v", got, want)
	}
}

func TestArgHandlerCarriesArgument(t *testing.T) {
	e := NewEngine()
	var got []uint64
	h := func(now float64, arg uint64) { got = append(got, arg) }
	e.AtArg(10, h, 7)
	e.AtArg(5, h, 3)
	e.AfterArg(-1, h, 9) // negative clamps to now (0)
	e.Run()
	if want := []uint64{9, 3, 7}; !reflect.DeepEqual(got, want) {
		t.Errorf("args = %v, want %v", got, want)
	}
}

func TestHeapEngineMatchesExistingContract(t *testing.T) {
	// The reference engine honors the same clamp and tie-break rules, so
	// the differential test compares like with like.
	e := newHeapEngine()
	var got []string
	e.At(10, func(now float64) {
		e.At(0, func(now float64) { got = append(got, "late") })
	})
	e.At(10, func(now float64) { got = append(got, "peer") })
	e.Run()
	if want := []string{"peer", "late"}; !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

// streamTimes draws n non-decreasing event times starting at from:
// same-instant runs, sub-bucket steps, exact bucket-width steps, and
// jumps past the wheel horizon.
func streamTimes(rng *rand.Rand, from float64, n int) []float64 {
	times := make([]float64, n)
	t := from
	for i := range times {
		switch rng.Intn(5) {
		case 0: // same instant as the previous event
		case 1:
			t += rng.Float64() * 0.5
		case 2:
			t += float64(rng.Intn(3)) * calWidth
		case 3:
			t += rng.Float64() * 20
		case 4:
			t += calBuckets*calWidth + rng.Float64()*500
		}
		times[i] = t
	}
	return times
}

// streamSizes cycles the batch sizes the stream programs use, so the
// n = 0 and n = 1 edges come up on every few seeds.
var streamSizes = []int{0, 1, 2, 7, 40, 150}

// runStreamProgram mixes one or two ordered batches with the random
// self-extending program. A batch is scheduled with Stream when
// useStream is set and as upfront AtArg calls in index order otherwise
// — the two must be indistinguishable. The first batch is scheduled
// before Run, between roots that share some of its instants; a batch
// event may start the second batch from inside its handler, with a
// first time in the past. Batch handlers kick an idle "instance" with
// AfterArg(0), the chain serving arrivals rely on, and some extend the
// random program at or past a later batch instant. It returns the
// firing log and Pending after scheduling and after every Step.
func runStreamProgram(e *Engine, seed int64, useStream bool) ([]fireRec, []int) {
	p := &program{e: e, rng: rand.New(rand.NewSource(seed))}
	busy := false
	kick := ArgHandler(func(now float64, arg uint64) {
		busy = false
		p.log = append(p.log, fireRec{int(arg), now})
	})
	nested := false
	var batch func(times []float64)
	batch = func(times []float64) {
		id0 := p.nextID
		p.nextID += len(times)
		h := func(now float64, arg uint64) {
			i := int(arg)
			p.log = append(p.log, fireRec{id0 + i, now})
			if !busy {
				busy = true
				id := p.nextID
				p.nextID++
				e.AfterArg(0, kick, uint64(id))
			}
			switch p.rng.Intn(4) {
			case 0: // tie with a later batch event
				p.schedule(times[min(i+1+p.rng.Intn(3), len(times)-1)], 1)
			case 1:
				p.schedule(now+p.rng.Float64()*3, 1)
			case 2:
				if !nested {
					nested = true
					batch(streamTimes(p.rng, now-p.rng.Float64()*8, streamSizes[p.rng.Intn(len(streamSizes))]))
				}
			}
		}
		if useStream {
			e.Stream(len(times), func(i int) float64 { return times[i] }, h)
			return
		}
		for i, t := range times {
			e.AtArg(t, h, uint64(i))
		}
	}
	first := streamTimes(p.rng, p.rng.Float64()*float64(calBuckets), streamSizes[int(seed)%len(streamSizes)])
	for _, t := range first[:min(3, len(first))] {
		p.schedule(t, 2) // same instant, earlier seq than the batch
	}
	batch(first)
	for i := 0; i < 10; i++ {
		p.schedule(p.rng.Float64()*float64(2*calBuckets), 2)
	}
	pending := []int{e.Pending()}
	for e.Step() {
		pending = append(pending, e.Pending())
	}
	return p.log, pending
}

// TestDifferentialStreamVsUpfront holds Stream to its contract: on both
// queues, a program that streams its batches fires exactly the events,
// at exactly the times and in exactly the order, of the same program
// scheduling every batch event up front on the reference heap, with the
// same Fired count and the same Pending after every step.
func TestDifferentialStreamVsUpfront(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		ref := newHeapEngine()
		refLog, refPending := runStreamProgram(ref, seed, false)
		for _, eng := range []struct {
			name string
			e    *Engine
		}{{"calendar", NewEngine()}, {"heap", newHeapEngine()}} {
			log, pending := runStreamProgram(eng.e, seed, true)
			if !reflect.DeepEqual(log, refLog) {
				n := min(len(log), len(refLog))
				for i := 0; i < n; i++ {
					if log[i] != refLog[i] {
						t.Fatalf("seed %d %s: firing logs diverge at %d: stream %+v, upfront %+v",
							seed, eng.name, i, log[i], refLog[i])
					}
				}
				t.Fatalf("seed %d %s: firing logs differ in length: stream %d, upfront %d",
					seed, eng.name, len(log), len(refLog))
			}
			if eng.e.Fired() != ref.Fired() {
				t.Fatalf("seed %d %s: fired %d, upfront %d", seed, eng.name, eng.e.Fired(), ref.Fired())
			}
			if !reflect.DeepEqual(pending, refPending) {
				t.Fatalf("seed %d %s: Pending sequence differs from upfront scheduling", seed, eng.name)
			}
		}
	}
}

func TestStreamEmptyAndSingle(t *testing.T) {
	e := NewEngine()
	var got []uint64
	h := ArgHandler(func(now float64, arg uint64) { got = append(got, arg) })
	e.Stream(0, func(int) float64 { t.Fatal("at called for an empty stream"); return 0 }, h)
	if e.Pending() != 0 {
		t.Fatalf("Pending after an empty stream = %d", e.Pending())
	}
	e.At(4, func(now float64) {
		// Started in a handler with a time in the past: clamps to now and
		// fires after the peer already queued at this instant.
		e.Stream(1, func(int) float64 { return 1 }, h)
		if e.Pending() != 2 {
			t.Errorf("Pending after a one-event stream = %d, want 2", e.Pending())
		}
	})
	e.At(4, func(now float64) { got = append(got, 99) })
	e.Run()
	if want := []uint64{99, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
	if e.Now() != 4 || e.Fired() != 3 {
		t.Errorf("Now = %v, Fired = %d; want 4 and 3", e.Now(), e.Fired())
	}
}
