package vecdb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dataai/internal/embed"
)

// randomUnit generates a deterministic unit vector.
func randomUnit(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	embed.Normalize(v)
	return v
}

func fillIndex(t *testing.T, idx Index, n, dim int, seed int64) [][]float32 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]float32, n)
	for i := 0; i < n; i++ {
		vecs[i] = randomUnit(rng, dim)
		if err := idx.Add(fmt.Sprintf("v%04d", i), vecs[i]); err != nil {
			t.Fatalf("Add %d: %v", i, err)
		}
	}
	return vecs
}

func TestFlatExactNearest(t *testing.T) {
	const dim = 16
	f := NewFlat(dim)
	vecs := fillIndex(t, f, 100, dim, 1)
	// Query exactly equal to vector 42: it must come back first.
	res, err := f.Search(vecs[42], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d results, want 5", len(res))
	}
	if res[0].ID != "v0042" {
		t.Errorf("nearest = %s, want v0042", res[0].ID)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Error("results not sorted by score")
		}
	}
}

func TestFlatErrors(t *testing.T) {
	f := NewFlat(4)
	if _, err := f.Search([]float32{1, 0, 0, 0}, 3); !errors.Is(err, ErrEmptyIndex) {
		t.Errorf("empty search err = %v, want ErrEmptyIndex", err)
	}
	if err := f.Add("a", []float32{1, 2}); !errors.Is(err, ErrDimension) {
		t.Errorf("bad dim err = %v", err)
	}
	if err := f.Add("a", []float32{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("a", []float32{0, 1, 0, 0}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("dup err = %v", err)
	}
	if _, err := f.Search([]float32{1}, 3); !errors.Is(err, ErrDimension) {
		t.Errorf("bad query dim err = %v", err)
	}
	if _, err := f.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get missing err = %v", err)
	}
}

func TestFlatGetReturnsStoredVector(t *testing.T) {
	f := NewFlat(3)
	in := []float32{0.1, 0.2, 0.3}
	if err := f.Add("x", in); err != nil {
		t.Fatal(err)
	}
	in[0] = 99 // mutate caller copy; index must be unaffected
	got, err := f.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0.1 {
		t.Error("index did not copy the inserted vector")
	}
}

// TestFlatGetReturnsCopy: writing to the slice Get returns must not
// change what the index stores or how it ranks.
func TestFlatGetReturnsCopy(t *testing.T) {
	f := NewFlat(2)
	if err := f.Add("a", []float32{1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := f.Add("b", []float32{0, 1}); err != nil {
		t.Fatal(err)
	}
	v, err := f.Get("b")
	if err != nil {
		t.Fatal(err)
	}
	v[1] = -5
	res, err := f.Search([]float32{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != "b" {
		t.Errorf("query for b returned %s after writing to Get's result", res[0].ID)
	}
	if again, _ := f.Get("b"); again[1] != 1 {
		t.Errorf("stored b[1] = %v after writing to Get's result, want 1", again[1])
	}
}

// TestFlatAddRejectsNonFinite: NaN and ±Inf coordinates are refused with
// ErrNonFinite and nothing is stored.
func TestFlatAddRejectsNonFinite(t *testing.T) {
	f := NewFlat(3)
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, v := range [][]float32{{nan, 0, 0}, {0, inf, 0}, {0, 0, -inf}} {
		if err := f.Add("x", v); !errors.Is(err, ErrNonFinite) {
			t.Errorf("Add(%v) err = %v, want ErrNonFinite", v, err)
		}
	}
	if f.Len() != 0 {
		t.Errorf("Len = %d after rejected adds, want 0", f.Len())
	}
	if err := f.Add("x", []float32{math.MaxFloat32, -math.MaxFloat32, 0}); err != nil {
		t.Errorf("finite extremes rejected: %v", err)
	}
}

func TestFlatSearchFilter(t *testing.T) {
	const dim = 8
	f := NewFlat(dim)
	vecs := fillIndex(t, f, 50, dim, 2)
	keepOdd := func(id string) bool { return (id[4]-'0')%2 == 1 }
	res, err := f.SearchFilter(vecs[3], 10, keepOdd)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if !keepOdd(r.ID) {
			t.Errorf("filter leaked id %s", r.ID)
		}
	}
}

func TestFlatFewerThanK(t *testing.T) {
	f := NewFlat(2)
	_ = f.Add("only", []float32{1, 0})
	res, err := f.Search([]float32{1, 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Errorf("got %d results, want 1", len(res))
	}
}

func TestIVFRecallImprovesWithNProbe(t *testing.T) {
	const dim, n = 32, 2000
	flat := NewFlat(dim)
	ivf := NewIVF(dim, 32, 1, 7)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		v := randomUnit(rng, dim)
		id := fmt.Sprintf("v%05d", i)
		if err := flat.Add(id, v); err != nil {
			t.Fatal(err)
		}
		if err := ivf.Add(id, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := ivf.Train(10); err != nil {
		t.Fatal(err)
	}
	queries := make([][]float32, 20)
	for i := range queries {
		queries[i] = randomUnit(rng, dim)
	}
	recallAt := func(nprobe int) float64 {
		ivf.SetNProbe(nprobe)
		var sum float64
		for _, q := range queries {
			exact, err := flat.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			approx, err := ivf.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			sum += Recall(approx, exact)
		}
		return sum / float64(len(queries))
	}
	r1 := recallAt(1)
	r8 := recallAt(8)
	rAll := recallAt(32)
	if r8 < r1 {
		t.Errorf("recall decreased with more probes: nprobe1=%v nprobe8=%v", r1, r8)
	}
	if rAll < 0.999 {
		t.Errorf("probing all cells should be exact, recall=%v", rAll)
	}
}

func TestIVFUntrainedFallsBackToExact(t *testing.T) {
	const dim = 8
	ivf := NewIVF(dim, 4, 2, 1)
	vecs := fillIndex(t, ivf, 30, dim, 4)
	res, err := ivf.Search(vecs[7], 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != "v0007" {
		t.Errorf("untrained IVF nearest = %s", res[0].ID)
	}
}

func TestIVFAddAfterTrain(t *testing.T) {
	const dim = 8
	ivf := NewIVF(dim, 4, 4, 1)
	fillIndex(t, ivf, 40, dim, 5)
	if err := ivf.Train(5); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	late := randomUnit(rng, dim)
	if err := ivf.Add("late", late); err != nil {
		t.Fatal(err)
	}
	if ivf.Len() != 41 {
		t.Errorf("Len = %d, want 41", ivf.Len())
	}
	res, err := ivf.Search(late, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != "late" {
		t.Errorf("late vector not found, got %s", res[0].ID)
	}
}

func TestIVFTrainEmpty(t *testing.T) {
	ivf := NewIVF(4, 2, 1, 0)
	if err := ivf.Train(3); !errors.Is(err, ErrEmptyIndex) {
		t.Errorf("Train on empty = %v, want ErrEmptyIndex", err)
	}
}

func TestIVFDuplicate(t *testing.T) {
	ivf := NewIVF(2, 2, 1, 0)
	if err := ivf.Add("a", []float32{1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := ivf.Add("a", []float32{0, 1}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("dup err = %v", err)
	}
}

func TestHNSWHighRecall(t *testing.T) {
	const dim, n = 32, 2000
	flat := NewFlat(dim)
	hnsw := NewHNSW(dim, 16, 128, 11)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < n; i++ {
		v := randomUnit(rng, dim)
		id := fmt.Sprintf("v%05d", i)
		if err := flat.Add(id, v); err != nil {
			t.Fatal(err)
		}
		if err := hnsw.Add(id, v); err != nil {
			t.Fatal(err)
		}
	}
	var sum float64
	const q = 20
	for i := 0; i < q; i++ {
		query := randomUnit(rng, dim)
		exact, err := flat.Search(query, 10)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := hnsw.Search(query, 10)
		if err != nil {
			t.Fatal(err)
		}
		sum += Recall(approx, exact)
	}
	if avg := sum / q; avg < 0.85 {
		t.Errorf("HNSW recall@10 = %v, want >= 0.85", avg)
	}
}

func TestHNSWSelfQuery(t *testing.T) {
	const dim = 16
	h := NewHNSW(dim, 8, 64, 2)
	vecs := fillIndex(t, h, 300, dim, 8)
	hits := 0
	for i := 0; i < 300; i += 17 {
		res, err := h.Search(vecs[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].ID == fmt.Sprintf("v%04d", i) {
			hits++
		}
	}
	if hits < 15 { // 18 probes; allow a couple of graph misses
		t.Errorf("self-query hits = %d/18", hits)
	}
}

func TestHNSWEFSearchImprovesRecall(t *testing.T) {
	const dim, n = 24, 1500
	flat := NewFlat(dim)
	h := NewHNSW(dim, 8, 64, 13)
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < n; i++ {
		v := randomUnit(rng, dim)
		id := fmt.Sprintf("v%05d", i)
		_ = flat.Add(id, v)
		if err := h.Add(id, v); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([][]float32, 15)
	for i := range queries {
		queries[i] = randomUnit(rng, dim)
	}
	recallAt := func(ef int) float64 {
		h.SetEFSearch(ef)
		var sum float64
		for _, q := range queries {
			exact, _ := flat.Search(q, 10)
			approx, err := h.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			sum += Recall(approx, exact)
		}
		return sum / float64(len(queries))
	}
	low := recallAt(10)
	high := recallAt(256)
	if high < low {
		t.Errorf("recall fell as efSearch grew: ef10=%v ef256=%v", low, high)
	}
	if high < 0.9 {
		t.Errorf("recall at ef=256 too low: %v", high)
	}
}

func TestHNSWErrors(t *testing.T) {
	h := NewHNSW(4, 4, 8, 0)
	if _, err := h.Search([]float32{1, 0, 0, 0}, 1); !errors.Is(err, ErrEmptyIndex) {
		t.Errorf("empty err = %v", err)
	}
	if err := h.Add("a", []float32{1}); !errors.Is(err, ErrDimension) {
		t.Errorf("dim err = %v", err)
	}
	_ = h.Add("a", []float32{1, 0, 0, 0})
	if err := h.Add("a", []float32{0, 1, 0, 0}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("dup err = %v", err)
	}
}

func TestRecallHelper(t *testing.T) {
	got := []Result{{ID: "a"}, {ID: "b"}}
	want := []Result{{ID: "a"}, {ID: "c"}}
	if r := Recall(got, want); r != 0.5 {
		t.Errorf("Recall = %v, want 0.5", r)
	}
	if r := Recall(nil, nil); r != 1 {
		t.Errorf("Recall empty = %v, want 1", r)
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	h := newTopK(2)
	h.offer(Result{ID: "b", Score: 1})
	h.offer(Result{ID: "a", Score: 1})
	h.offer(Result{ID: "c", Score: 1})
	out := h.sorted()
	if out[0].ID != "a" && out[0].ID != "b" {
		t.Errorf("unexpected top: %v", out)
	}
	if out[0].ID > out[1].ID {
		t.Errorf("ties not broken by ID: %v", out)
	}
}

func benchIndex(b *testing.B, mk func() Index, n int) {
	const dim = 64
	idx := mk()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		if err := idx.Add(fmt.Sprintf("v%06d", i), randomUnit(rng, dim)); err != nil {
			b.Fatal(err)
		}
	}
	if iv, ok := idx.(*IVF); ok {
		if err := iv.Train(8); err != nil {
			b.Fatal(err)
		}
	}
	q := randomUnit(rng, dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.Search(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlatSearch10k(b *testing.B) {
	benchIndex(b, func() Index { return NewFlat(64) }, 10000)
}

func BenchmarkIVFSearch10k(b *testing.B) {
	benchIndex(b, func() Index { return NewIVF(64, 64, 8, 1) }, 10000)
}

func BenchmarkHNSWSearch10k(b *testing.B) {
	benchIndex(b, func() Index { return NewHNSW(64, 16, 100, 1) }, 10000)
}
