package vecdb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// fillFlat populates a Flat index with n seeded random unit vectors.
func fillFlat(t testing.TB, n, dim int, seed int64) (*Flat, [][]float32) {
	t.Helper()
	f := NewFlat(dim)
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]float32, n)
	for i := 0; i < n; i++ {
		v := randVec(rng, dim)
		vecs[i] = v
		if err := f.Add(fmt.Sprintf("v%06d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	return f, vecs
}

// TestFlatParallelScanMatchesSerial is the determinism contract for the
// sharded scan: at every worker count, including counts that do not
// divide the index size, the parallel scan returns exactly the serial
// scan's results and counts exactly the serial number of inner products.
func TestFlatParallelScanMatchesSerial(t *testing.T) {
	const dim, n, k = 32, 6000, 10
	f, _ := fillFlat(t, n, dim, 42)
	rng := rand.New(rand.NewSource(7))
	queries := make([][]float32, 20)
	for i := range queries {
		queries[i] = randVec(rng, dim)
	}
	for qi, q := range queries {
		f.SetParallelism(1)
		before := f.DistComps()
		want, err := f.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		serialDots := f.DistComps() - before
		for _, workers := range []int{2, 3, 4, 8} {
			f.SetParallelism(workers)
			before = f.DistComps()
			got, err := f.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if dots := f.DistComps() - before; dots != serialDots {
				t.Errorf("q%d w%d: %d dist comps, serial %d", qi, workers, dots, serialDots)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("q%d w%d: parallel results differ from serial\ngot  %v\nwant %v", qi, workers, got, want)
			}
		}
	}
}

// TestFlatParallelScanWithTies forces exact score ties — duplicate
// vectors under distinct ids — across shard boundaries, the adversarial
// case for order-dependent selection. The beats total order must yield
// identical results at every worker count.
func TestFlatParallelScanWithTies(t *testing.T) {
	const dim, n, k = 16, 6000, 8
	f := NewFlat(dim)
	rng := rand.New(rand.NewSource(3))
	base := make([][]float32, 5)
	for i := range base {
		base[i] = randVec(rng, dim)
	}
	// Every stored vector duplicates one of 5 base vectors, so every
	// search sees ~1200-way score ties straddling every shard boundary.
	for i := 0; i < n; i++ {
		if err := f.Add(fmt.Sprintf("dup%05d", i), base[i%len(base)]); err != nil {
			t.Fatal(err)
		}
	}
	q := randVec(rng, dim)
	f.SetParallelism(1)
	want, err := f.Search(q, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 5, 8, 13} {
		f.SetParallelism(workers)
		got, err := f.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("w%d: tie-heavy parallel scan differs from serial\ngot  %v\nwant %v", workers, got, want)
		}
	}
}

// TestFlatParallelScanFiltered: the keep filter must compose with
// sharding — same results, and only kept vectors counted.
func TestFlatParallelScanFiltered(t *testing.T) {
	const dim, n, k = 16, 5000, 5
	f, _ := fillFlat(t, n, dim, 11)
	keep := func(id string) bool { return id[len(id)-1] == '3' }
	q := randVec(rand.New(rand.NewSource(5)), dim)
	f.SetParallelism(1)
	before := f.DistComps()
	want, err := f.SearchFilter(q, k, keep)
	if err != nil {
		t.Fatal(err)
	}
	serialDots := f.DistComps() - before
	f.SetParallelism(4)
	before = f.DistComps()
	got, err := f.SearchFilter(q, k, keep)
	if err != nil {
		t.Fatal(err)
	}
	if dots := f.DistComps() - before; dots != serialDots {
		t.Errorf("filtered parallel scan counted %d dist comps, serial %d", dots, serialDots)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("filtered parallel scan differs from serial\ngot  %v\nwant %v", got, want)
	}
}

// TestFlatParallelScanNaNParity: NaN has no place in the beats order, so
// an index that stored NaN coordinates could rank differently serial and
// sharded. Add refuses them, which keeps the contract: over 50 seeds of
// 5000 vectors, one in 50 with a NaN coordinate, every NaN vector is
// rejected and the serial and 2-worker top 5 agree.
func TestFlatParallelScanNaNParity(t *testing.T) {
	const dim, n, k = 8, 5000, 5
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("v%05d", i)
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := NewFlat(dim)
		for i, id := range ids {
			v := randVec(rng, dim)
			if i%50 == 0 {
				v[rng.Intn(dim)] = float32(math.NaN())
			}
			if err := f.Add(id, v); (i%50 == 0) != errors.Is(err, ErrNonFinite) {
				t.Fatalf("seed %d: Add(%s) err = %v", seed, id, err)
			}
		}
		q := randVec(rng, dim)
		f.SetParallelism(1)
		want, err := f.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		f.SetParallelism(2)
		got, err := f.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: w2 top %d differs from serial\ngot  %v\nwant %v", seed, k, got, want)
		}
	}
}

// TestSearchBatchMatchesSearchLoop: for all three index types, a batch
// is byte-identical to a serial Search loop at every worker count.
func TestSearchBatchMatchesSearchLoop(t *testing.T) {
	const dim, n, nq, k = 16, 400, 30, 5
	rng := rand.New(rand.NewSource(21))
	vecs := make([][]float32, n)
	for i := range vecs {
		vecs[i] = randVec(rng, dim)
	}
	queries := make([][]float32, nq)
	for i := range queries {
		queries[i] = randVec(rng, dim)
	}
	fill := func(idx Index) {
		for i, v := range vecs {
			if err := idx.Add(fmt.Sprintf("v%04d", i), v); err != nil {
				t.Fatal(err)
			}
		}
	}
	iv := NewIVF(dim, 8, 4, 9)
	fill(iv)
	if err := iv.Train(4); err != nil {
		t.Fatal(err)
	}
	flat := NewFlat(dim)
	fill(flat)
	hnsw := NewHNSW(dim, 8, 32, 9)
	fill(hnsw)
	for name, idx := range map[string]Index{"flat": flat, "ivf": iv, "hnsw": hnsw} {
		want := make([][]Result, nq)
		for i, q := range queries {
			r, err := idx.Search(q, k)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want[i] = r
		}
		for _, workers := range []int{1, 2, 4, 8} {
			idx.SetParallelism(workers)
			got, err := idx.SearchBatch(queries, k)
			if err != nil {
				t.Fatalf("%s w%d: %v", name, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s w%d: SearchBatch differs from Search loop", name, workers)
			}
		}
	}
}

// TestSearchBatchErrors: dimension mismatches surface as the first
// failing query by index, and empty batches are fine.
func TestSearchBatchErrors(t *testing.T) {
	f, _ := fillFlat(t, 10, 8, 1)
	if out, err := f.SearchBatch(nil, 3); err != nil || out != nil {
		t.Fatalf("empty batch: got %v, %v", out, err)
	}
	good := make([]float32, 8)
	bad := make([]float32, 5)
	_, err := f.SearchBatch([][]float32{good, bad, bad}, 3)
	if err == nil {
		t.Fatal("want error for dimension mismatch")
	}
	want := "batch query 1"
	if got := err.Error(); !contains(got, want) {
		t.Fatalf("error %q does not name first failing query (%q)", got, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSearchBatchConcurrentAdd is the -race stress for the batch path:
// SearchBatch fans out internally while writers add vectors, covering
// the RLock-per-query snapshot semantics. Results are not asserted
// (they legitimately depend on interleaving); the race detector and the
// per-query well-formedness checks are the point.
func TestSearchBatchConcurrentAdd(t *testing.T) {
	t.Parallel()
	const dim, k = 16, 5
	for name, idx := range map[string]Index{
		"flat": NewFlat(dim),
		"ivf":  NewIVF(dim, 8, 4, 5),
		"hnsw": NewHNSW(dim, 8, 32, 5),
	} {
		idx := idx
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			idx.SetParallelism(4)
			seedRng := rand.New(rand.NewSource(77))
			for i := 0; i < 64; i++ {
				if err := idx.Add(fmt.Sprintf("seed%03d", i), randVec(seedRng, dim)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(200 + w)))
					for i := 0; i < 80; i++ {
						if err := idx.Add(fmt.Sprintf("w%d-%03d", w, i), randVec(rng, dim)); err != nil {
							t.Errorf("Add: %v", err)
							return
						}
					}
				}(w)
			}
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(300 + r)))
					for i := 0; i < 20; i++ {
						queries := make([][]float32, 8)
						for j := range queries {
							queries[j] = randVec(rng, dim)
						}
						res, err := idx.SearchBatch(queries, k)
						if err != nil {
							t.Errorf("SearchBatch: %v", err)
							return
						}
						if len(res) != len(queries) {
							t.Errorf("SearchBatch returned %d result sets for %d queries", len(res), len(queries))
							return
						}
						for qi, rs := range res {
							for ri := 1; ri < len(rs); ri++ {
								if beats(rs[ri], rs[ri-1]) {
									t.Errorf("query %d: results out of order at %d", qi, ri)
									return
								}
							}
						}
					}
				}(r)
			}
			wg.Wait()
		})
	}
}

// TestSetParallelismClamp: negative values behave like the default.
func TestSetParallelismClamp(t *testing.T) {
	f := NewFlat(4)
	f.SetParallelism(-5)
	if w := f.searchWorkers(); w < 1 {
		t.Fatalf("searchWorkers after SetParallelism(-5) = %d", w)
	}
}
