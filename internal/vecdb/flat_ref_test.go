package vecdb

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"dataai/internal/embed"
)

// referenceSearch is the row-major Flat scan the package shipped before
// vectors moved into dimension-major blocks, with the rows passed in:
// one dense embed.Dot per stored vector, offered to topK in row order.
// It is the oracle for Flat's blocked sparse scan
// (TestFlatScanMatchesReference): both must return the same results,
// score for score by bit pattern, and count the same inner products.
func referenceSearch(ids []string, vecs [][]float32, query []float32, k int, keep func(id string) bool) ([]Result, uint64) {
	h := newTopK(k)
	var dots uint64
	for i, v := range vecs {
		if keep != nil && !keep(ids[i]) {
			continue
		}
		dots++
		h.offer(Result{ID: ids[i], Score: embed.Dot(query, v)})
	}
	return h.sorted(), dots
}

// flatModel is the row-major state a Flat index should hold: the ids
// and vectors it was given, swap-removed on delete as Flat.Delete does.
type flatModel struct {
	ids  []string
	vecs [][]float32
}

func (m *flatModel) add(t *testing.T, f *Flat, id string, v []float32) {
	t.Helper()
	if err := f.Add(id, v); err != nil {
		t.Fatal(err)
	}
	m.ids = append(m.ids, id)
	m.vecs = append(m.vecs, append([]float32(nil), v...))
}

func (m *flatModel) delete(t *testing.T, f *Flat, i int) {
	t.Helper()
	if err := f.Delete(m.ids[i]); err != nil {
		t.Fatal(err)
	}
	last := len(m.ids) - 1
	m.ids[i], m.vecs[i] = m.ids[last], m.vecs[last]
	m.ids, m.vecs = m.ids[:last], m.vecs[:last]
}

// extremeCoord returns a coordinate for the hard cases of float32
// accumulation: ±0, subnormals, and magnitudes from 1e-30 to 1e30.
func extremeCoord(rng *rand.Rand) float32 {
	sign := float32(1)
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch rng.Intn(6) {
	case 0:
		return sign * 0 // ±0 (float32(-1)*0 is -0)
	case 1:
		return sign * math.Float32frombits(uint32(1+rng.Intn(1<<23-1))) // subnormal
	default:
		return sign * float32(math.Pow(10, rng.Float64()*60-30))
	}
}

// columnDensity is the chance that a column-skewed vector has a non-zero
// coordinate d, by d modulo its length: mixed with the other kinds of
// refStoredVec, it gives every full block sparse columns and dense ones
// (see flatSparseMax), and some near the cut.
var columnDensity = []float64{0, 0.02, 0.1, 0.3, 0.45, 0.55, 0.8, 1}

// refStoredVec returns a stored vector of one of four kinds: sparse,
// dense, extreme-magnitude with signed zeros and subnormals, or (most
// often) column-skewed with extreme-magnitude coordinates.
func refStoredVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	switch rng.Intn(8) {
	case 0:
		return sparseVec(rng, dim, dim/4)
	case 1:
		return randVec(rng, dim)
	case 2:
		for d := range v {
			v[d] = extremeCoord(rng)
		}
	default:
		for d := range v {
			if rng.Float64() < columnDensity[d%len(columnDensity)] {
				v[d] = extremeCoord(rng)
			}
		}
	}
	return v
}

// sealedColumns tallies the sealed columns checkSealed has seen, so a
// test can show it scanned both kinds.
type sealedColumns struct{ sparse, dense int }

// checkSealed verifies f.sealed against f.blocks: exactly the full
// blocks are sealed, a column is sparse exactly when it has fewer than
// flatSparseMax non-zeros, and a sparse column lists every non-zero of
// its block column, in row order.
func checkSealed(t *testing.T, name string, f *Flat, seen *sealedColumns) {
	t.Helper()
	if len(f.sealed) != len(f.blocks) {
		t.Fatalf("%s: %d seals for %d blocks", name, len(f.sealed), len(f.blocks))
	}
	for b, s := range f.sealed {
		if full := len(f.ids) >= (b+1)*flatBlockRows; (s != nil) != full {
			t.Fatalf("%s: block %d of %d rows: sealed %v, full %v", name, b, len(f.ids), s != nil, full)
		}
		if s == nil {
			continue
		}
		for d := 0; d < f.dim; d++ {
			var want []rowValue
			for r, x := range f.blocks[b][d*flatBlockRows : (d+1)*flatBlockRows] {
				if x != 0 {
					want = append(want, rowValue{row: uint32(r), v: x})
				}
			}
			if dense := len(want) >= flatSparseMax; s.dense[d] != dense {
				t.Fatalf("%s: block %d column %d has %d non-zeros, dense %v", name, b, d, len(want), s.dense[d])
			}
			if s.dense[d] {
				seen.dense++
				continue
			}
			seen.sparse++
			got := s.cols[d]
			if len(got) != len(want) {
				t.Fatalf("%s: block %d column %d: %d pairs, %d non-zeros", name, b, d, len(got), len(want))
			}
			for i := range want {
				if got[i].row != want[i].row || math.Float32bits(got[i].v) != math.Float32bits(want[i].v) {
					t.Fatalf("%s: block %d column %d pair %d = %v, want %v", name, b, d, i, got[i], want[i])
				}
			}
		}
	}
}

// refQueries returns all-zero queries (+0 and -0), a one-hot negative
// query (its product with a stored +0 is -0, which a sum that starts
// anywhere but +0 would keep), sparse and dense queries, and queries
// with subnormal or large coordinates. Query magnitudes stay below 1e5,
// so no product with a stored coordinate (at most 1e30) overflows and
// every score is finite.
func refQueries(rng *rand.Rand, dim int) [][]float32 {
	negZero := make([]float32, dim)
	for d := range negZero {
		negZero[d] = float32(math.Copysign(0, -1))
	}
	oneHot := make([]float32, dim)
	oneHot[rng.Intn(dim)] = -1
	sparse := sparseVec(rng, dim, 5)
	sparse[rng.Intn(dim)] = float32(math.Copysign(0, -1))
	dense := randVec(rng, dim)
	mixed := make([]float32, dim)
	for d := range mixed {
		if c := extremeCoord(rng); math.Abs(float64(c)) < 1e5 {
			mixed[d] = c
		}
	}
	return [][]float32{make([]float32, dim), negZero, oneHot, sparse, dense, mixed}
}

// checkAgainstReference runs every query through f at 1, 2 and 3
// workers and through scans sharded at 2 and 3 workers whatever their
// work, with and without a keep filter, for the top 4 and for every
// row, and compares each result list, score bit pattern and DistComps
// increment with referenceSearch over m. It returns how many scores it
// compared.
func checkAgainstReference(t *testing.T, name string, f *Flat, m *flatModel, queries [][]float32) int {
	t.Helper()
	if f.Len() != len(m.ids) {
		t.Fatalf("%s: Len %d, model %d", name, f.Len(), len(m.ids))
	}
	for i, id := range m.ids {
		got, err := f.Get(id)
		if err != nil {
			t.Fatalf("%s: Get(%s): %v", name, id, err)
		}
		for d := range got {
			if math.Float32bits(got[d]) != math.Float32bits(m.vecs[i][d]) {
				t.Fatalf("%s: Get(%s)[%d] = %v, stored %v", name, id, d, got[d], m.vecs[i][d])
			}
		}
	}
	keepSome := func(id string) bool { return id[len(id)-1]%3 != 0 }
	compared := 0
	for qi, q := range queries {
		for _, k := range []int{4, len(m.ids)} {
			for _, keep := range []func(string) bool{nil, keepSome} {
				want, wantDots := referenceSearch(m.ids, m.vecs, q, k, keep)
				for _, r := range want {
					if math.IsNaN(float64(r.Score)) || math.IsInf(float64(r.Score), 0) {
						t.Fatalf("%s q%d: reference score %v for %s: test data must keep scores finite", name, qi, r.Score, r.ID)
					}
				}
				// Search at 1, 2 and 3 workers, then shard at 2 and 3
				// workers whatever the query's work.
				for _, w := range []int{1, 2, 3, -2, -3} {
					at := fmt.Sprintf("%s q%d k%d keep=%v w%d", name, qi, k, keep != nil, w)
					before := f.DistComps()
					var got []Result
					var err error
					if w > 0 {
						f.SetParallelism(w)
						got, err = f.SearchFilter(q, k, keep)
					} else {
						at += " sharded"
						got, err = f.searchShards(q, k, keep, -w, 0)
					}
					if err != nil {
						t.Fatal(err)
					}
					if dots := f.DistComps() - before; dots != wantDots {
						t.Errorf("%s: %d dist comps, reference %d", at, dots, wantDots)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d results, reference %d", at, len(got), len(want))
					}
					for i := range want {
						if got[i].ID != want[i].ID || math.Float32bits(got[i].Score) != math.Float32bits(want[i].Score) {
							t.Fatalf("%s: result %d = %s %v (bits %#x), reference %s %v (bits %#x)", at, i,
								got[i].ID, got[i].Score, math.Float32bits(got[i].Score),
								want[i].ID, want[i].Score, math.Float32bits(want[i].Score))
						}
					}
					compared += len(want)
				}
			}
		}
	}
	return compared
}

// TestFlatScanMatchesReference is the differential test of the blocked
// sparse scan against the dense row-major oracle, at sizes on both sides
// of the first block's growth and seal and of every block edge. Most
// blocks hold sparse and dense columns. The sequences cover deletes
// inside a sealed block (a re-seal), a delete that un-fills the last
// block and the add that seals it again, deletes that empty and release
// the last block, re-adds, and sharded scans that split sealed blocks.
// One in ten stored vectors repeats an earlier one, so results also
// carry exact score ties.
func TestFlatScanMatchesReference(t *testing.T) {
	const dim = 24
	compared := 0
	var seen sealedColumns
	check := func(name string, f *Flat, m *flatModel, queries [][]float32) {
		t.Helper()
		checkSealed(t, name, f, &seen)
		compared += checkAgainstReference(t, name, f, m, queries)
	}
	for _, n := range []int{1, 1023, 1024, 1025, 2049, 4100} {
		rng := rand.New(rand.NewSource(int64(n)))
		f, m := NewFlat(dim), &flatModel{}
		for i := 0; i < n; i++ {
			v := refStoredVec(rng, dim)
			if i > 0 && rng.Intn(10) == 0 {
				v = m.vecs[rng.Intn(i)]
			}
			m.add(t, f, fmt.Sprintf("r%05d", i), v)
		}
		queries := refQueries(rng, dim)
		check(fmt.Sprintf("n%d", n), f, m, queries)
		if n == 4100 {
			// Rows from the unfilled fifth block move into sealed ones;
			// the sharded scans at 2 and 3 workers split sealed blocks.
			for _, i := range []int{7, 1500, 4000} {
				m.delete(t, f, i)
			}
			check("n4100-resealed", f, m, queries)
		}
		if n != 2049 {
			continue
		}

		// 2049 rows fill two blocks and put one row in a third: deleting
		// a row of the first block moves that row into it, which must
		// be sealed again, and empties the third block.
		m.delete(t, f, 5)
		if len(f.blocks) != 2 {
			t.Fatalf("after emptying the third block: %d blocks, want 2", len(f.blocks))
		}
		check("deleted-to-2048", f, m, queries)
		m.delete(t, f, 1500)
		if f.sealed[1] != nil {
			t.Fatal("the second block is no longer full but still sealed")
		}
		check("unfilled-2047", f, m, queries)
		m.add(t, f, "refill", refStoredVec(rng, dim))
		if f.sealed[1] == nil {
			t.Fatal("the second block is full again but not sealed")
		}
		check("refilled-2048", f, m, queries)
		for len(m.ids) > 1000 {
			m.delete(t, f, rng.Intn(len(m.ids)))
		}
		if len(f.blocks) != 1 {
			t.Fatalf("after deleting to %d rows: %d blocks, want 1", len(m.ids), len(f.blocks))
		}
		check("deleted-to-1000", f, m, queries)
		for i := 0; i < 1100; i++ {
			m.add(t, f, fmt.Sprintf("readd%05d", i), refStoredVec(rng, dim))
		}
		check("re-added", f, m, queries)
	}

	// Score ties at the heap root: every fourth row is v, and ids fall as
	// rows are added. The other rows are zero where v is not, so on a
	// query over v's coordinates each copy of v outscores them, and each
	// later copy beats the full heap's root by its smaller id alone. v's
	// columns hold a quarter of the rows, so they are scanned as pairs.
	rng := rand.New(rand.NewSource(7))
	f, m := NewFlat(dim), &flatModel{}
	v, onV := make([]float32, dim), make([]float32, dim)
	for d := 0; d < dim; d += 4 {
		v[d], onV[d] = float32(d+1), 1
	}
	for i := 0; i < 4200; i++ {
		w := v
		if i%4 != 0 {
			w = refStoredVec(rng, dim)
			for d := 0; d < dim; d += 4 {
				w[d] = 0
			}
		}
		m.add(t, f, fmt.Sprintf("t%05d", 4200-i), w)
	}
	check("ties", f, m, append(refQueries(rng, dim), onV))

	if seen.sparse == 0 || seen.dense == 0 {
		t.Fatalf("sealed columns checked: %d sparse, %d dense; want both kinds", seen.sparse, seen.dense)
	}
	t.Logf("%d scores compared; %d sparse and %d dense sealed columns checked", compared, seen.sparse, seen.dense)
}

// TestFlatSealRacesSearch: scans sharded at two workers race one writer
// whose adds seal blocks and whose deletes re-seal or un-seal them,
// growing the index past four full blocks. Each result must score
// exactly embed.Dot of the query and the vector its id was added with;
// at the end the index must match the oracle. Under -race this also
// proves no scan reads a seal while it is written.
func TestFlatSealRacesSearch(t *testing.T) {
	t.Parallel()
	const dim, n, readers = 16, 4396, 3
	rng := rand.New(rand.NewSource(11))
	vecs := make([][]float32, n)
	for i := range vecs {
		vecs[i] = refStoredVec(rng, dim)
	}
	f, m := NewFlat(dim), &flatModel{}
	for i := 0; i < 900; i++ {
		m.add(t, f, fmt.Sprintf("s%05d", i), vecs[i])
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Stopped before the final checks, whose DistComps deltas a running
	// reader would disturb, and on a t.Fatal from the writer.
	stopReaders := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer stopReaders()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := refQueries(qrng, dim)[3+qrng.Intn(3)]
				res, err := f.searchShards(q, 5, nil, 2, 0)
				if err != nil {
					t.Errorf("Search: %v", err)
					return
				}
				for _, hit := range res {
					var i int
					if _, err := fmt.Sscanf(hit.ID, "s%05d", &i); err != nil {
						t.Errorf("result id %q: %v", hit.ID, err)
						return
					}
					if want := embed.Dot(q, vecs[i]); math.Float32bits(hit.Score) != math.Float32bits(want) {
						t.Errorf("%s scored %v, embed.Dot %v", hit.ID, hit.Score, want)
						return
					}
				}
			}
		}(r)
	}
	// The writer runs on the test goroutine, so the model's t.Fatal is
	// safe: it adds every vector, and every 7th add deletes a row at a
	// position that cycles through the sealed blocks and the last one.
	for i := 900; i < n; i++ {
		m.add(t, f, fmt.Sprintf("s%05d", i), vecs[i])
		if i%7 == 0 {
			m.delete(t, f, (i*131)%len(m.ids))
		}
	}
	stopReaders()
	var seen sealedColumns
	checkSealed(t, "raced", f, &seen)
	checkAgainstReference(t, "raced", f, m, refQueries(rng, dim))
}
