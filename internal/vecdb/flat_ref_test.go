package vecdb

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
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

// refStoredVec returns a stored vector of one of three kinds: sparse,
// dense, or extreme-magnitude with signed zeros and subnormals.
func refStoredVec(rng *rand.Rand, dim int) []float32 {
	switch rng.Intn(3) {
	case 0:
		return sparseVec(rng, dim, dim/4)
	case 1:
		return randVec(rng, dim)
	}
	v := make([]float32, dim)
	for d := range v {
		v[d] = extremeCoord(rng)
	}
	return v
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
// workers, with and without a keep filter, for the top 4 and for every
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
				for _, w := range []int{1, 2, 3} {
					f.SetParallelism(w)
					before := f.DistComps()
					got, err := f.SearchFilter(q, k, keep)
					if err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("%s q%d k%d keep=%v w%d", name, qi, k, keep != nil, w)
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
// of the first block's growth and of every block edge, across deletes
// that empty and release the last block, re-adds, and a Save/LoadFlat
// round trip. One in ten stored vectors repeats an earlier one, so
// results also carry exact score ties.
func TestFlatScanMatchesReference(t *testing.T) {
	const dim = 24
	compared := 0
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
		compared += checkAgainstReference(t, fmt.Sprintf("n%d", n), f, m, queries)
		if n != 2049 {
			continue
		}

		// 2049 rows fill two blocks and put one row in a third: deleting
		// any row empties the third block.
		m.delete(t, f, rng.Intn(len(m.ids)))
		if len(f.blocks) != 2 {
			t.Fatalf("after emptying the third block: %d blocks, want 2", len(f.blocks))
		}
		compared += checkAgainstReference(t, "deleted-to-2048", f, m, queries)
		m.delete(t, f, len(m.ids)-1)
		for len(m.ids) > 1000 {
			m.delete(t, f, rng.Intn(len(m.ids)))
		}
		if len(f.blocks) != 1 {
			t.Fatalf("after deleting to %d rows: %d blocks, want 1", len(m.ids), len(f.blocks))
		}
		compared += checkAgainstReference(t, "deleted-to-1000", f, m, queries)
		for i := 0; i < 1100; i++ {
			m.add(t, f, fmt.Sprintf("readd%05d", i), refStoredVec(rng, dim))
		}
		compared += checkAgainstReference(t, "re-added", f, m, queries)

		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadFlat(&buf)
		if err != nil {
			t.Fatal(err)
		}
		compared += checkAgainstReference(t, "loaded", loaded, m, queries)
	}
	t.Logf("%d scores compared", compared)
}
