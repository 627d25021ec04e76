package vecdb

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dataai/internal/embed"
)

// Concurrency stress tests: every index documents itself as safe for
// concurrent use, and these tests make `go test -race ./...` prove it —
// parallel Add/Search/Delete/Len on shared instances. A sequential suite
// never exercises the RWMutex reader/writer interleavings (one of which
// hid a recursive-RLock deadlock in IVF.Search until this test existed).

func randVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	embed.Normalize(v)
	return v
}

// stressIndex hammers idx with concurrent writers and readers. Writers
// own disjoint id ranges (Add returns ErrDuplicateID otherwise); readers
// run Search and Len throughout.
func stressIndex(t *testing.T, idx Index, dim int) {
	t.Helper()
	const (
		writers = 4
		readers = 4
		perW    = 150
	)
	seed := rand.New(rand.NewSource(99))
	if err := idx.Add("seed0", randVec(seed, dim)); err != nil {
		t.Fatalf("seed add: %v", err)
	}
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := idx.Search(randVec(rng, dim), 5); err != nil {
					t.Errorf("Search: %v", err)
					return
				}
				idx.Len()
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if err := idx.Add(id, randVec(rng, dim)); err != nil {
					t.Errorf("Add %s: %v", id, err)
					return
				}
				if i%3 == 0 {
					if err := idx.Delete(id); err != nil {
						t.Errorf("Delete %s: %v", id, err)
						return
					}
				}
			}
		}(w)
	}
	// Writers run to completion under reader pressure, then the readers
	// are released.
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	wantLive := 1 + writers*perW - writers*((perW+2)/3)
	if got := idx.Len(); got != wantLive {
		t.Fatalf("Len = %d, want %d", got, wantLive)
	}
}

func TestFlatParallel(t *testing.T) {
	t.Parallel()
	stressIndex(t, NewFlat(16), 16)
}

func TestHNSWParallel(t *testing.T) {
	t.Parallel()
	stressIndex(t, NewHNSW(16, 8, 32, 5), 16)
}

func TestIVFParallelUntrained(t *testing.T) {
	t.Parallel()
	stressIndex(t, NewIVF(16, 8, 4, 5), 16)
}

func TestIVFParallelTrained(t *testing.T) {
	t.Parallel()
	iv := NewIVF(16, 8, 4, 5)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		if err := iv.Add(fmt.Sprintf("pre%d", i), randVec(rng, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := iv.Train(4); err != nil {
		t.Fatal(err)
	}
	// Concurrent Search + SetNProbe + Add on a trained index: this is
	// the interleaving where Search's old Len() call could deadlock
	// against a queued writer.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 100; i++ {
				switch w % 4 {
				case 0:
					iv.SetNProbe(1 + i%8)
				case 1:
					if err := iv.Add(fmt.Sprintf("c%d-%d", w, i), randVec(r, 16)); err != nil {
						t.Errorf("Add: %v", err)
						return
					}
				default:
					if _, err := iv.Search(randVec(r, 16), 5); err != nil {
						t.Errorf("Search: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
