package vecdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
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

// TestFlatSaveRacesDelete: 20 Saves race 1500 Deletes on a 2000-vector
// index. Every snapshot must be one the index actually held: each saved
// id carries the vector it was added with. Under -race this also proves
// Save reads nothing after it releases the lock.
func TestFlatSaveRacesDelete(t *testing.T) {
	t.Parallel()
	const dim, n, deletes, saves = 8, 2000, 1500, 20
	f, vecs := fillFlat(t, n, dim, 9)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < deletes; i++ {
			if err := f.Delete(fmt.Sprintf("v%06d", i)); err != nil {
				t.Errorf("Delete: %v", err)
				return
			}
		}
	}()
	snaps := make([]bytes.Buffer, saves)
	go func() {
		defer wg.Done()
		for i := range snaps {
			if err := f.Save(&snaps[i]); err != nil {
				t.Errorf("Save: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	for i := range snaps {
		loaded, err := LoadFlat(&snaps[i])
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if l := loaded.Len(); l < n-deletes || l > n {
			t.Fatalf("snapshot %d holds %d vectors, want %d..%d", i, l, n-deletes, n)
		}
		for id, row := range loaded.pos {
			var want int
			if _, err := fmt.Sscanf(id, "v%06d", &want); err != nil {
				t.Fatal(err)
			}
			got, _ := loaded.Get(id)
			if !reflect.DeepEqual(got, vecs[want]) {
				t.Fatalf("snapshot %d: %s (row %d) = %v, added as %v", i, id, row, got, vecs[want])
			}
		}
	}
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
