package docstore

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestStoreParallel makes `go test -race ./...` exercise the Store's
// RWMutex: concurrent document adds and removals against readers of
// every accessor. Writers own disjoint id ranges; readers tolerate
// ErrNotFound (a doc may be added or removed under them) but no other
// error and no torn data.
func TestStoreParallel(t *testing.T) {
	s := NewStore()
	chunker := SentenceChunker{MaxTokens: 8}
	const (
		writers = 4
		readers = 4
		perW    = 120
	)
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("doc-w%d-%d", r%writers, i%perW)
				if c, err := s.Chunk(id + "#0"); err == nil {
					if c.DocID != id {
						t.Errorf("Chunk(%q#0) returned a chunk of %q", id, c.DocID)
						return
					}
				} else if !errors.Is(err, ErrNotFound) {
					t.Errorf("Chunk(%q#0): %v", id, err)
					return
				}
				s.Chunks()
				s.Len()
				s.ChunkCount()
				i++
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perW; i++ {
				id := fmt.Sprintf("doc-w%d-%d", w, i)
				doc := Document{
					ID:   id,
					Text: fmt.Sprintf("Sentence one of %s. Sentence two is a bit longer. The third closes it.", id),
				}
				chunks, err := s.AddDocument(doc, chunker)
				if err != nil {
					t.Errorf("AddDocument(%q): %v", id, err)
					return
				}
				if len(chunks) == 0 {
					t.Errorf("AddDocument(%q): no chunks", id)
					return
				}
				if i%4 == 0 {
					if _, err := s.RemoveDocument(id); err != nil {
						t.Errorf("RemoveDocument(%q): %v", id, err)
						return
					}
				}
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	removedPerW := (perW + 3) / 4
	wantDocs := writers * (perW - removedPerW)
	if got := s.Len(); got != wantDocs {
		t.Fatalf("Len = %d, want %d", got, wantDocs)
	}
	// Every surviving chunk must belong to a surviving document (writers
	// removed every fourth) and be retrievable by id.
	for _, c := range s.Chunks() {
		var w, i int
		if _, err := fmt.Sscanf(c.DocID, "doc-w%d-%d", &w, &i); err != nil || i%4 == 0 {
			t.Fatalf("chunk %q orphaned (document %q removed or unknown)", c.ID, c.DocID)
		}
		if _, err := s.Chunk(c.ID); err != nil {
			t.Fatalf("Chunk(%q): %v", c.ID, err)
		}
	}
}
