// Package docstore provides the document store and the segmentation
// (chunking) strategies that feed retrieval. The paper lists "semantic
// document segmentation" among the RAG challenges (§2.2.1); this package
// implements the two standard strategies systems choose between — fixed
// token windows with overlap, and sentence-packing up to a token budget —
// so the RAG pipeline can treat segmentation as a pluggable policy.
package docstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"dataai/internal/token"
)

// ErrNotFound indicates a lookup of an absent document or chunk.
var ErrNotFound = errors.New("docstore: not found")

// Document is a source document to chunk and index.
type Document struct {
	ID   string
	Text string
}

// Chunk is a retrievable segment of a document.
type Chunk struct {
	// ID is unique per chunk: "<docID>#<n>".
	ID    string
	DocID string
	// Seq is the chunk's position within its document.
	Seq  int
	Text string
}

// Chunker splits a document's text into retrieval units.
// Implementations must be safe for concurrent use: rag's Ingest cuts
// several documents at once. FixedChunker and SentenceChunker hold no
// mutable state.
type Chunker interface {
	Chunk(text string) []string
}

// FixedChunker emits windows of Size tokens advancing by Size-Overlap.
type FixedChunker struct {
	Size    int
	Overlap int
}

// Chunk implements Chunker. Invalid configurations (Size <= 0, Overlap >=
// Size) degrade to a single chunk of the whole text.
func (f FixedChunker) Chunk(text string) []string {
	toks := token.Tokenize(text)
	if len(toks) == 0 {
		return nil
	}
	if f.Size <= 0 || f.Overlap < 0 || f.Overlap >= f.Size {
		return []string{text}
	}
	step := f.Size - f.Overlap
	var out []string
	for start := 0; start < len(toks); start += step {
		end := start + f.Size
		if end > len(toks) {
			end = len(toks)
		}
		out = append(out, token.Detokenize(toks[start:end]))
		if end == len(toks) {
			break
		}
	}
	return out
}

// SentenceChunker packs whole sentences into chunks of at most MaxTokens
// tokens. Sentences longer than the budget become their own chunk. This is
// the "semantic segmentation" policy: fact statements are never split
// mid-sentence, which measurably improves retrieval granularity.
type SentenceChunker struct {
	MaxTokens int
}

// Chunk implements Chunker.
func (s SentenceChunker) Chunk(text string) []string {
	sentences := SplitSentences(text)
	if len(sentences) == 0 {
		return nil
	}
	budget := s.MaxTokens
	if budget <= 0 {
		budget = 64
	}
	var out []string
	var cur []string
	curTokens := 0
	flush := func() {
		if len(cur) > 0 {
			out = append(out, strings.Join(cur, " "))
			cur, curTokens = nil, 0
		}
	}
	for _, sent := range sentences {
		n := token.Count(sent)
		if curTokens+n > budget && curTokens > 0 {
			flush()
		}
		cur = append(cur, sent)
		curTokens += n
		if curTokens >= budget {
			flush()
		}
	}
	flush()
	return out
}

// SplitSentences splits text at '.', '!' and '?' boundaries, keeping the
// terminator with the sentence.
func SplitSentences(text string) []string {
	var out []string
	start := 0
	for i := 0; i < len(text); i++ {
		switch text[i] {
		case '.', '!', '?':
			s := strings.TrimSpace(text[start : i+1])
			if s != "" && s != "." && s != "!" && s != "?" {
				out = append(out, s)
			}
			start = i + 1
		}
	}
	if s := strings.TrimSpace(text[start:]); s != "" {
		out = append(out, s)
	}
	return out
}

// Store holds documents' chunks. It is safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	docs   map[string]struct{} // the stored document IDs
	chunks map[string]Chunk
	order  []string // chunk ids in insertion order
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		docs:   make(map[string]struct{}),
		chunks: make(map[string]Chunk),
	}
}

// AddDocument indexes doc's chunks produced by chunker.
// It returns the chunks created. Re-adding an existing ID is an error.
func (s *Store) AddDocument(doc Document, chunker Chunker) ([]Chunk, error) {
	if doc.ID == "" {
		return nil, fmt.Errorf("docstore: empty document id")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.docs[doc.ID]; ok {
		return nil, fmt.Errorf("docstore: duplicate document %q", doc.ID)
	}
	s.docs[doc.ID] = struct{}{}
	pieces := chunker.Chunk(doc.Text)
	out := make([]Chunk, 0, len(pieces))
	for i, p := range pieces {
		ch := Chunk{
			ID:    fmt.Sprintf("%s#%d", doc.ID, i),
			DocID: doc.ID,
			Seq:   i,
			Text:  p,
		}
		s.chunks[ch.ID] = ch
		s.order = append(s.order, ch.ID)
		out = append(out, ch)
	}
	return out, nil
}

// Chunk returns the chunk with the given id.
func (s *Store) Chunk(id string) (Chunk, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.chunks[id]
	if !ok {
		return Chunk{}, fmt.Errorf("%w: chunk %q", ErrNotFound, id)
	}
	return c, nil
}

// Chunks returns all chunks in insertion order.
func (s *Store) Chunks() []Chunk {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Chunk, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.chunks[id])
	}
	return out
}

// RemoveDocument deletes a document and its chunks, returning the removed
// chunk ids (so callers can drop them from derived indexes).
func (s *Store) RemoveDocument(docID string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.docs[docID]; !ok {
		return nil, fmt.Errorf("%w: document %q", ErrNotFound, docID)
	}
	delete(s.docs, docID)
	var removed []string
	for id, c := range s.chunks {
		if c.DocID == docID {
			removed = append(removed, id)
			delete(s.chunks, id)
		}
	}
	sort.Strings(removed)
	kept := s.order[:0]
	for _, id := range s.order {
		if _, ok := s.chunks[id]; ok {
			kept = append(kept, id)
		}
	}
	s.order = kept
	return removed, nil
}

// Len reports the number of stored documents.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.docs)
}

// ChunkCount reports the number of stored chunks.
func (s *Store) ChunkCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.chunks)
}
