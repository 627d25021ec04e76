package docstore

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"dataai/internal/token"
)

func TestFixedChunkerWindows(t *testing.T) {
	text := "a b c d e f g h i j"
	chunks := FixedChunker{Size: 4, Overlap: 1}.Chunk(text)
	// step 3: [a..d], [d..g], [g..j] — the last window reaches the end.
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks: %v", len(chunks), chunks)
	}
	if chunks[0] != "a b c d" || chunks[1] != "d e f g" || chunks[2] != "g h i j" {
		t.Errorf("chunks = %v", chunks)
	}
}

func TestFixedChunkerDegenerateConfig(t *testing.T) {
	text := "a b c"
	for _, c := range []FixedChunker{{Size: 0}, {Size: 2, Overlap: 2}, {Size: 3, Overlap: -1}} {
		got := c.Chunk(text)
		if len(got) != 1 || got[0] != text {
			t.Errorf("config %+v: got %v", c, got)
		}
	}
	if got := (FixedChunker{Size: 4}).Chunk(""); got != nil {
		t.Errorf("empty text: %v", got)
	}
}

func TestFixedChunkerCoversAllTokens(t *testing.T) {
	f := func(s string) bool {
		chunks := FixedChunker{Size: 8, Overlap: 2}.Chunk(s)
		var joined []string
		for _, c := range chunks {
			joined = append(joined, token.Tokenize(c)...)
		}
		// Every original token must appear in the concatenation (with
		// overlap duplicates allowed).
		orig := token.Tokenize(s)
		if len(orig) == 0 {
			return chunks == nil
		}
		freq := token.Frequencies(joined)
		for _, tok := range orig {
			if freq[tok] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSplitSentences(t *testing.T) {
	got := SplitSentences("First one. Second! Third? trailing bit")
	want := []string{"First one.", "Second!", "Third?", "trailing bit"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sentence %d = %q, want %q", i, got[i], want[i])
		}
	}
	if got := SplitSentences(""); got != nil {
		t.Errorf("empty: %v", got)
	}
	if got := SplitSentences("..."); got != nil {
		t.Errorf("dots only: %v", got)
	}
}

func TestSentenceChunkerKeepsSentencesWhole(t *testing.T) {
	text := "The ceo of Acme is bob. Filler words here. Another fact stated plainly. More filler."
	chunks := SentenceChunker{MaxTokens: 12}.Chunk(text)
	if len(chunks) < 2 {
		t.Fatalf("expected multiple chunks, got %v", chunks)
	}
	for _, c := range chunks {
		// No chunk starts or ends mid-sentence: each chunk is a join of
		// complete sentences, so it must end with a terminator or be the
		// trailing fragment.
		if !strings.HasSuffix(c, ".") {
			t.Errorf("chunk %q does not end at a sentence boundary", c)
		}
	}
	// The fact sentence must survive intact in some chunk.
	found := false
	for _, c := range chunks {
		if strings.Contains(c, "The ceo of Acme is bob.") {
			found = true
		}
	}
	if !found {
		t.Error("fact sentence split across chunks")
	}
}

func TestSentenceChunkerBudget(t *testing.T) {
	var sentences []string
	for i := 0; i < 20; i++ {
		sentences = append(sentences, fmt.Sprintf("sentence number %d here.", i))
	}
	text := strings.Join(sentences, " ")
	chunks := SentenceChunker{MaxTokens: 15}.Chunk(text)
	for _, c := range chunks {
		n := token.Count(c)
		// A chunk may exceed the budget only if it is one long sentence.
		if n > 15 && len(SplitSentences(c)) > 1 {
			t.Errorf("chunk has %d tokens over budget: %q", n, c)
		}
	}
}

func TestSentenceChunkerDefaults(t *testing.T) {
	chunks := SentenceChunker{}.Chunk("one. two. three.")
	if len(chunks) != 1 {
		t.Errorf("default budget should pack all: %v", chunks)
	}
	if got := (SentenceChunker{MaxTokens: 5}).Chunk(""); got != nil {
		t.Errorf("empty text: %v", got)
	}
}

func TestStoreAddAndLookup(t *testing.T) {
	s := NewStore()
	chunks, err := s.AddDocument(Document{ID: "d1", Text: "alpha beta. gamma delta."}, SentenceChunker{MaxTokens: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 2 {
		t.Fatalf("got %d chunks", len(chunks))
	}
	if chunks[0].ID != "d1#0" || chunks[1].Seq != 1 {
		t.Errorf("chunk identity wrong: %+v", chunks)
	}
	c, err := s.Chunk("d1#1")
	if err != nil || c.DocID != "d1" {
		t.Fatalf("Chunk: %v %+v", err, c)
	}
	if s.Len() != 1 || s.ChunkCount() != 2 {
		t.Errorf("Len/ChunkCount = %d/%d", s.Len(), s.ChunkCount())
	}
}

func TestStoreErrors(t *testing.T) {
	s := NewStore()
	if _, err := s.AddDocument(Document{ID: ""}, FixedChunker{Size: 4}); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := s.AddDocument(Document{ID: "x", Text: "t"}, FixedChunker{Size: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddDocument(Document{ID: "x", Text: "t"}, FixedChunker{Size: 4}); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := s.Chunk("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Chunk err = %v", err)
	}
}

func TestChunksInsertionOrder(t *testing.T) {
	s := NewStore()
	for i := 0; i < 3; i++ {
		if _, err := s.AddDocument(Document{ID: fmt.Sprintf("d%d", i), Text: "one two"}, FixedChunker{Size: 10}); err != nil {
			t.Fatal(err)
		}
	}
	all := s.Chunks()
	if len(all) != 3 {
		t.Fatalf("got %d chunks", len(all))
	}
	for i, c := range all {
		if c.DocID != fmt.Sprintf("d%d", i) {
			t.Errorf("chunk %d from %s, want d%d", i, c.DocID, i)
		}
	}
}

func TestRemoveDocument(t *testing.T) {
	s := NewStore()
	if _, err := s.AddDocument(Document{ID: "a", Text: "one two. three four."}, SentenceChunker{MaxTokens: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddDocument(Document{ID: "b", Text: "five six."}, SentenceChunker{MaxTokens: 3}); err != nil {
		t.Fatal(err)
	}
	removed, err := s.RemoveDocument("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("removed %v", removed)
	}
	if s.Len() != 1 || s.ChunkCount() != 1 {
		t.Errorf("Len=%d ChunkCount=%d", s.Len(), s.ChunkCount())
	}
	all := s.Chunks()
	if len(all) != 1 || all[0].DocID != "b" {
		t.Errorf("Chunks = %v", all)
	}
	if _, err := s.RemoveDocument("a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double remove err = %v", err)
	}
}
