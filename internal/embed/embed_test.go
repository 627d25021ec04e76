package embed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEmbedDeterministic(t *testing.T) {
	e := NewHashEmbedder(64)
	a := e.Embed("the quick brown fox")
	b := e.Embed("the quick brown fox")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding not deterministic")
		}
	}
}

func TestEmbedUnitNorm(t *testing.T) {
	e := NewHashEmbedder(128)
	v := e.Embed("some reasonably long text with many words in it")
	var ss float64
	for _, x := range v {
		ss += float64(x) * float64(x)
	}
	if math.Abs(ss-1) > 1e-5 {
		t.Errorf("norm^2 = %v, want 1", ss)
	}
}

func TestEmbedEmptyIsZero(t *testing.T) {
	e := NewHashEmbedder(32)
	for _, in := range []string{"", "   ", "\t\n"} {
		v := e.Embed(in)
		for _, x := range v {
			if x != 0 {
				t.Fatalf("Embed(%q) not zero", in)
			}
		}
	}
}

func TestSimilarTextsCloserThanUnrelated(t *testing.T) {
	e := NewHashEmbedder(DefaultDim)
	a := e.Embed("the revenue of acme corporation grew twenty percent in march")
	b := e.Embed("acme corporation revenue grew rapidly during march")
	c := e.Embed("penguins huddle together through antarctic winter storms")
	simAB := Cosine(a, b)
	simAC := Cosine(a, c)
	if simAB <= simAC {
		t.Errorf("related pair %v not closer than unrelated %v", simAB, simAC)
	}
	if simAB < 0.3 {
		t.Errorf("related pair similarity too low: %v", simAB)
	}
}

func TestBigramsMakeEmbeddingOrderSensitive(t *testing.T) {
	e := NewHashEmbedder(64)
	a := e.Embed("alpha beta gamma")
	b := e.Embed("gamma alpha beta")
	for i := range a {
		if a[i] != b[i] {
			return
		}
	}
	t.Error("reordered words embed identically: bigram features missing")
}

func TestCosineBounds(t *testing.T) {
	e := NewHashEmbedder(DefaultDim)
	f := func(s1, s2 string) bool {
		c := Cosine(e.Embed(s1), e.Embed(s2))
		return c >= -1.0001 && c <= 1.0001 && !math.IsNaN(float64(c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCosineSelfIsOne(t *testing.T) {
	e := NewHashEmbedder(DefaultDim)
	v := e.Embed("self similarity should be one")
	if c := Cosine(v, v); math.Abs(float64(c)-1) > 1e-5 {
		t.Errorf("self cosine = %v", c)
	}
}

func TestDotEqualsCosineForUnitVectors(t *testing.T) {
	e := NewHashEmbedder(DefaultDim)
	a := e.Embed("first piece of text here")
	b := e.Embed("second chunk of words there")
	if d, c := Dot(a, b), Cosine(a, b); math.Abs(float64(d-c)) > 1e-4 {
		t.Errorf("dot %v != cosine %v for unit vectors", d, c)
	}
}

func TestEuclideanSq(t *testing.T) {
	a := []float32{1, 0, 0}
	b := []float32{0, 1, 0}
	if d := EuclideanSq(a, b); math.Abs(float64(d)-2) > 1e-6 {
		t.Errorf("EuclideanSq = %v, want 2", d)
	}
	if d := EuclideanSq(a, a); d != 0 {
		t.Errorf("self distance = %v", d)
	}
}

func TestMean(t *testing.T) {
	vecs := [][]float32{{1, 2}, {3, 4}}
	m := Mean(vecs)
	if m[0] != 2 || m[1] != 3 {
		t.Errorf("Mean = %v", m)
	}
	if Mean(nil) != nil {
		t.Error("Mean(nil) should be nil")
	}
}

func TestDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestNewHashEmbedderPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for dim 0")
		}
	}()
	NewHashEmbedder(0)
}

func TestNormalizeZeroVector(t *testing.T) {
	v := []float32{0, 0, 0}
	Normalize(v) // must not NaN
	for _, x := range v {
		if x != 0 {
			t.Error("zero vector changed")
		}
	}
}

func BenchmarkEmbed(b *testing.B) {
	e := NewHashEmbedder(DefaultDim)
	text := "retrieval augmented generation feeds relevant context into the language model to avoid hallucination"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Embed(text)
	}
}

func BenchmarkCosine(b *testing.B) {
	e := NewHashEmbedder(DefaultDim)
	x := e.Embed("first vector text")
	y := e.Embed("second vector text")
	for i := 0; i < b.N; i++ {
		Cosine(x, y)
	}
}
