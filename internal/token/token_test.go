package token

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"Hello, World!", []string{"hello", ",", "world", "!"}},
		{"a  b\tc\nd", []string{"a", "b", "c", "d"}},
		{"GPT-4 costs $0.03", []string{"gpt", "-", "4", "costs", "$", "0", ".", "03"}},
		{"  leading and trailing  ", []string{"leading", "and", "trailing"}},
		{"UPPER lower MiXeD", []string{"upper", "lower", "mixed"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := Tokenize("café 東京!")
	want := []string{"café", "東京", "!"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestCountMatchesTokenize(t *testing.T) {
	inputs := []string{
		"", "one", "Hello, World!", "a b c d e", "x;y;z", "  spaced   out  ",
		"punctuation... everywhere!!! ok?",
	}
	for _, in := range inputs {
		if got, want := Count(in), len(Tokenize(in)); got != want {
			t.Errorf("Count(%q) = %d, want %d", in, got, want)
		}
	}
}

func TestCountMatchesTokenizeProperty(t *testing.T) {
	f := func(s string) bool {
		return Count(s) == len(Tokenize(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDetokenizeRoundTrip(t *testing.T) {
	inputs := []string{
		"hello world", "a, b, c!", "the quick brown fox .",
	}
	for _, in := range inputs {
		toks := Tokenize(in)
		back := Tokenize(Detokenize(toks))
		if !reflect.DeepEqual(toks, back) {
			t.Errorf("round trip %q: %v != %v", in, toks, back)
		}
	}
}

func TestDetokenizeRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		return reflect.DeepEqual(toks, Tokenize(Detokenize(toks)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVocabularyAssignsStableIDs(t *testing.T) {
	v := NewVocabulary()
	a := v.ID("apple")
	b := v.ID("banana")
	if a == b {
		t.Fatal("distinct tokens share an id")
	}
	if v.ID("apple") != a {
		t.Error("repeated lookup changed id")
	}
	if v.Word(a) != "apple" || v.Word(b) != "banana" {
		t.Error("Word does not invert ID")
	}
	if v.Size() != numReserved+2 {
		t.Errorf("Size = %d, want %d", v.Size(), numReserved+2)
	}
}

func TestVocabularyReserved(t *testing.T) {
	v := NewVocabulary()
	if v.Word(UnknownID) != "<unk>" || v.Word(BOSID) != "<bos>" || v.Word(EOSID) != "<eos>" {
		t.Error("reserved tokens not registered")
	}
	if v.Word(-1) != "<unk>" || v.Word(9999) != "<unk>" {
		t.Error("out-of-range Word should return <unk>")
	}
}

func TestVocabularyConcurrent(t *testing.T) {
	v := NewVocabulary()
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				v.ID(strings.Repeat("x", i%17+1))
				v.Word(i % 50)
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if v.ID("xxx") != v.ID("xxx") {
		t.Error("unstable id after concurrent growth")
	}
}

func TestHashNGramsMatchesJoinedHash(t *testing.T) {
	toks := Tokenize("the quick brown fox jumps over the lazy dog")
	for _, n := range []int{1, 2, 3, 5} {
		hashes := HashNGrams(toks, n)
		if len(hashes) != len(toks)-n+1 {
			t.Fatalf("n=%d: %d hashes for %d tokens", n, len(hashes), len(toks))
		}
		for i, h := range hashes {
			if g := strings.Join(toks[i:i+n], " "); h != Hash64(g+" ") {
				t.Errorf("n=%d gram %d: hash mismatch", n, i)
			}
		}
	}
}

func TestHash64Deterministic(t *testing.T) {
	if Hash64("abc") != Hash64("abc") {
		t.Error("Hash64 not deterministic")
	}
	if Hash64("abc") == Hash64("abd") {
		t.Error("trivial collision")
	}
	// Known FNV-1a value for empty string.
	if Hash64("") != fnvOffset {
		t.Error("empty string hash should be the FNV offset basis")
	}
}

func TestHash64SeedFamilies(t *testing.T) {
	s := "same input"
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 64; seed++ {
		h := Hash64Seed(s, seed)
		if seen[h] {
			t.Fatalf("seed %d collided with an earlier seed", seed)
		}
		seen[h] = true
		if h != Hash64Seed(s, seed) {
			t.Fatal("Hash64Seed not deterministic")
		}
	}
}

func TestFrequencies(t *testing.T) {
	toks := Tokenize("a b a c a b")
	f := Frequencies(toks)
	if f["a"] != 3 || f["b"] != 2 || f["c"] != 1 || len(f) != 3 {
		t.Errorf("Frequencies = %v", f)
	}
}

func TestTokenizeNeverEmptyTokens(t *testing.T) {
	f := func(s string) bool {
		return !slices.Contains(Tokenize(s), "")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTokenize(b *testing.B) {
	text := strings.Repeat("the quick brown fox jumps over the lazy dog. ", 50)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tokenize(text)
	}
}

func BenchmarkHashNGrams(b *testing.B) {
	toks := Tokenize(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 50))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HashNGrams(toks, 5)
	}
}

// TestHash64SeedBytesMatchesString: the byte-slice variant must agree
// with the string variant for every input — embed's no-allocation
// trigram path depends on this equivalence for bit-identical vectors.
func TestHash64SeedBytesMatchesString(t *testing.T) {
	cases := []string{"", "a", "##abc", "##xyz", "the quick brown fox", "##\x00\xff"}
	seeds := []uint64{0, 1, 0x5eed, ^uint64(0)}
	for _, s := range cases {
		for _, seed := range seeds {
			if got, want := Hash64SeedBytes([]byte(s), seed), Hash64Seed(s, seed); got != want {
				t.Errorf("Hash64SeedBytes(%q, %#x) = %#x, want %#x", s, seed, got, want)
			}
		}
	}
}
