package token

import (
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// tokenizeReference is Tokenize as the package shipped it before tokens
// became slices of the input: every token built rune by rune in a
// strings.Builder. It is the oracle for Tokenize
// (TestTokenizeMatchesReference, FuzzTokenize).
func tokenizeReference(text string) []string {
	if text == "" {
		return nil
	}
	toks := make([]string, 0, len(text)/5+1)
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			toks = append(toks, strings.ToLower(b.String()))
			b.Reset()
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		case unicode.IsSpace(r):
			flush()
		default:
			flush()
			toks = append(toks, string(unicode.ToLower(r)))
		}
	}
	flush()
	return toks
}

// tokenizeCases are the inputs TestTokenizeMatchesReference compares;
// testdata/fuzz/FuzzTokenize holds the same inputs as FuzzTokenize's
// seed corpus.
var tokenizeCases = []struct {
	name, in string
}{
	{"ascii upper and digits", "GPT-4 COSTS $0.03, SAID Ada42 at 9AM"},
	{"ascii spaces", "a\tb\nc\vd\fe\rf g"},
	{"next line", "one\u0085two"},
	{"no-break space", "one\u00a0two"},
	{"line separator", "one\u2028two"},
	{"accented upper", "ÉCOLE"},
	{"dotted capital i", "İ"},
	{"sharp s", "ß"},
	{"greek upper", "ΟΔΟΣ"},
	{"roman numeral", "Ⅻ"},
	{"invalid byte", "\xff"},
	{"invalid byte in word", "a\xffb"},
	{"replacement char", "\uFFFD"},
	{"empty", ""},
	{"only spaces", "   "},
	{"only punctuation", "!?.,;:-"},
}

// TestTokenizeMatchesReference compares Tokenize with the builder-based
// oracle on the cases where slicing the input could go wrong: runes that
// lower-case to a different length, non-letters with a lower-case
// mapping, every kind of space, and invalid UTF-8.
func TestTokenizeMatchesReference(t *testing.T) {
	for _, c := range tokenizeCases {
		got, want := Tokenize(c.in), tokenizeReference(c.in)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Tokenize(%q) = %q, reference %q", c.name, c.in, got, want)
		}
	}
}

// FuzzTokenize checks Tokenize against the oracle, and Count against
// Tokenize, on arbitrary strings, valid UTF-8 or not.
func FuzzTokenize(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		got, want := Tokenize(s), tokenizeReference(s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", s, got, want)
		}
		if n := Count(s); n != len(got) {
			t.Fatalf("Count(%q) = %d, Tokenize gives %d tokens", s, n, len(got))
		}
	})
}
