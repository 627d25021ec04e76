package dataprep

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"dataai/internal/corpus"
	"dataai/internal/llm/ngram"
	"dataai/internal/token"
)

func trainAndScore(t testing.TB, train, heldOut []string) float64 {
	t.Helper()
	m := ngram.New()
	m.TrainAll(train)
	pp, err := m.CorpusPerplexity(heldOut)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

func TestExactDedup(t *testing.T) {
	docs := []string{"a b c", "d e f", "A   b c", "d e f"}
	out := ExactDedup(docs)
	if len(out) != 2 {
		t.Fatalf("got %d docs: %v", len(out), out)
	}
	if out[0] != "a b c" || out[1] != "d e f" {
		t.Errorf("order not preserved: %v", out)
	}
}

func TestExactDedupIdempotent(t *testing.T) {
	f := func(docs []string) bool {
		once := ExactDedup(docs)
		twice := ExactDedup(once)
		if len(once) != len(twice) {
			return false
		}
		for i := range once {
			if once[i] != twice[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMinHashEstimatesJaccard(t *testing.T) {
	m, err := NewMinHasher(128, 16, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	base := "the quick brown fox jumps over the lazy dog and runs far away into the woods"
	identical := m.EstimateJaccard(m.Signature(base), m.Signature(base))
	if identical != 1 {
		t.Errorf("identical docs estimate = %v", identical)
	}
	near := base + " tonight"
	nearSim := m.EstimateJaccard(m.Signature(base), m.Signature(near))
	if nearSim < 0.5 {
		t.Errorf("near-duplicate estimate = %v, want high", nearSim)
	}
	far := "completely different content about compilers and kernels with zero overlap whatsoever in any shingle"
	farSim := m.EstimateJaccard(m.Signature(base), m.Signature(far))
	if farSim > 0.2 {
		t.Errorf("unrelated estimate = %v, want low", farSim)
	}
	if nearSim <= farSim {
		t.Error("similarity ordering violated")
	}
}

func TestMinHashSimilarityConcentration(t *testing.T) {
	// Property: for random token-swap perturbations, the MinHash estimate
	// tracks true shingle Jaccard within a tolerance.
	m, err := NewMinHasher(256, 32, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	words := strings.Fields("alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu xi omicron pi rho sigma tau")
	for trial := 0; trial < 20; trial++ {
		n := 30 + rng.Intn(30)
		a := make([]string, n)
		for i := range a {
			a[i] = words[rng.Intn(len(words))]
		}
		b := append([]string(nil), a...)
		swaps := rng.Intn(n / 2)
		for i := 0; i < swaps; i++ {
			b[rng.Intn(n)] = words[rng.Intn(len(words))]
		}
		docA, docB := strings.Join(a, " "), strings.Join(b, " ")
		truth := shingleJaccard(docA, docB, 2)
		est := m.EstimateJaccard(m.Signature(docA), m.Signature(docB))
		if diff := truth - est; diff > 0.25 || diff < -0.25 {
			t.Errorf("trial %d: estimate %v far from truth %v", trial, est, truth)
		}
	}
}

func shingleJaccard(a, b string, n int) float64 {
	setA := map[string]bool{}
	for _, g := range ngrams(a, n) {
		setA[g] = true
	}
	setB := map[string]bool{}
	for _, g := range ngrams(b, n) {
		setB[g] = true
	}
	inter := 0
	for g := range setA {
		if setB[g] {
			inter++
		}
	}
	union := len(setA) + len(setB) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func ngrams(s string, n int) []string {
	toks := strings.Fields(s)
	var out []string
	for i := 0; i+n <= len(toks); i++ {
		out = append(out, strings.Join(toks[i:i+n], " "))
	}
	return out
}

func TestMinHashDedupFindsCorpusDuplicates(t *testing.T) {
	c := testCorpus(t, 53)
	docs := c.Texts()
	m, err := NewMinHasher(128, 32, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	kept, removed := m.Dedup(docs, 0.6)
	if len(kept)+len(removed) != len(docs) {
		t.Fatalf("partition broken: %d + %d != %d", len(kept), len(removed), len(docs))
	}
	// Count how many known duplicates were removed.
	dupTotal := c.CountKind(corpus.Duplicate)
	removedSet := map[int]bool{}
	for _, i := range removed {
		removedSet[i] = true
	}
	caught := 0
	for i, d := range c.Docs {
		if d.Kind == corpus.Duplicate && removedSet[i] {
			caught++
		}
	}
	if dupTotal == 0 {
		t.Skip("no duplicates in corpus")
	}
	recall := float64(caught) / float64(dupTotal)
	if recall < 0.6 {
		t.Errorf("dedup recall %v (caught %d/%d)", recall, caught, dupTotal)
	}
	// Boilerplate is identical across docs and also collapses; verify we
	// did not remove most clean docs (precision proxy).
	cleanRemoved := 0
	for i, d := range c.Docs {
		if d.Kind == corpus.Clean && removedSet[i] {
			cleanRemoved++
		}
	}
	if frac := float64(cleanRemoved) / float64(c.CountKind(corpus.Clean)); frac > 0.15 {
		t.Errorf("dedup removed %v of clean docs", frac)
	}
}

func TestNewMinHasherValidation(t *testing.T) {
	if _, err := NewMinHasher(0, 1, 3, 1); err == nil {
		t.Error("zero hashes accepted")
	}
	if _, err := NewMinHasher(100, 7, 3, 1); err == nil {
		t.Error("non-divisible bands accepted")
	}
}

func TestDedupImprovesModelPerTrainingToken(t *testing.T) {
	// The [29] claim: deduplicating training data makes LMs better for a
	// matched training budget.
	// Duplication-heavy corpus — the regime [29] studies: a third of the
	// crawl is near/exact copies, so an undeduplicated training prefix
	// wastes much of its budget restating the same documents.
	cfg := corpus.DefaultConfig(59)
	cfg.DuplicateFraction = 0.35
	cfg.BoilerplateFraction = 0.1
	gen, err := corpus.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := gen.Generate()
	// Shuffle first: the corpus is generated domain-by-domain, and a
	// prefix-budget comparison must not conflate dedup with domain mix.
	perm := rand.New(rand.NewSource(59)).Perm(len(c.Docs))
	var heldOut, pool []string
	heldOutIDs := map[string]bool{}
	cleanSeen := 0
	for _, pi := range perm {
		d := c.Docs[pi]
		if d.Kind == corpus.Clean && cleanSeen < 50 {
			heldOut = append(heldOut, d.Text)
			heldOutIDs[d.ID] = true
			cleanSeen++
		}
	}
	for _, pi := range perm {
		d := c.Docs[pi]
		if heldOutIDs[d.ID] {
			continue
		}
		// Duplicates of held-out docs would leak evaluation text into the
		// raw pool and flatter the no-dedup arm.
		if d.Kind == corpus.Duplicate && heldOutIDs[d.DupOf] {
			continue
		}
		pool = append(pool, d.Text)
	}
	m, err := NewMinHasher(128, 32, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	deduped, _ := m.Dedup(pool, 0.6)

	// Matched budget: train both on the same number of documents.
	budget := len(deduped)
	if budget > len(pool) {
		budget = len(pool)
	}
	ppRaw := trainAndScore(t, pool[:budget], heldOut)
	ppDeduped := trainAndScore(t, deduped[:budget], heldOut)
	if ppDeduped >= ppRaw {
		t.Errorf("deduped ppl %v >= raw %v at matched budget %d", ppDeduped, ppRaw, budget)
	}
}

func BenchmarkMinHashSignature(b *testing.B) {
	m, _ := NewMinHasher(128, 16, 3, 1)
	doc := strings.Repeat("the quick brown fox jumps over the lazy dog ", 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Signature(doc)
	}
}

func BenchmarkMinHashDedup1k(b *testing.B) {
	var docs []string
	for i := 0; i < 1000; i++ {
		docs = append(docs, fmt.Sprintf("document %d about topic %d with shared boilerplate text", i, i%50))
	}
	m, _ := NewMinHasher(64, 16, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Dedup(docs, 0.7)
	}
}

// dedupCorpus builds a corpus with planted near-duplicates: every fifth
// document is a lightly edited copy of the previous one, so Dedup has
// real clusters to find at any worker count.
func dedupCorpus(n int) []string {
	docs := make([]string, n)
	for i := range docs {
		if i%5 == 4 {
			docs[i] = docs[i-1] + " trailing edit"
			continue
		}
		docs[i] = fmt.Sprintf(
			"report %d covers metric %d for region %d with shared boilerplate text about quarterly performance",
			i, i%13, i%7)
	}
	return docs
}

// TestDedupParallelMatchesSerial: the parallel signature pass changes
// only scheduling, so kept documents and removed indices are identical
// at every worker count.
func TestDedupParallelMatchesSerial(t *testing.T) {
	docs := dedupCorpus(200)
	serial, _ := NewMinHasher(64, 16, 3, 1)
	serial.Workers = 1
	wantKept, wantRemoved := serial.Dedup(docs, 0.7)
	if len(wantRemoved) == 0 {
		t.Fatal("corpus has no near-duplicates; test is vacuous")
	}
	for _, workers := range []int{2, 4, 8, 0} {
		m, _ := NewMinHasher(64, 16, 3, 1)
		m.Workers = workers
		kept, removed := m.Dedup(docs, 0.7)
		if !reflect.DeepEqual(kept, wantKept) || !reflect.DeepEqual(removed, wantRemoved) {
			t.Fatalf("workers=%d: Dedup differs from serial (kept %d vs %d, removed %d vs %d)",
				workers, len(kept), len(wantKept), len(removed), len(wantRemoved))
		}
	}
}

// BenchmarkParDedup: serial vs parallel MinHash dedup at 1/2/4/8
// workers (`go test -bench=Par -benchtime=1x ./...`).
func BenchmarkParDedup(b *testing.B) {
	docs := dedupCorpus(1000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			m, _ := NewMinHasher(64, 16, 3, 1)
			m.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if kept, _ := m.Dedup(docs, 0.7); len(kept) == 0 {
					b.Fatal("empty dedup result")
				}
			}
		})
	}
}

// signatureReference is MinHasher.Signature as the package shipped it
// before the four-function kernel: every shingle folds into every slot,
// each hash function's constant worked out again per shingle. It is the
// oracle for Signature (TestSignatureMatchesReference) and the
// signatures dedupReference bands.
func signatureReference(m *MinHasher, text string) []uint64 {
	toks := token.Tokenize(text)
	n := m.ShingleSize
	if len(toks) < n {
		n = 1
	}
	shingles := token.HashNGrams(toks, n)
	sig := make([]uint64, m.NumHashes)
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for _, sh := range shingles {
		for i := 0; i < m.NumHashes; i++ {
			// Universal-ish hash family: mix shingle hash with per-
			// function constant derived from the seed.
			h := mix(sh ^ (m.seed + uint64(i)*0x9e3779b97f4a7c15))
			if h < sig[i] {
				sig[i] = h
			}
		}
	}
	return sig
}

// dedupReference is MinHasher.Dedup without hashing: each band's groups
// are map buckets keyed by the band's exact words (their fmt.Sprint
// string), filled in document order. Dedup groups by a 64-bit hash of
// the words instead, so the two differ only where two distinct bands
// at one band index collide in 64 bits. Its signatures come from
// signatureReference, so it shares no code with the Dedup it checks
// but mix and the tokenizer. It is the oracle for Dedup
// (TestDedupMatchesReference).
func dedupReference(m *MinHasher, docs []string, threshold float64) (kept []string, removed []int) {
	sigs := make([][]uint64, len(docs))
	for i, d := range docs {
		sigs[i] = signatureReference(m, d)
	}
	rows := m.NumHashes / m.Bands
	parent := make([]int, len(docs))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	buckets := make(map[string][]int)
	for band := 0; band < m.Bands; band++ {
		clear(buckets)
		for i, sig := range sigs {
			key := fmt.Sprint(sig[band*rows : (band+1)*rows])
			buckets[key] = append(buckets[key], i)
		}
		for _, group := range buckets {
			for j := 1; j < len(group); j++ {
				a, b := group[0], group[j]
				if m.EstimateJaccard(sigs[a], sigs[b]) >= threshold {
					union(a, b)
				}
			}
		}
	}
	first := make(map[int]int) // cluster root -> first doc index
	for i := range docs {
		r := find(i)
		if f, ok := first[r]; !ok || i < f {
			if !ok {
				first[r] = i
			}
		}
	}
	for i, d := range docs {
		if first[find(i)] == i {
			kept = append(kept, d)
		} else {
			removed = append(removed, i)
		}
	}
	return kept, removed
}

// plantedCorpus returns n seeded documents over a small vocabulary, so
// unrelated documents share shingles too. About a third are edited
// copies of an earlier document (a few words replaced, inserted or cut),
// and the mix includes empty, one-token and two-token documents.
func plantedCorpus(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	vocab := strings.Fields("data model query index vector token shard cache plan cost " +
		"latency batch record field table join filter score rank merge")
	docs := make([]string, n)
	for i := range docs {
		switch r := rng.Intn(20); {
		case r == 0:
			docs[i] = ""
		case r == 1:
			docs[i] = vocab[rng.Intn(len(vocab))]
		case r == 2:
			docs[i] = vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))]
		case r < 9 && i > 0:
			words := strings.Fields(docs[rng.Intn(i)])
			for e := rng.Intn(4); e > 0 && len(words) > 0; e-- {
				at := rng.Intn(len(words))
				switch rng.Intn(3) {
				case 0:
					words[at] = vocab[rng.Intn(len(vocab))]
				case 1:
					words = append(words[:at], append([]string{vocab[rng.Intn(len(vocab))]}, words[at:]...)...)
				default:
					words = append(words[:at], words[at+1:]...)
				}
			}
			docs[i] = strings.Join(words, " ")
		default:
			words := make([]string, 8+rng.Intn(30))
			for w := range words {
				words[w] = vocab[rng.Intn(len(vocab))]
			}
			docs[i] = strings.Join(words, " ")
		}
	}
	return docs
}

// TestDedupMatchesReference compares Dedup's kept documents and removed
// indices with the exact-band map-bucket oracle, across seeded corpora,
// thresholds, band counts and worker counts.
func TestDedupMatchesReference(t *testing.T) {
	removedAny := 0
	for seed := int64(1); seed <= 4; seed++ {
		docs := plantedCorpus(seed, 300)
		for _, threshold := range []float64{0.3, 0.6, 0.9} {
			for _, bands := range []int{8, 16, 32} {
				m, err := NewMinHasher(128, bands, 3, uint64(seed))
				if err != nil {
					t.Fatal(err)
				}
				wantKept, wantRemoved := dedupReference(m, docs, threshold)
				removedAny += len(wantRemoved)
				for _, workers := range []int{1, 2} {
					m.Workers = workers
					kept, removed := m.Dedup(docs, threshold)
					if !reflect.DeepEqual(kept, wantKept) || !reflect.DeepEqual(removed, wantRemoved) {
						t.Errorf("seed %d threshold %v bands %d workers %d: kept %d removed %v, reference kept %d removed %v",
							seed, threshold, bands, workers, len(kept), removed, len(wantKept), wantRemoved)
					}
				}
			}
		}
	}
	if removedAny == 0 {
		t.Fatal("no configuration removed a document; the comparison is vacuous")
	}
}

// TestSignatureMatchesReference compares every slot of Signature with
// signatureReference over the planted corpora, empty and sub-shingle
// documents, and signature lengths on both sides of the four-function
// kernel's groups.
func TestSignatureMatchesReference(t *testing.T) {
	docs := append(plantedCorpus(1, 200), plantedCorpus(2, 100)...)
	docs = append(docs, "", "   ", "one", "one two", "one two three", "a b c d", "Punctuation, only! ?")
	compared := 0
	for _, numHashes := range []int{1, 3, 4, 5, 127, 128, 129} {
		for _, shingle := range []int{1, 3, 5} {
			m, err := NewMinHasher(numHashes, 1, shingle, uint64(numHashes*7+shingle))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range docs {
				got, want := m.Signature(d), signatureReference(m, d)
				if len(got) != len(want) {
					t.Fatalf("hashes %d shingle %d doc %q: %d slots, reference %d", numHashes, shingle, d, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("hashes %d shingle %d doc %q slot %d: %#x, reference %#x", numHashes, shingle, d, i, got[i], want[i])
					}
				}
				compared += len(want)
			}
		}
	}
	t.Logf("%d slots compared", compared)
}

// closedFormPair returns two documents of distinct tokens, unique to
// trial, whose shingleSize-shingles are all distinct within each
// document: a shared run of shared+shingleSize-1 tokens followed, in
// each document, by its own onlyA or onlyB tokens. The shingles inside
// the shared run are the only common ones, so the pair's Jaccard
// similarity is exactly shared/(shared+onlyA+onlyB).
func closedFormPair(trial, shared, onlyA, onlyB, shingleSize int) (a, b string) {
	run := make([]string, shared+shingleSize-1)
	for i := range run {
		run[i] = fmt.Sprintf("t%dshared%d", trial, i)
	}
	tail := func(side string, n int) string {
		words := append([]string(nil), run...)
		for i := 0; i < n; i++ {
			words = append(words, fmt.Sprintf("t%d%s%d", trial, side, i))
		}
		return strings.Join(words, " ")
	}
	return tail("a", onlyA), tail("b", onlyB)
}

// TestMinHashClosedForm checks Signature, EstimateJaccard and Dedup's
// banding against the textbook closed forms (Leskovec, Rajaraman and
// Ullman, Mining of Massive Datasets, ch. 3). Under min-wise
// independent hashing each signature slot of two documents agrees with
// probability equal to their Jaccard similarity s, so EstimateJaccard
// is unbiased for s; with r = NumHashes/Bands rows per band and b bands
// the pair becomes an LSH candidate with probability 1 − (1 − s^r)^b.
//
// Each configuration runs one pair per seed of a fixed set, so the test
// is deterministic. A pair is a candidate exactly when Dedup at
// threshold 0 removes its second document. The candidate count over T
// trials is binomial, with standard deviation sqrt(T·p·(1−p)); the mean
// estimate averages T·NumHashes slot agreements, with standard
// deviation sqrt(s·(1−s)/(T·NumHashes)), the slots being independent
// Bernoulli(s) draws. Both must land within four standard deviations of
// the closed form.
func TestMinHashClosedForm(t *testing.T) {
	trials := 600
	if testing.Short() {
		trials = 200
	}
	const shingleSize = 3
	cases := []struct {
		numHashes, bands     int
		shared, onlyA, onlyB int // s = shared / (shared + onlyA + onlyB)
	}{
		{128, 32, 20, 40, 40}, // s = 0.2, r = 4
		{128, 32, 30, 35, 35}, // s = 0.3
		{128, 32, 40, 30, 30}, // s = 0.4
		{128, 32, 50, 25, 25}, // s = 0.5
		{128, 32, 60, 10, 30}, // s = 0.6, unequal sides
		{60, 20, 30, 35, 35},  // s = 0.3, r = 3
		{60, 20, 50, 25, 25},  // s = 0.5, r = 3
		{64, 8, 80, 10, 10},   // s = 0.8, r = 8
	}
	for _, c := range cases {
		s := float64(c.shared) / float64(c.shared+c.onlyA+c.onlyB)
		r := float64(c.numHashes / c.bands)
		p := 1 - math.Pow(1-math.Pow(s, r), float64(c.bands))
		candidates, estSum := 0, 0.0
		for trial := 0; trial < trials; trial++ {
			a, b := closedFormPair(trial, c.shared, c.onlyA, c.onlyB, shingleSize)
			if trial == 0 {
				if got := shingleJaccard(a, b, shingleSize); got != s {
					t.Fatalf("pair Jaccard %v, want %v", got, s)
				}
			}
			m, err := NewMinHasher(c.numHashes, c.bands, shingleSize, uint64(1000+trial))
			if err != nil {
				t.Fatal(err)
			}
			m.Workers = 1
			estSum += m.EstimateJaccard(m.Signature(a), m.Signature(b))
			if _, removed := m.Dedup([]string{a, b}, 0); len(removed) == 1 {
				candidates++
			}
		}
		n := float64(trials)
		rate, mean := float64(candidates)/n, estSum/n
		rateBound := 4 * math.Sqrt(p*(1-p)/n)
		meanBound := 4 * math.Sqrt(s*(1-s)/(n*float64(c.numHashes)))
		t.Logf("hashes %d bands %d s %.2f: candidate rate %.3f (closed form %.3f ± %.3f), mean estimate %.4f (± %.4f)",
			c.numHashes, c.bands, s, rate, p, rateBound, mean, meanBound)
		if math.Abs(rate-p) > rateBound {
			t.Errorf("hashes %d bands %d s %.2f: candidate rate %.3f, closed form %.3f ± %.3f",
				c.numHashes, c.bands, s, rate, p, rateBound)
		}
		if math.Abs(mean-s) > meanBound {
			t.Errorf("hashes %d bands %d s %.2f: mean estimate %.4f, want %.4f ± %.4f",
				c.numHashes, c.bands, s, mean, s, meanBound)
		}
	}
}
