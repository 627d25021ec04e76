package llm

import (
	"fmt"
	"sync"
	"testing"
)

// These stress tests exist so `go test -race ./...` actually exercises
// the mutexes in cache.go: many goroutines hammering the same few cache
// keys forces hit/miss races, double-insert races, and concurrent meter
// updates that a sequential test never reaches.

func TestCacheParallelComplete(t *testing.T) {
	c := NewCache(NewSimulator(LargeModel(), 7))
	const (
		workers = 8
		rounds  = 200
		keys    = 16 // few keys → heavy contention on the same entries
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				prompt := fmt.Sprintf("stress prompt %d", (w+i)%keys)
				r, err := c.Complete(Request{Prompt: prompt})
				if err != nil {
					t.Errorf("Complete: %v", err)
					return
				}
				if r.Text == "" {
					t.Error("empty response text")
					return
				}
				// Interleave reads of the shared counters.
				c.Stats()
				c.Usage()
			}
		}(w)
	}
	wg.Wait()
	hits, misses := c.Stats()
	if hits+misses != workers*rounds {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d", hits, misses, hits+misses, workers*rounds)
	}
	// Single-flight deduplication: each distinct prompt misses exactly
	// once — racing goroutines wait on the leader's in-flight call
	// instead of re-issuing it.
	if misses != keys {
		t.Fatalf("misses = %d, want exactly %d distinct prompts (single-flight)", misses, keys)
	}
	if hits == 0 {
		t.Fatal("no cache hits under heavy key reuse")
	}
}

func TestCacheParallelDeterministicResponses(t *testing.T) {
	// Responses served concurrently must equal the sequential responses:
	// the cache must never hand one prompt's response to another.
	ref := NewSimulator(LargeModel(), 7)
	want := map[string]string{}
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("determinism %d", i)
		r, err := ref.Complete(Request{Prompt: p})
		if err != nil {
			t.Fatal(err)
		}
		want[p] = r.Text
	}
	c := NewCache(NewSimulator(LargeModel(), 7))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p := fmt.Sprintf("determinism %d", i%8)
				r, err := c.Complete(Request{Prompt: p})
				if err != nil {
					t.Errorf("Complete: %v", err)
					return
				}
				if r.Text != want[p] {
					t.Errorf("prompt %q: got %q, want %q", p, r.Text, want[p])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestCascadeParallelComplete(t *testing.T) {
	cas := NewCascade(NewSimulator(SmallModel(), 3), NewSimulator(LargeModel(), 4), 0.5)
	const workers, rounds = 8, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_, err := cas.Complete(Request{Prompt: fmt.Sprintf("cascade %d/%d", w, i)})
				if err != nil {
					t.Errorf("Complete: %v", err)
					return
				}
				cas.Stats()
			}
		}(w)
	}
	wg.Wait()
	escalated, total := cas.Stats()
	if total != workers*rounds {
		t.Fatalf("total = %d, want %d", total, workers*rounds)
	}
	if escalated < 0 || escalated > total {
		t.Fatalf("escalated = %d out of %d", escalated, total)
	}
}

// countingClient counts inner Complete invocations and can fail on
// demand; it is the probe for single-flight deduplication.
type countingClient struct {
	mu    sync.Mutex
	calls int64
	fail  func(prompt string) error
}

func (c *countingClient) Complete(req Request) (Response, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	if c.fail != nil {
		if err := c.fail(req.Prompt); err != nil {
			return Response{}, err
		}
	}
	return Response{Text: "echo: " + req.Prompt, CompletionTokens: 2, CostUSD: 0.001, LatencyMS: 5}, nil
}

func (c *countingClient) count() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func TestCacheSingleFlightDedup(t *testing.T) {
	// 64 goroutines racing over a handful of distinct prompts must cost
	// exactly one inner call per distinct prompt: concurrent identical
	// misses coalesce onto the leader's in-flight call.
	inner := &countingClient{}
	c := NewCache(inner)
	const (
		workers  = 64
		rounds   = 50
		distinct = 8
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p := fmt.Sprintf("flight %d", (w*rounds+i)%distinct)
				r, err := c.Complete(Request{Prompt: p})
				if err != nil {
					t.Errorf("Complete: %v", err)
					return
				}
				if r.Text != "echo: "+p {
					t.Errorf("prompt %q served wrong response %q", p, r.Text)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := inner.count(); got != distinct {
		t.Fatalf("inner calls = %d, want exactly %d (one per distinct prompt)", got, distinct)
	}
	hits, misses := c.Stats()
	if misses != distinct {
		t.Fatalf("misses = %d, want %d", misses, distinct)
	}
	if hits+misses != workers*rounds {
		t.Fatalf("hits(%d)+misses(%d) != %d calls", hits, misses, workers*rounds)
	}
}

func TestCacheSingleFlightErrorNotCached(t *testing.T) {
	// A failed flight must propagate its error to every waiter but not
	// poison the key: the next call retries the inner client.
	inner := &countingClient{}
	boom := fmt.Errorf("first call fails")
	first := true
	var mu sync.Mutex
	inner.fail = func(string) error {
		mu.Lock()
		defer mu.Unlock()
		if first {
			first = false
			return boom
		}
		return nil
	}
	c := NewCache(inner)
	if _, err := c.Complete(Request{Prompt: "flaky"}); err == nil {
		t.Fatal("want error from first call")
	}
	r, err := c.Complete(Request{Prompt: "flaky"})
	if err != nil {
		t.Fatalf("second call: %v", err)
	}
	if r.Cached {
		t.Fatal("second call must be a fresh inner call, not a cache hit")
	}
	if got := inner.count(); got != 2 {
		t.Fatalf("inner calls = %d, want 2 (error not cached)", got)
	}
	if r2, err := c.Complete(Request{Prompt: "flaky"}); err != nil || !r2.Cached {
		t.Fatalf("third call: err=%v cached=%v, want cached hit", err, r2.Cached)
	}
}
