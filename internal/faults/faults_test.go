package faults

import (
	"errors"
	"fmt"
	"testing"

	"dataai/internal/llm"
)

// echoClient is a trivial deterministic inner client.
type echoClient struct{ calls int }

func (e *echoClient) Complete(req llm.Request) (llm.Response, error) {
	e.calls++
	return llm.Response{Text: "alpha beta gamma delta", CompletionTokens: 4, CostUSD: 0.001, LatencyMS: 10}, nil
}

// outcome flattens a Complete result for comparison.
func outcome(r llm.Response, err error) string {
	if err != nil {
		return "err:" + err.Error()
	}
	return fmt.Sprintf("ok:%s/%d/%.0f", r.Text, r.PromptTokens, r.LatencyMS)
}

func TestInjectorDeterministic(t *testing.T) {
	// Two injectors with the same seed fed the same call sequence must
	// produce identical outcomes and identical stats.
	run := func() ([]string, Stats) {
		in := New(&echoClient{}, Severe(), 99)
		var got []string
		for i := 0; i < 40; i++ {
			for a := 0; a < 3; a++ {
				got = append(got, outcome(in.Complete(llm.Request{Prompt: fmt.Sprintf("q%d", i)})))
			}
		}
		return got, in.Stats()
	}
	a, sa := run()
	b, sb := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d diverged:\n%s\n%s", i, a[i], b[i])
		}
	}
	if sa != sb {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
	if sa.Injected() == 0 {
		t.Fatal("severe plan injected nothing across 120 calls")
	}
}

func TestInjectorOrderIndependent(t *testing.T) {
	// Faults are a function of (prompt, seed, per-prompt attempt), so
	// interleaving calls from different prompts differently must not
	// change any prompt's outcome sequence.
	prompts := []string{"p0", "p1", "p2", "p3"}
	const attempts = 4

	collect := func(order [][2]int) map[string][]string {
		in := New(&echoClient{}, Medium(), 7)
		out := map[string][]string{}
		for _, pa := range order {
			p := prompts[pa[0]]
			out[p] = append(out[p], outcome(in.Complete(llm.Request{Prompt: p})))
		}
		return out
	}

	// Order A: prompt-major. Order B: attempt-major (fully interleaved).
	var orderA, orderB [][2]int
	for p := range prompts {
		for a := 0; a < attempts; a++ {
			orderA = append(orderA, [2]int{p, a})
		}
	}
	for a := 0; a < attempts; a++ {
		for p := range prompts {
			orderB = append(orderB, [2]int{p, a})
		}
	}
	ra, rb := collect(orderA), collect(orderB)
	for _, p := range prompts {
		for i := range ra[p] {
			if ra[p][i] != rb[p][i] {
				t.Fatalf("prompt %s attempt %d depends on interleaving:\n%s\n%s", p, i, ra[p][i], rb[p][i])
			}
		}
	}
}

func TestInjectorTimeoutChargesWaste(t *testing.T) {
	in := New(&echoClient{}, Plan{TimeoutRate: 1}, 1)
	r, err := in.Complete(llm.Request{Prompt: "will time out"})
	if !errors.Is(err, llm.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if !llm.IsRetryable(err) {
		t.Fatal("timeout must be retryable")
	}
	if r.PromptTokens == 0 || r.LatencyMS != timeoutMS {
		t.Fatalf("timeout must charge prompt tokens and deadline latency, got %d tok / %v ms", r.PromptTokens, r.LatencyMS)
	}
	s := in.Stats()
	if s.Timeouts != 1 || s.WastedPromptTokens == 0 || s.WastedLatencyMS != timeoutMS {
		t.Fatalf("stats = %+v", s)
	}
}

func TestInjectorRateLimitCarriesHint(t *testing.T) {
	in := New(&echoClient{}, Plan{RateLimitRate: 1}, 1)
	_, err := in.Complete(llm.Request{Prompt: "throttled"})
	if !errors.Is(err, llm.ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	if ms, ok := llm.RetryAfter(err); !ok || ms != retryAfterMS {
		t.Fatalf("RetryAfter = %v/%v, want %v/true", ms, ok, retryAfterMS)
	}
}

func TestInjectorTransientRetryable(t *testing.T) {
	in := New(&echoClient{}, Plan{TransientRate: 1}, 1)
	_, err := in.Complete(llm.Request{Prompt: "flap"})
	if !errors.Is(err, llm.ErrTransient) || !llm.IsRetryable(err) {
		t.Fatalf("err = %v, want retryable ErrTransient", err)
	}
}

func TestInjectorOutageSwallowsDepthAttempts(t *testing.T) {
	inner := &echoClient{}
	in := New(inner, Plan{OutageRate: 1, OutageDepth: 3}, 1)
	for a := 0; a < 3; a++ {
		if _, err := in.Complete(llm.Request{Prompt: "down"}); !errors.Is(err, llm.ErrTransient) {
			t.Fatalf("attempt %d: err = %v, want outage ErrTransient", a, err)
		}
	}
	r, err := in.Complete(llm.Request{Prompt: "down"})
	if err != nil || r.Text == "" {
		t.Fatalf("attempt past outage depth must succeed, got %v / %q", err, r.Text)
	}
	if s := in.Stats(); s.OutageHits != 3 {
		t.Fatalf("OutageHits = %d, want 3", s.OutageHits)
	}
	if inner.calls != 1 {
		t.Fatalf("inner calls = %d, want 1 (outage never reaches endpoint)", inner.calls)
	}
}

func TestInjectorTruncateAndGarble(t *testing.T) {
	tr := New(&echoClient{}, Plan{TruncateRate: 1}, 1)
	r, err := tr.Complete(llm.Request{Prompt: "cut"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Text == "alpha beta gamma delta" || r.Text == "" {
		t.Fatalf("truncation left text unchanged: %q", r.Text)
	}
	if int(r.CompletionTokens) >= 4 {
		t.Fatalf("truncated completion tokens = %d, want < 4", r.CompletionTokens)
	}

	ga := New(&echoClient{}, Plan{GarbleRate: 1}, 1)
	g, err := ga.Complete(llm.Request{Prompt: "corrupt"})
	if err != nil {
		t.Fatal(err)
	}
	if g.Text == "alpha beta gamma delta" || g.Text == "" {
		t.Fatalf("garbling left text unchanged: %q", g.Text)
	}
	// Garbled text is itself deterministic.
	g2, _ := New(&echoClient{}, Plan{GarbleRate: 1}, 1).Complete(llm.Request{Prompt: "corrupt"})
	if g2.Text != g.Text {
		t.Fatalf("garble nondeterministic: %q vs %q", g.Text, g2.Text)
	}
}

func TestInjectorZeroPlanTransparent(t *testing.T) {
	inner := &echoClient{}
	in := New(inner, Plan{}, 1)
	for i := 0; i < 20; i++ {
		r, err := in.Complete(llm.Request{Prompt: fmt.Sprintf("clean %d", i)})
		if err != nil || r.Text != "alpha beta gamma delta" {
			t.Fatalf("zero plan must be transparent, got %v / %q", err, r.Text)
		}
	}
	if s := in.Stats(); s.Injected() != 0 || s.Truncated != 0 || s.Garbled != 0 {
		t.Fatalf("zero plan injected something: %+v", s)
	}
}
