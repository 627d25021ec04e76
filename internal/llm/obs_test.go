package llm

import (
	"testing"

	"dataai/internal/obs"
)

func TestCacheObsCounters(t *testing.T) {
	inner := fixedClient{r: Response{Text: "a", LatencyMS: 100}}
	c := NewCache(inner)
	tr := obs.NewTracer()
	c.SetObs(tr)

	req := Request{Prompt: "p"}
	for i := 0; i < 3; i++ {
		if _, err := c.Complete(req); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := c.Stats()
	reg := tr.Registry()
	if got := reg.Lookup("cache/hits").Final(); got != float64(hits) {
		t.Errorf("cache/hits = %v, stats say %d", got, hits)
	}
	if got := reg.Lookup("cache/misses").Final(); got != float64(misses) {
		t.Errorf("cache/misses = %v, stats say %d", got, misses)
	}
	// The logical clock charged the miss's 100ms then two 0.01ms hits:
	// the last hit point must sit past the miss point.
	missPts := reg.Lookup("cache/misses").Points()
	hitPts := reg.Lookup("cache/hits").Points()
	if len(missPts) != 1 || len(hitPts) != 2 {
		t.Fatalf("points = %d misses / %d hits, want 1/2", len(missPts), len(hitPts))
	}
	if hitPts[1].AtMS <= missPts[0].AtMS {
		t.Errorf("hit at %v not after miss at %v on the accumulated clock",
			hitPts[1].AtMS, missPts[0].AtMS)
	}
}

func TestCacheObsOffByDefault(t *testing.T) {
	c := NewCache(fixedClient{r: Response{Text: "a"}})
	if _, err := c.Complete(Request{Prompt: "p"}); err != nil {
		t.Fatal(err)
	}
	if h, m := c.Stats(); h != 0 || m != 1 {
		t.Fatalf("stats = %d/%d, want 0 hits 1 miss", h, m)
	}
}

func TestCascadeObsCounters(t *testing.T) {
	cheap := fixedClient{r: Response{Text: "meh", Confidence: 0.2, LatencyMS: 10}}
	expensive := fixedClient{r: Response{Text: "good", Confidence: 0.9, LatencyMS: 200}}
	c := NewCascade(cheap, expensive, 0.5)
	tr := obs.NewTracer()
	c.SetObs(tr)

	if _, err := c.Complete(Request{Prompt: "p"}); err != nil {
		t.Fatal(err)
	}
	escalated, total := c.Stats()
	if escalated != 1 || total != 1 {
		t.Fatalf("stats = %d/%d", escalated, total)
	}
	reg := tr.Registry()
	if got := reg.Lookup("cascade/calls").Final(); got != 1 {
		t.Errorf("cascade/calls = %v, want 1", got)
	}
	if got := reg.Lookup("cascade/escalations").Final(); got != 1 {
		t.Errorf("cascade/escalations = %v, want 1", got)
	}
}
