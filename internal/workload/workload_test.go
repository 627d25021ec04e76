package workload

import (
	"math"
	"testing"
)

func TestGenerateBasics(t *testing.T) {
	cfg := DefaultTrace(1, 500, 10)
	reqs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 500 {
		t.Fatalf("count = %d", len(reqs))
	}
	prev := -1.0
	for _, r := range reqs {
		if r.ArrivalMS < prev {
			t.Fatal("arrivals not sorted")
		}
		prev = r.ArrivalMS
		if r.PromptTokens < 16 || r.PromptTokens > cfg.PromptMax {
			t.Fatalf("prompt tokens %d out of range", r.PromptTokens)
		}
		if r.OutputTokens < 4 || r.OutputTokens > cfg.OutputMax {
			t.Fatalf("output tokens %d out of range", r.OutputTokens)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultTrace(7, 100, 5)
	a, _ := Generate(cfg)
	b, _ := Generate(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("trace not deterministic")
		}
	}
}

func TestGeneratePoissonRate(t *testing.T) {
	cfg := DefaultTrace(3, 2000, 20)
	reqs, _ := Generate(cfg)
	span := reqs[len(reqs)-1].ArrivalMS / 1000
	rate := float64(len(reqs)) / span
	if math.Abs(rate-20) > 3 {
		t.Errorf("empirical rate %v, want ~20", rate)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(TraceConfig{Count: 0, RatePerSec: 1}); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := Generate(TraceConfig{Count: 5, RatePerSec: 0}); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestSharedPrefixes(t *testing.T) {
	cfg := DefaultTrace(5, 400, 10)
	cfg.SharedPrefixes = 3
	cfg.SharedPrefixTokens = 128
	cfg.SharedPrefixProb = 0.7
	reqs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withPrefix := 0
	ids := map[string]bool{}
	for _, r := range reqs {
		if r.PrefixID == "" {
			continue
		}
		withPrefix++
		ids[r.PrefixID] = true
		if r.PrefixTokens != 128 {
			t.Fatalf("prefix tokens = %d", r.PrefixTokens)
		}
		if r.PromptTokens <= r.PrefixTokens {
			t.Fatalf("prompt %d not longer than prefix %d", r.PromptTokens, r.PrefixTokens)
		}
	}
	frac := float64(withPrefix) / float64(len(reqs))
	if frac < 0.6 || frac > 0.8 {
		t.Errorf("prefix fraction %v, want ~0.7", frac)
	}
	if len(ids) != 3 {
		t.Errorf("distinct prefixes = %d", len(ids))
	}
}

func TestGenerateConversations(t *testing.T) {
	cfg := DefaultConversations(11)
	reqs, err := GenerateConversations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) == 0 {
		t.Fatal("no requests")
	}
	prev := -1.0
	bySession := map[string][]Request{}
	for _, r := range reqs {
		if r.ArrivalMS < prev {
			t.Fatal("arrivals not sorted")
		}
		prev = r.ArrivalMS
		bySession[r.Session] = append(bySession[r.Session], r)
	}
	// History must accumulate monotonically within a session, and the
	// prompt must contain it.
	for s, turns := range bySession {
		hist := -1
		for _, r := range turns {
			if r.HistoryTokens <= hist && r.Turn > 0 {
				t.Fatalf("session %s: history not growing", s)
			}
			hist = r.HistoryTokens
			if r.PromptTokens <= r.HistoryTokens && r.Turn > 0 {
				t.Fatalf("session %s: prompt %d <= history %d", s, r.PromptTokens, r.HistoryTokens)
			}
		}
	}
	// Zipf skew: the hottest session has more turns than the coldest.
	if len(bySession["s000"]) <= len(bySession["s039"]) {
		t.Errorf("no popularity skew: s000=%d s039=%d",
			len(bySession["s000"]), len(bySession["s039"]))
	}
}

func TestGenerateConversationsValidation(t *testing.T) {
	if _, err := GenerateConversations(ConversationConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}
