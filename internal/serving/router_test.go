package serving

import (
	"errors"
	"testing"

	"dataai/internal/workload"
)

func prefixTrace(t *testing.T, seed int64) []workload.Request {
	t.Helper()
	cfg := workload.DefaultTrace(seed, 300, 50)
	cfg.SharedPrefixes = 8
	cfg.SharedPrefixTokens = 512
	cfg.SharedPrefixProb = 0.8
	reqs, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(ClusterConfig{GPU: DefaultGPU(), Instances: 0, Router: RoundRobin}, nil); !errors.Is(err, ErrConfig) {
		t.Errorf("err = %v", err)
	}
}

func TestCacheAwareRoutingBeatsRoundRobinOnPrefixes(t *testing.T) {
	// The Mooncake claim: KV-centric routing concentrates shared-prefix
	// traffic, so each prefix is computed once per cluster instead of
	// once per instance.
	gpu := DefaultGPU()
	reqs := prefixTrace(t, 41)
	rr, err := Run(ClusterConfig{GPU: gpu, Instances: 4, Router: RoundRobin}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := Run(ClusterConfig{GPU: gpu, Instances: 4, Router: CacheAware}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if ca.PrefixMisses >= rr.PrefixMisses {
		t.Errorf("cache-aware misses %d >= round-robin %d", ca.PrefixMisses, rr.PrefixMisses)
	}
	if ca.PrefillTokens >= rr.PrefillTokens {
		t.Errorf("cache-aware prefill %d >= round-robin %d", ca.PrefillTokens, rr.PrefillTokens)
	}
	if len(ca.Results) != len(reqs) || len(rr.Results) != len(reqs) {
		t.Fatal("results lost in routing")
	}
	// Prefix misses under cache-aware routing: at most one per prefix.
	if ca.PrefixMisses > 8 {
		t.Errorf("cache-aware misses %d > 8 prefixes", ca.PrefixMisses)
	}
}

func TestRoutedSessionsStayTogether(t *testing.T) {
	gpu := DefaultGPU()
	reqs, err := workload.GenerateConversations(workload.DefaultConversations(43))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(ClusterConfig{GPU: gpu, Instances: 4, Router: RoundRobin}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := Run(ClusterConfig{GPU: gpu, Instances: 4, Router: CacheAware}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Same-session turns hitting one instance means its session store
	// serves them: less prefill than when turns scatter.
	if ca.PrefillTokens >= rr.PrefillTokens {
		t.Errorf("cache-aware prefill %d >= round-robin %d", ca.PrefillTokens, rr.PrefillTokens)
	}
}

func TestRoutedDeterministic(t *testing.T) {
	gpu := DefaultGPU()
	reqs := prefixTrace(t, 47)
	a, err := Run(ClusterConfig{GPU: gpu, Instances: 3, Router: CacheAware}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ClusterConfig{GPU: gpu, Instances: 3, Router: CacheAware}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if a.MakespanMS != b.MakespanMS || a.PrefixHits != b.PrefixHits {
		t.Error("routed run not deterministic")
	}
}

func TestRouterPolicyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || CacheAware.String() != "cache-aware" {
		t.Error("policy names")
	}
}
