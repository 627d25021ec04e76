// Package workload generates the request traces the serving experiments
// (E11–E14) replay: Poisson arrivals with lognormal-ish length
// distributions, shared-prefix populations (system prompts / few-shot
// templates), and multi-turn conversation sessions. Production systems
// replay recorded traces (Mooncake publishes theirs); this generator
// substitutes seeded synthetic traces with the same controlling
// statistics: arrival rate, length distributions, prefix sharing, and
// turn structure.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Request is one inference request.
type Request struct {
	ID string
	// ArrivalMS is the arrival time on the logical clock.
	ArrivalMS float64
	// PromptTokens includes PrefixTokens.
	PromptTokens int
	// OutputTokens is the generation length (known to the simulator,
	// as if the trace were replayed).
	OutputTokens int
	// PrefixID names the shared prefix this request starts with
	// ("" = unique prompt). PrefixTokens is the shared span's length.
	PrefixID     string
	PrefixTokens int
	// Session and Turn identify multi-turn conversations; Turn counts
	// from 0. HistoryTokens is the reusable KV span from prior turns.
	Session       string
	Turn          int
	HistoryTokens int
	// Tenant and Client attribute the request to its WorkloadSpec
	// stream ("" for legacy single-stream traces): Tenant is the
	// admission-control and fairness identity, Client the generating
	// stream. SLOClass is the request's latency class (Interactive is
	// the zero value, so legacy traces default to it).
	Tenant   string
	Client   string
	SLOClass SLOClass
}

// TraceConfig controls generation.
type TraceConfig struct {
	Seed int64
	// Count is the number of requests.
	Count int
	// RatePerSec is the Poisson arrival rate.
	RatePerSec float64
	// PromptMean/PromptSigma parameterize the lognormal prompt-length
	// distribution (in tokens); lengths are clamped to [16, PromptMax].
	PromptMean  float64
	PromptSigma float64
	PromptMax   int
	// OutputMean/OutputSigma/OutputMax likewise for generation lengths,
	// clamped to [4, OutputMax].
	OutputMean  float64
	OutputSigma float64
	OutputMax   int
	// SharedPrefixes > 0 assigns each request one of that many shared
	// prefixes of SharedPrefixTokens tokens with probability
	// SharedPrefixProb.
	SharedPrefixes     int
	SharedPrefixTokens int
	SharedPrefixProb   float64
}

// DefaultTrace returns the baseline E11 configuration.
func DefaultTrace(seed int64, count int, ratePerSec float64) TraceConfig {
	return TraceConfig{
		Seed:        seed,
		Count:       count,
		RatePerSec:  ratePerSec,
		PromptMean:  math.Log(256),
		PromptSigma: 0.8,
		PromptMax:   2048,
		OutputMean:  math.Log(64),
		OutputSigma: 0.7,
		OutputMax:   512,
	}
}

// Generate produces the trace, sorted by arrival time. Since the
// multi-tenant refactor it is the single-client special case of
// GenerateSpec (see TraceConfig.Spec); the output is byte-identical to
// the historical standalone loop, which the spec equivalence test pins.
func Generate(cfg TraceConfig) ([]Request, error) {
	if cfg.Count <= 0 {
		return nil, fmt.Errorf("workload: count must be >= 1, got %d", cfg.Count)
	}
	if cfg.RatePerSec <= 0 {
		return nil, fmt.Errorf("workload: rate must be > 0, got %v", cfg.RatePerSec)
	}
	return GenerateSpec(cfg.Spec())
}

func lognormal(rng *rand.Rand, mu, sigma float64, min, max int) int {
	v := int(math.Exp(rng.NormFloat64()*sigma + mu))
	if v < min {
		v = min
	}
	if max > 0 && v > max {
		v = max
	}
	return v
}

// ConversationConfig controls multi-turn trace generation.
type ConversationConfig struct {
	Seed int64
	// Sessions and TurnsPerSession shape the population; turn counts
	// vary ±50% around TurnsPerSession.
	Sessions        int
	TurnsPerSession int
	// ThinkTimeMeanMS is the user's mean gap between turns
	// (exponentially distributed).
	ThinkTimeMeanMS float64
	// SessionRatePerSec is the Poisson rate of session starts.
	SessionRatePerSec float64
	// TurnPromptMean is the mean new-prompt tokens per turn; the KV
	// history accumulated by earlier turns is tracked in HistoryTokens.
	TurnPromptMean int
	// OutputMean is the mean generation length per turn.
	OutputMean int
	// ZipfSkew skews session popularity: a few sessions produce most
	// turns (>= 0; 0 disables).
	ZipfSkew float64
}

// DefaultConversations returns the baseline E14 configuration.
func DefaultConversations(seed int64) ConversationConfig {
	return ConversationConfig{
		Seed:              seed,
		Sessions:          40,
		TurnsPerSession:   6,
		ThinkTimeMeanMS:   4000,
		SessionRatePerSec: 2,
		TurnPromptMean:    64,
		OutputMean:        48,
		ZipfSkew:          1.2,
	}
}

// GenerateConversations produces a multi-turn trace sorted by arrival.
// Each turn's HistoryTokens counts all prompt+output tokens of earlier
// turns in the session — the KV span a conversation cache could reuse.
func GenerateConversations(cfg ConversationConfig) ([]Request, error) {
	if cfg.Sessions <= 0 || cfg.TurnsPerSession <= 0 {
		return nil, fmt.Errorf("workload: sessions/turns must be >= 1")
	}
	if cfg.SessionRatePerSec <= 0 || cfg.ThinkTimeMeanMS <= 0 {
		return nil, fmt.Errorf("workload: rates must be > 0")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var reqs []Request
	start := 0.0
	id := 0
	for s := 0; s < cfg.Sessions; s++ {
		start += rng.ExpFloat64() / cfg.SessionRatePerSec * 1000
		turns := cfg.TurnsPerSession
		if cfg.ZipfSkew > 0 {
			// Session 0 is hottest: scale turn count by rank^-skew.
			scale := math.Pow(float64(s+1), -cfg.ZipfSkew)
			turns = int(float64(cfg.TurnsPerSession*3)*scale) + 1
		} else {
			turns += rng.Intn(cfg.TurnsPerSession) - cfg.TurnsPerSession/2
			if turns < 1 {
				turns = 1
			}
		}
		clock := start
		history := 0
		for turn := 0; turn < turns; turn++ {
			prompt := cfg.TurnPromptMean/2 + rng.Intn(cfg.TurnPromptMean)
			output := cfg.OutputMean/2 + rng.Intn(cfg.OutputMean)
			reqs = append(reqs, Request{
				ID:            fmt.Sprintf("s%03d-t%02d (r%05d)", s, turn, id),
				ArrivalMS:     clock,
				PromptTokens:  history + prompt,
				OutputTokens:  output,
				Session:       fmt.Sprintf("s%03d", s),
				Turn:          turn,
				HistoryTokens: history,
			})
			id++
			history += prompt + output
			clock += rng.ExpFloat64() * cfg.ThinkTimeMeanMS
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].ArrivalMS < reqs[j].ArrivalMS })
	return reqs, nil
}
