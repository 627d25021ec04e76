package serving

import (
	"fmt"
	"math"
)

// SessionStore caches conversation KV state between turns — the
// AttentionStore [19] design: a GPU-resident tier backed by a larger CPU
// (host-memory) tier. A later turn of the same session reuses the cached
// span instead of re-prefilling its history; CPU-tier hits pay a
// transmission cost that can be overlapped with the prefill of the
// uncached suffix [19, 45].
//
// Eviction policy is pluggable (the E14 comparison): LRU and LFU evict
// whole sessions (vLLM's all-or-nothing semantics [28]); TreeLRU trims
// tokens from the tail of the least-recently-used session first —
// TensorRT-LLM's dependency-tree rule that "evicts dependent nodes
// first, even if they have more recent reuse counters" [3]: later-turn
// KV depends on earlier-turn KV, so tails go before roots.
type SessionStore struct {
	cfg SessionStoreConfig

	gpu              map[string]*storeEntry
	cpu              map[string]*storeEntry
	gpuUsed, cpuUsed int

	// Stats.
	Hits, Misses   int
	SavedTokens    int
	Demotions      int
	Evictions      int
	TransferTokens int
}

type storeEntry struct {
	tokens int
	lastMS float64
	freq   int
}

// EvictionPolicy selects the victim strategy.
type EvictionPolicy int

// Supported policies.
const (
	// LRU evicts the least-recently-used session entirely.
	LRU EvictionPolicy = iota
	// LFU evicts the least-frequently-used session entirely.
	LFU
	// TreeLRU trims tail tokens from the least-recently-used session,
	// preserving its prefix (dependency-aware partial eviction).
	TreeLRU
)

// String names the policy.
func (p EvictionPolicy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case LFU:
		return "LFU"
	case TreeLRU:
		return "TreeLRU"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// SessionStoreConfig sizes and parameterizes the store.
type SessionStoreConfig struct {
	// GPUCapacityTokens and CPUCapacityTokens size the two tiers
	// (CPU 0 disables the second tier).
	GPUCapacityTokens int
	CPUCapacityTokens int
	Policy            EvictionPolicy
	// TransferMSPerToken is the CPU→GPU fetch cost.
	TransferMSPerToken float64
	// OverlapTransfer hides the fetch behind the prefill of the
	// uncached suffix (scheduler-aware fetching).
	OverlapTransfer bool
	// PrefillTokensPerMS converts residual transfer delay into
	// token-equivalents so Lookup can report net savings.
	PrefillTokensPerMS float64
}

// NewSessionStore builds the store.
func NewSessionStore(cfg SessionStoreConfig) (*SessionStore, error) {
	if cfg.GPUCapacityTokens <= 0 {
		return nil, fmt.Errorf("%w: gpu capacity %d", ErrConfig, cfg.GPUCapacityTokens)
	}
	if cfg.PrefillTokensPerMS <= 0 {
		cfg.PrefillTokensPerMS = DefaultGPU().PrefillTokensPerMS
	}
	return &SessionStore{
		cfg: cfg,
		gpu: make(map[string]*storeEntry),
		cpu: make(map[string]*storeEntry),
	}, nil
}

// Lookup reports the *net* prompt tokens saved for a request of session
// with historyTokens of reusable span inside a promptTokens prompt. CPU
// hits subtract the token-equivalent of any unhidden transfer time; with
// OverlapTransfer the fetch hides behind prefilling the prompt's *new*
// suffix (promptTokens − reused span) — scheduler-aware fetching. The
// entry's recency and frequency are refreshed.
func (s *SessionStore) Lookup(nowMS float64, session string, historyTokens, promptTokens int) int {
	if s == nil || session == "" || historyTokens <= 0 {
		return 0
	}
	if e, ok := s.gpu[session]; ok {
		s.Hits++
		e.lastMS = nowMS
		e.freq++
		saved := min(e.tokens, historyTokens)
		s.SavedTokens += saved
		return saved
	}
	if e, ok := s.cpu[session]; ok {
		s.Hits++
		e.lastMS = nowMS
		e.freq++
		usable := min(e.tokens, historyTokens)
		s.TransferTokens += usable
		transferMS := float64(usable) * s.cfg.TransferMSPerToken
		if s.cfg.OverlapTransfer {
			// Hidden behind prefilling the prompt's uncached remainder
			// (the new turn's text plus any history beyond the cache).
			suffix := promptTokens - usable
			if suffix < 0 {
				suffix = 0
			}
			suffixMS := float64(suffix) / s.cfg.PrefillTokensPerMS
			transferMS = math.Max(0, transferMS-suffixMS)
		}
		penaltyTokens := int(transferMS * s.cfg.PrefillTokensPerMS)
		saved := usable - penaltyTokens
		if saved < 0 {
			saved = 0
		}
		s.SavedTokens += saved
		// Promote to GPU tier for the active turn.
		s.cpuUsed -= e.tokens
		delete(s.cpu, session)
		s.insertGPU(nowMS, session, e.tokens, e.freq)
		return saved
	}
	s.Misses++
	return 0
}

// Store caches the session's full KV span (prompt+output of the turn
// that just finished).
func (s *SessionStore) Store(nowMS float64, session string, tokens int) {
	if s == nil || session == "" || tokens <= 0 {
		return
	}
	if tokens > s.cfg.GPUCapacityTokens {
		tokens = s.cfg.GPUCapacityTokens
	}
	freq := 1
	if e, ok := s.gpu[session]; ok {
		freq = e.freq
		s.gpuUsed -= e.tokens
		delete(s.gpu, session)
	} else if e, ok := s.cpu[session]; ok {
		freq = e.freq
		s.cpuUsed -= e.tokens
		delete(s.cpu, session)
	}
	s.insertGPU(nowMS, session, tokens, freq)
}

func (s *SessionStore) insertGPU(nowMS float64, session string, tokens, freq int) {
	for s.gpuUsed+tokens > s.cfg.GPUCapacityTokens {
		if !s.evictGPU(nowMS) {
			return // cannot make space
		}
	}
	s.gpu[session] = &storeEntry{tokens: tokens, lastMS: nowMS, freq: freq}
	s.gpuUsed += tokens
}

// evictGPU frees space per the policy, demoting victims to the CPU tier
// where possible. Returns false when nothing can be evicted.
func (s *SessionStore) evictGPU(nowMS float64) bool {
	victim := s.pickVictim()
	if victim == "" {
		return false
	}
	e := s.gpu[victim]
	if s.cfg.Policy == TreeLRU {
		// Trim a quarter of the victim's tail (round up); the prefix
		// stays useful. Entries trimmed to nothing disappear.
		trim := (e.tokens + 3) / 4
		e.tokens -= trim
		s.gpuUsed -= trim
		s.Evictions++
		if e.tokens <= 0 {
			delete(s.gpu, victim)
		}
		return true
	}
	// Whole-entry eviction, demote to CPU tier.
	s.gpuUsed -= e.tokens
	delete(s.gpu, victim)
	s.Evictions++
	if s.cfg.CPUCapacityTokens > 0 {
		for s.cpuUsed+e.tokens > s.cfg.CPUCapacityTokens {
			if !s.evictCPULRU() {
				return true // demoted entry is dropped instead
			}
		}
		s.cpu[victim] = e
		s.cpuUsed += e.tokens
		s.Demotions++
	}
	return true
}

func (s *SessionStore) pickVictim() string {
	victim := ""
	bestLast := math.Inf(1)
	bestFreq := math.MaxInt32
	for id, e := range s.gpu {
		switch s.cfg.Policy {
		case LFU:
			if e.freq < bestFreq || (e.freq == bestFreq && e.lastMS < bestLast) ||
				(e.freq == bestFreq && e.lastMS == bestLast && id < victim) {
				victim, bestFreq, bestLast = id, e.freq, e.lastMS
			}
		default: // LRU and TreeLRU share recency-based victim choice
			if e.lastMS < bestLast || (e.lastMS == bestLast && id < victim) {
				victim, bestLast = id, e.lastMS
			}
		}
	}
	return victim
}

func (s *SessionStore) evictCPULRU() bool {
	victim := ""
	bestLast := math.Inf(1)
	for id, e := range s.cpu {
		if e.lastMS < bestLast || (e.lastMS == bestLast && id < victim) {
			victim, bestLast = id, e.lastMS
		}
	}
	if victim == "" {
		return false
	}
	s.cpuUsed -= s.cpu[victim].tokens
	delete(s.cpu, victim)
	s.Evictions++
	return true
}

// DropGPU wipes the GPU-resident tier — an instance crash loses device
// memory, while the CPU (host-memory) tier survives and keeps serving
// transfer-priced hits after recovery. Stats counters are preserved.
func (s *SessionStore) DropGPU() {
	if s == nil {
		return
	}
	s.gpu = make(map[string]*storeEntry)
	s.gpuUsed = 0
}

// HitRate is hits / (hits + misses).
func (s *SessionStore) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}
