package serving

import "fmt"

// This file models the KV cache mechanism itself (experiment E15): the
// paper's §2.3.2 explanation that "the KV cache mechanism is proposed to
// store these vectors to avoid repeated calculation of key and value
// vectors ... enabling faster and more efficient inference".
//
// Per decode step over a context of length L:
//   - with a KV cache, the step computes Q/K/V for ONE token and attends
//     over L cached keys: cost ∝ a + b·L.
//   - without one, the step recomputes K/V for all L context tokens
//     before attending: cost ∝ a + c·L with c ≫ b (c includes the K/V
//     projection FLOPs for every position, b only the attention reads).
// Generating N tokens is therefore ~quadratic either way in the attention
// term, but the no-cache variant's coefficient is the full projection
// cost rather than a memory read — the measured gap.

// DecodeCostModel parameterizes the per-step costs.
type DecodeCostModel struct {
	// StepBaseMS is the fixed per-step overhead.
	StepBaseMS float64
	// AttendMSPerToken is the cached-attention read cost per context
	// token.
	AttendMSPerToken float64
	// RecomputeMSPerToken is the K/V projection cost per context token
	// paid only without a cache.
	RecomputeMSPerToken float64
}

// DefaultDecodeCost mirrors the GPU model's decode constants.
func DefaultDecodeCost() DecodeCostModel {
	return DecodeCostModel{
		StepBaseMS:          2,
		AttendMSPerToken:    0.001,
		RecomputeMSPerToken: 0.02,
	}
}

// GenerateLatencyMS returns the total latency of generating outputTokens
// after promptTokens of context, with or without a KV cache.
func (m DecodeCostModel) GenerateLatencyMS(promptTokens, outputTokens int, kvCache bool) (float64, error) {
	if promptTokens < 0 || outputTokens < 1 {
		return 0, fmt.Errorf("%w: prompt %d output %d", ErrConfig, promptTokens, outputTokens)
	}
	total := 0.0
	for i := 0; i < outputTokens; i++ {
		context := promptTokens + i
		step := m.StepBaseMS + m.AttendMSPerToken*float64(context)
		if !kvCache {
			step += m.RecomputeMSPerToken * float64(context)
		}
		total += step
	}
	return total, nil
}
