package serving

import (
	"fmt"
	"math"
	"testing"

	"dataai/internal/workload"
)

// TestDecodeClosedForm checks the decode step against a formula worked
// out by hand. k requests of prompt p arrive together at t = 0 on one
// DefaultGPU instance with dedicated prefill (chunk 0). Let r be the
// prefill rate in tokens per ms, b DecodeBaseMS, c DecodeMSPerSeq and
// O_i the output length of the i-th request (1-based, arrival order).
//
//   - Each prompt is one dedicated prefill iteration, and decodes stall
//     behind them, so request i gets its first token at
//     TTFT_i = i·p/r. A request with O_i = 1 finishes then.
//   - Decoding starts at k·p/r. Decode step j (1-based) advances every
//     request with O_m > j and costs b + c·|{m : O_m > j}|. A request
//     with O_i > 1 emits its last token at step O_i − 1, so it finishes
//     at k·p/r + Σ_{j=1}^{O_i−1} (b + c·|{m : O_m > j}|).
//
// With p = 200 and outputs 1, 3, 3, 6 and 10 on DefaultGPU (r = 20,
// b = 4, c = 0.25) the finishes are 10, 60, 60, 73.5 and 90.5 ms. The
// run covers a request that finishes at its own prefill, two that
// finish in one step (they must appear in Results in arrival order),
// and finishes at different steps. Every time here is a dyadic
// rational, so the simulator's sums are exact; the 1e-9 tolerance only
// keeps the comparison off float equality.
func TestDecodeClosedForm(t *testing.T) {
	gpu := DefaultGPU()
	const p = 200
	outputs := []int{1, 3, 3, 6, 10}
	wantFinish := []float64{10, 60, 60, 73.5, 90.5}

	k := len(outputs)
	r, b, c := gpu.PrefillTokensPerMS, gpu.DecodeBaseMS, gpu.DecodeMSPerSeq
	reqs := make([]workload.Request, k)
	type want struct{ ttft, finish float64 }
	formula := make(map[string]want, k)
	for i, o := range outputs {
		id := fmt.Sprintf("r%d", i+1)
		reqs[i] = workload.Request{ID: id, PromptTokens: p, OutputTokens: o}
		w := want{ttft: float64(i+1) * p / r}
		if o == 1 {
			w.finish = w.ttft
		} else {
			w.finish = float64(k) * p / r
			for j := 1; j <= o-1; j++ {
				live := 0
				for _, om := range outputs {
					if om > j {
						live++
					}
				}
				w.finish += b + c*float64(live)
			}
		}
		if math.Abs(w.finish-wantFinish[i]) > 1e-9 {
			t.Fatalf("formula gives %s finish %v, the worked example %v", id, w.finish, wantFinish[i])
		}
		formula[id] = w
	}
	// Finish order, ties in arrival order.
	wantOrder := []string{"r1", "r2", "r3", "r4", "r5"}

	check := func(name string, rep *Report) {
		t.Helper()
		if len(rep.Results) != k {
			t.Fatalf("%s: %d results, want %d", name, len(rep.Results), k)
		}
		for i, res := range rep.Results {
			if res.Req.ID != wantOrder[i] {
				t.Errorf("%s: result %d is %s, want %s", name, i, res.Req.ID, wantOrder[i])
			}
			w := formula[res.Req.ID]
			if res.Rejected || math.Abs(res.TTFTms-w.ttft) > 1e-9 || math.Abs(res.FinishMS-w.finish) > 1e-9 {
				t.Errorf("%s: %s TTFT %v finish %v (rejected %t), formula TTFT %v finish %v",
					name, res.Req.ID, res.TTFTms, res.FinishMS, res.Rejected, w.ttft, w.finish)
			}
		}
	}
	rep, err := RunContinuous(gpu, reqs, ContinuousOpts{})
	if err != nil {
		t.Fatal(err)
	}
	check("RunContinuous", rep)
	routed, err := Run(ClusterConfig{GPU: gpu, Instances: 1, Router: BreakerAware}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	check("Run", &routed.Report)
}
