package serving

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"dataai/internal/obs"
	"dataai/internal/workload"
)

// saturatedTenants records the repo benchmark's tenants-traced run at n
// requests: three tenants at 130 req/s on 4 cache-aware instances,
// token-bucket admission holding overflow up to 2 s, class-priority
// batching with batch preemption, and a routing decision log.
func saturatedTenants(tb testing.TB, n int) *obs.Tracer {
	spec := workload.DefaultMultiTenant(1, n, 130)
	weights := make(map[string]float64, len(spec.Clients))
	for _, c := range spec.Clients {
		weights[c.TenantID] = c.RateFraction
	}
	reqs, err := workload.GenerateSpec(spec)
	if err != nil {
		tb.Fatal(err)
	}
	tr, dl := obs.NewTracer(), obs.NewDecisionLog()
	opts := ContinuousOpts{ChunkTokens: 256, Sched: SchedPriority, PreemptBatch: true, Trace: tr, Decisions: dl}
	adm := AdmissionConfig{
		Policy: AdmitQueue, BurstTokens: 30000, RefillPerSec: 36000,
		MaxQueueMS: 2000, Weights: weights,
	}
	if _, err := Run(ClusterConfig{GPU: DefaultGPU(), Instances: 4, Router: CacheAware,
		Opts: opts, Admission: adm}, reqs); err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TestTraceExportDigests pins the exported Chrome-trace bytes of three
// serving runs by length and SHA-256, as written by the historical
// sort-then-render exporter. Any change to the recorded timeline or to
// its rendering fails here. The digests hold on amd64 only: other
// architectures may fuse floating-point multiply-adds, so simulated
// times can legitimately differ in the last bit there.
func TestTraceExportDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trace digests are pinned on amd64; %s may fuse floating-point multiply-adds", runtime.GOARCH)
	}
	cases := []struct {
		name  string
		trace func() *obs.Tracer
		bytes int
		sha   string
	}{
		{"E23 severe cell", func() *obs.Tracer { return severeTrace(t, nil) },
			681506, "d0e088f3771dc1ab17a9d7a135798adc43c604375ffddfabfef37903e81131c5"},
		{"E23 severe cell with decisions", func() *obs.Tracer { return severeTrace(t, obs.NewDecisionLog()) },
			692690, "9d6d3148450e4163f382631603b3e1678805f58a79e918390a3a8b85ae069bb3"},
		{"saturated tenants, 2000 requests", func() *obs.Tracer { return saturatedTenants(t, 2000) },
			3018827, "81c9fb740ef42f8131a094a3104d1ddb889d3bbe76e9555c937b09e89026b46c"},
	}
	for _, c := range cases {
		tr := c.trace()
		if err := tr.Check(); err != nil {
			t.Fatalf("%s: trace fails Check: %v", c.name, err)
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); buf.Len() != c.bytes || got != c.sha {
			t.Errorf("%s: export is %d bytes, sha256 %s; pinned %d bytes, %s", c.name, buf.Len(), got, c.bytes, c.sha)
		}
	}
}
