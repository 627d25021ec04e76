package workload

// This file grows the single anonymous Poisson stream into a ServeGen-
// style multi-tenant workload *spec*: a seeded list of clients, each
// with a tenant identity, a share of the aggregate arrival rate, an SLO
// class, its own arrival process (Poisson, Gamma burst, diurnal ramp)
// and its own prompt/output length distributions. Generate merges the
// per-client streams into one deterministically ordered trace.
//
// Determinism contract: every client draws from a private RNG whose
// seed is a pure function of (spec seed, client ID), and the merge
// orders by (arrival, client ID, per-client index) — so the merged
// trace is a pure function of the spec's *contents*, invariant under
// client list permutation and under whatever order the streams were
// generated in. The legacy TraceConfig API is re-expressed as a
// single-client spec (TraceConfig.Spec) with a draw-for-draw identical
// generation path, so historical traces are byte-identical.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dataai/internal/token"
)

// SLOClass is a request's latency class. Interactive is the zero value,
// so legacy single-stream traces (and any unspecified client) default
// to it.
type SLOClass int

// The two SLO classes the serving layer schedules across.
const (
	// Interactive requests carry tight TTFT expectations (chat, agent
	// steps); schedulers may prioritize them and admission protects them.
	Interactive SLOClass = iota
	// Batch requests are throughput-oriented background work (synthetic
	// data generation, bulk extraction) with loose latency expectations.
	Batch
)

// String names the class.
func (c SLOClass) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	default:
		return fmt.Sprintf("slo(%d)", int(c))
	}
}

// ArrivalProcess selects a client's inter-arrival law.
type ArrivalProcess int

// Supported arrival processes.
const (
	// Poisson draws exponential gaps at the client's rate — the
	// memoryless baseline every earlier experiment used.
	Poisson ArrivalProcess = iota
	// GammaBurst draws Gamma-distributed gaps with the same mean but a
	// configurable squared coefficient of variation (Burstiness): > 1
	// clumps arrivals into bursts separated by lulls.
	GammaBurst
	// DiurnalRamp modulates a Poisson process with a sinusoidal rate
	// (Amplitude, PeriodMS) via thinning — a compressed day/night cycle.
	DiurnalRamp
)

// String names the process.
func (p ArrivalProcess) String() string {
	switch p {
	case Poisson:
		return "poisson"
	case GammaBurst:
		return "gamma-burst"
	case DiurnalRamp:
		return "diurnal-ramp"
	default:
		return fmt.Sprintf("arrival(%d)", int(p))
	}
}

// ArrivalSpec configures one client's arrival process.
type ArrivalSpec struct {
	Process ArrivalProcess
	// Burstiness is GammaBurst's squared coefficient of variation of
	// inter-arrival gaps (1 reproduces Poisson statistics; 4 is bursty).
	Burstiness float64
	// Amplitude (0 <= a < 1) and PeriodMS shape DiurnalRamp's rate
	// r(t) = rate * (1 + Amplitude*sin(2*pi*t/PeriodMS)).
	Amplitude float64
	PeriodMS  float64
}

// LengthSpec is a lognormal token-length distribution: exp(N(Mean,
// Sigma^2)) clamped to [Min, Max] (Max <= 0 leaves the tail unclamped,
// Min < 1 clamps at 1).
type LengthSpec struct {
	Mean  float64
	Sigma float64
	Min   int
	Max   int
}

// ClientSpec is one tenant-attributed request stream inside a
// WorkloadSpec.
type ClientSpec struct {
	// ID names the client; it must be unique within the spec and seeds
	// the client's private RNG, so a client's stream is a function of
	// its identity, not its position in the list. A single client may
	// leave it empty (the legacy TraceConfig path does).
	ID string
	// TenantID attributes the stream for admission control and
	// per-tenant reporting; several clients may share one tenant.
	TenantID string
	// RateFraction is this client's share of the spec's aggregate
	// arrival rate (fractions are normalized, so they need not sum to 1).
	RateFraction float64
	// SLOClass tags every request the client emits.
	SLOClass SLOClass
	// Arrival selects the inter-arrival law.
	Arrival ArrivalSpec
	// Prompt and Output are the token-length distributions.
	Prompt LengthSpec
	Output LengthSpec
	// SharedPrefixes > 0 assigns each request one of that many client-
	// scoped shared prefixes of SharedPrefixTokens tokens with
	// probability SharedPrefixProb (mirroring TraceConfig).
	SharedPrefixes     int
	SharedPrefixTokens int
	SharedPrefixProb   float64
}

// WorkloadSpec is a seeded multi-client workload: Count requests split
// across Clients by rate fraction at an aggregate RatePerSec.
type WorkloadSpec struct {
	Seed       int64
	Count      int
	RatePerSec float64
	Clients    []ClientSpec
}

// Validate checks the spec.
func (spec WorkloadSpec) Validate() error {
	if spec.Count <= 0 {
		return fmt.Errorf("workload: count must be >= 1, got %d", spec.Count)
	}
	if spec.RatePerSec <= 0 {
		return fmt.Errorf("workload: rate must be > 0, got %v", spec.RatePerSec)
	}
	if len(spec.Clients) == 0 {
		return fmt.Errorf("workload: spec needs at least one client")
	}
	seen := make(map[string]bool, len(spec.Clients))
	for i, c := range spec.Clients {
		if c.RateFraction <= 0 {
			return fmt.Errorf("workload: client %q rate fraction must be > 0, got %v", c.ID, c.RateFraction)
		}
		if c.ID == "" && len(spec.Clients) > 1 {
			return fmt.Errorf("workload: client %d needs an ID in a multi-client spec", i)
		}
		if seen[c.ID] {
			return fmt.Errorf("workload: duplicate client ID %q", c.ID)
		}
		seen[c.ID] = true
		switch c.Arrival.Process {
		case Poisson:
		case GammaBurst:
			if c.Arrival.Burstiness <= 0 {
				return fmt.Errorf("workload: client %q gamma-burst needs Burstiness > 0", c.ID)
			}
		case DiurnalRamp:
			if c.Arrival.Amplitude < 0 || c.Arrival.Amplitude >= 1 {
				return fmt.Errorf("workload: client %q diurnal amplitude must be in [0, 1), got %v", c.ID, c.Arrival.Amplitude)
			}
			if c.Arrival.PeriodMS <= 0 {
				return fmt.Errorf("workload: client %q diurnal period must be > 0, got %v", c.ID, c.Arrival.PeriodMS)
			}
		default:
			return fmt.Errorf("workload: client %q has unknown arrival process %d", c.ID, int(c.Arrival.Process))
		}
	}
	return nil
}

// clientSeed derives a client's private RNG seed. An empty ID keeps the
// spec seed verbatim — the legacy single-client path, whose stream must
// reproduce TraceConfig's historical draws byte for byte.
func clientSeed(specSeed int64, id string) int64 {
	if id == "" {
		return specSeed
	}
	return specSeed ^ int64(token.Hash64(id))
}

// clientCounts splits spec.Count across clients proportionally to their
// rate fractions by largest remainder, with ties broken by client ID —
// a pure function of the spec's contents, invariant under list order.
func (spec WorkloadSpec) clientCounts() []int {
	sum := 0.0
	for _, c := range spec.Clients {
		sum += c.RateFraction
	}
	counts := make([]int, len(spec.Clients))
	type rem struct {
		frac float64
		id   string
		idx  int
	}
	rems := make([]rem, len(spec.Clients))
	assigned := 0
	for i, c := range spec.Clients {
		exact := float64(spec.Count) * c.RateFraction / sum
		counts[i] = int(math.Floor(exact))
		assigned += counts[i]
		rems[i] = rem{frac: exact - math.Floor(exact), id: c.ID, idx: i}
	}
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].id < rems[j].id
	})
	for k := 0; k < spec.Count-assigned; k++ {
		counts[rems[k%len(rems)].idx]++
	}
	return counts
}

// prefixName scopes a shared prefix to its client. The legacy empty-ID
// client keeps the historical global "prefix-<k>" names.
func prefixName(clientID string, k int) string {
	if clientID == "" {
		return fmt.Sprintf("prefix-%d", k)
	}
	return fmt.Sprintf("%s/prefix-%d", clientID, k)
}

// generateClient produces one client's stream in arrival order. The
// draw order per request — gap, prompt, output, then the optional
// prefix pair — matches the historical Generate loop exactly, so the
// legacy single-client spec reproduces its traces byte for byte.
func generateClient(spec WorkloadSpec, ci, count int, rate float64) []Request {
	c := spec.Clients[ci]
	rng := rand.New(rand.NewSource(clientSeed(spec.Seed, c.ID)))
	promptMin, outputMin := c.Prompt.Min, c.Output.Min
	if promptMin < 1 {
		promptMin = 1
	}
	if outputMin < 1 {
		outputMin = 1
	}
	reqs := make([]Request, count)
	clock := 0.0
	for i := range reqs {
		clock += arrivalGap(rng, c.Arrival, rate, clock)
		r := Request{
			ArrivalMS:    clock,
			PromptTokens: lognormal(rng, c.Prompt.Mean, c.Prompt.Sigma, promptMin, c.Prompt.Max),
			OutputTokens: lognormal(rng, c.Output.Mean, c.Output.Sigma, outputMin, c.Output.Max),
			Tenant:       c.TenantID,
			Client:       c.ID,
			SLOClass:     c.SLOClass,
		}
		if c.SharedPrefixes > 0 && rng.Float64() < c.SharedPrefixProb {
			r.PrefixID = prefixName(c.ID, rng.Intn(c.SharedPrefixes))
			r.PrefixTokens = c.SharedPrefixTokens
			if r.PrefixTokens >= r.PromptTokens {
				r.PromptTokens = r.PrefixTokens + 16
			}
		}
		reqs[i] = r
	}
	return reqs
}

// arrivalGap draws the next inter-arrival gap in ms for a client whose
// last arrival was at clock.
func arrivalGap(rng *rand.Rand, a ArrivalSpec, rate, clock float64) float64 {
	switch a.Process {
	case GammaBurst:
		// Gamma(shape k, mean 1/rate): CV^2 of gaps is 1/k = Burstiness.
		shape := 1 / a.Burstiness
		return gammaDraw(rng, shape) / (shape * rate) * 1000
	case DiurnalRamp:
		// Thinning against the peak rate: candidate gaps at rmax are
		// accepted with probability r(t)/rmax, yielding a nonhomogeneous
		// Poisson process with the sinusoidal rate.
		rmax := rate * (1 + a.Amplitude)
		t := clock
		for {
			t += rng.ExpFloat64() / rmax * 1000
			r := rate * (1 + a.Amplitude*math.Sin(2*math.Pi*t/a.PeriodMS))
			if rng.Float64()*rmax <= r {
				return t - clock
			}
		}
	default: // Poisson
		return rng.ExpFloat64() / rate * 1000
	}
}

// gammaDraw samples Gamma(shape, 1) by Marsaglia–Tsang squeeze; the
// shape < 1 boost keeps it exact for bursty (small-shape) clients.
func gammaDraw(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		return gammaDraw(rng, shape+1) * math.Pow(rng.Float64(), 1/shape)
	}
	d := shape - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// GenerateSpec produces the merged multi-client trace: every client's
// stream is generated from its private RNG, the streams are merged in
// (arrival, client ID, per-client index) order, and request IDs are
// assigned in merged order — so the result is a pure function of the
// spec's contents, not of client list order or generation order.
func GenerateSpec(spec WorkloadSpec) ([]Request, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	counts := spec.clientCounts()
	sum := 0.0
	for _, c := range spec.Clients {
		sum += c.RateFraction
	}
	streams := make([][]Request, len(spec.Clients))
	for ci := range spec.Clients {
		rate := spec.RatePerSec * spec.Clients[ci].RateFraction / sum
		streams[ci] = generateClient(spec, ci, counts[ci], rate)
	}
	type tagged struct {
		req Request
		seq int // index within the client's stream
	}
	merged := make([]tagged, 0, spec.Count)
	for _, stream := range streams {
		for seq, r := range stream {
			merged = append(merged, tagged{req: r, seq: seq})
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		a, b := &merged[i], &merged[j]
		if a.req.ArrivalMS != b.req.ArrivalMS {
			return a.req.ArrivalMS < b.req.ArrivalMS
		}
		if a.req.Client != b.req.Client {
			return a.req.Client < b.req.Client
		}
		return a.seq < b.seq
	})
	out := make([]Request, len(merged))
	for i := range merged {
		out[i] = merged[i].req
		out[i].ID = fmt.Sprintf("r%05d", i)
	}
	return out, nil
}

// Spec re-expresses the legacy single-stream TraceConfig as a one-
// client WorkloadSpec. GenerateSpec over it reproduces the historical
// Generate output byte for byte (the spec path's draw order is
// identical), which the equivalence test pins.
func (cfg TraceConfig) Spec() WorkloadSpec {
	return WorkloadSpec{
		Seed:       cfg.Seed,
		Count:      cfg.Count,
		RatePerSec: cfg.RatePerSec,
		Clients: []ClientSpec{{
			RateFraction:       1,
			Arrival:            ArrivalSpec{Process: Poisson},
			Prompt:             LengthSpec{Mean: cfg.PromptMean, Sigma: cfg.PromptSigma, Min: 16, Max: cfg.PromptMax},
			Output:             LengthSpec{Mean: cfg.OutputMean, Sigma: cfg.OutputSigma, Min: 4, Max: cfg.OutputMax},
			SharedPrefixes:     cfg.SharedPrefixes,
			SharedPrefixTokens: cfg.SharedPrefixTokens,
			SharedPrefixProb:   cfg.SharedPrefixProb,
		}},
	}
}

// DefaultMultiTenant is the baseline E25 traffic mix: three tenants with
// different arrival processes, length shapes, and SLO classes sharing
// one aggregate rate.
//
//   - "chat" (30%, interactive): short prompts and outputs on a smooth
//     Poisson process — the latency-sensitive tenant the cluster must
//     protect.
//   - "bulk-a" (45%, batch): long analytics-style prompts on a Gamma
//     burst process (CV² = 4) — arrives in clumps that saturate slots.
//   - "bulk-b" (25%, batch): the same shape on a diurnal ramp (amplitude
//     0.8, 40s period) — sustained waves rather than clumps.
func DefaultMultiTenant(seed int64, count int, ratePerSec float64) WorkloadSpec {
	bulk := ClientSpec{
		SLOClass: Batch,
		Prompt:   LengthSpec{Mean: 6.0, Sigma: 0.8, Min: 16, Max: 2048},
		Output:   LengthSpec{Mean: 4.7, Sigma: 0.7, Min: 4, Max: 512},
	}
	bulkA, bulkB := bulk, bulk
	bulkA.ID, bulkA.TenantID, bulkA.RateFraction = "bulk-a", "bulk-a", 0.45
	bulkA.Arrival = ArrivalSpec{Process: GammaBurst, Burstiness: 4}
	bulkB.ID, bulkB.TenantID, bulkB.RateFraction = "bulk-b", "bulk-b", 0.25
	bulkB.Arrival = ArrivalSpec{Process: DiurnalRamp, Amplitude: 0.8, PeriodMS: 40000}
	return WorkloadSpec{
		Seed:       seed,
		Count:      count,
		RatePerSec: ratePerSec,
		Clients: []ClientSpec{
			{
				ID: "chat", TenantID: "chat", RateFraction: 0.30,
				SLOClass: Interactive,
				Arrival:  ArrivalSpec{Process: Poisson},
				Prompt:   LengthSpec{Mean: 4.9, Sigma: 0.6, Min: 16, Max: 1024},
				Output:   LengthSpec{Mean: 3.5, Sigma: 0.6, Min: 4, Max: 256},
			},
			bulkA,
			bulkB,
		},
	}
}
