package workload

import (
	"math"
	"testing"
)

// singleClientSpec is a one-client spec with the given arrival law —
// the property-test harness for the new processes.
func singleClientSpec(a ArrivalSpec, count int, rate float64) WorkloadSpec {
	return WorkloadSpec{
		Seed:       41,
		Count:      count,
		RatePerSec: rate,
		Clients: []ClientSpec{{
			ID: "c", TenantID: "t", RateFraction: 1, Arrival: a,
			Prompt: LengthSpec{Mean: 5, Sigma: 0.5, Min: 16, Max: 1024},
			Output: LengthSpec{Mean: 4, Sigma: 0.5, Min: 4, Max: 512},
		}},
	}
}

// TestSpecLegacyEquivalence pins the compatibility contract: the legacy
// TraceConfig re-expressed as a single-client spec reproduces the
// historical trace element for element (Generate itself routes through
// GenerateSpec, so this guards the wrapper against future divergence).
func TestSpecLegacyEquivalence(t *testing.T) {
	cfg := DefaultTrace(9, 300, 25)
	cfg.SharedPrefixes = 4
	cfg.SharedPrefixTokens = 256
	cfg.SharedPrefixProb = 0.5
	legacy, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := GenerateSpec(cfg.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy) != len(viaSpec) {
		t.Fatalf("lengths differ: %d vs %d", len(legacy), len(viaSpec))
	}
	for i := range legacy {
		if legacy[i] != viaSpec[i] {
			t.Fatalf("request %d differs:\nlegacy: %+v\nspec:   %+v", i, legacy[i], viaSpec[i])
		}
	}
}

// TestSpecArrivalProperties checks, for each arrival process: arrivals
// are sorted, regeneration is byte-stable in the seed, and the
// empirical rate lands near the nominal one (Gamma gaps share the
// Poisson mean; the diurnal sine averages out over whole periods).
func TestSpecArrivalProperties(t *testing.T) {
	cases := []struct {
		name string
		a    ArrivalSpec
	}{
		{"poisson", ArrivalSpec{Process: Poisson}},
		{"gamma-burst", ArrivalSpec{Process: GammaBurst, Burstiness: 4}},
		{"diurnal-ramp", ArrivalSpec{Process: DiurnalRamp, Amplitude: 0.8, PeriodMS: 10000}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := singleClientSpec(tc.a, 2000, 20)
			reqs, err := GenerateSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			prev := -1.0
			for i, r := range reqs {
				if r.ArrivalMS < prev {
					t.Fatalf("request %d: arrival %v before %v", i, r.ArrivalMS, prev)
				}
				prev = r.ArrivalMS
			}
			again, err := GenerateSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			for i := range reqs {
				if reqs[i] != again[i] {
					t.Fatalf("request %d not seed-stable", i)
				}
			}
			span := reqs[len(reqs)-1].ArrivalMS / 1000
			rate := float64(len(reqs)) / span
			if math.Abs(rate-20) > 4 {
				t.Errorf("empirical rate %v, want ~20", rate)
			}
		})
	}
}

// TestSpecBurstClumping verifies GammaBurst actually burstifies: the
// gap CV² should sit well above Poisson's 1.
func TestSpecBurstClumping(t *testing.T) {
	gapCV2 := func(a ArrivalSpec) float64 {
		reqs, err := GenerateSpec(singleClientSpec(a, 4000, 20))
		if err != nil {
			t.Fatal(err)
		}
		var sum, sumSq float64
		prev := 0.0
		for _, r := range reqs {
			g := r.ArrivalMS - prev
			prev = r.ArrivalMS
			sum += g
			sumSq += g * g
		}
		n := float64(len(reqs))
		mean := sum / n
		return (sumSq/n - mean*mean) / (mean * mean)
	}
	poisson := gapCV2(ArrivalSpec{Process: Poisson})
	bursty := gapCV2(ArrivalSpec{Process: GammaBurst, Burstiness: 4})
	if bursty < 2*poisson {
		t.Errorf("gamma-burst CV² %.2f not clearly above poisson's %.2f", bursty, poisson)
	}
	if bursty < 3 || bursty > 5.5 {
		t.Errorf("gamma-burst CV² %.2f, want ~4", bursty)
	}
}

// TestSpecMergeDeterminism pins permutation invariance: reordering the
// client list changes nothing about the merged trace, because client
// RNG seeds hang off client IDs and the merge orders by contents.
func TestSpecMergeDeterminism(t *testing.T) {
	spec := DefaultMultiTenant(2501, 600, 90)
	base, err := GenerateSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	perm := spec
	perm.Clients = []ClientSpec{spec.Clients[2], spec.Clients[0], spec.Clients[1]}
	swapped, err := GenerateSpec(perm)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if base[i] != swapped[i] {
			t.Fatalf("request %d differs under client permutation:\n%+v\n%+v", i, base[i], swapped[i])
		}
	}
}

// TestSpecCountSplit checks the largest-remainder split: counts sum to
// Count and track rate fractions to within one request.
func TestSpecCountSplit(t *testing.T) {
	spec := DefaultMultiTenant(1, 601, 60)
	reqs, err := GenerateSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 601 {
		t.Fatalf("count = %d, want 601", len(reqs))
	}
	perClient := map[string]int{}
	for _, r := range reqs {
		perClient[r.Client]++
	}
	for _, c := range spec.Clients {
		exact := 601 * c.RateFraction
		if math.Abs(float64(perClient[c.ID])-exact) > 1 {
			t.Errorf("client %s got %d requests, want ~%.1f", c.ID, perClient[c.ID], exact)
		}
	}
	tenants := map[string]bool{}
	for _, r := range reqs {
		tenants[r.Tenant] = true
	}
	if len(tenants) != 3 || !tenants["bulk-a"] || !tenants["bulk-b"] || !tenants["chat"] {
		t.Errorf("tenants = %v, want bulk-a, bulk-b and chat", tenants)
	}
}

// TestSpecValidation exercises the rejection paths.
func TestSpecValidation(t *testing.T) {
	ok := singleClientSpec(ArrivalSpec{Process: Poisson}, 10, 5)
	bad := func(mutate func(*WorkloadSpec)) error {
		s := ok
		s.Clients = append([]ClientSpec(nil), ok.Clients...)
		mutate(&s)
		_, err := GenerateSpec(s)
		return err
	}
	cases := []struct {
		name   string
		mutate func(*WorkloadSpec)
	}{
		{"zero count", func(s *WorkloadSpec) { s.Count = 0 }},
		{"zero rate", func(s *WorkloadSpec) { s.RatePerSec = 0 }},
		{"no clients", func(s *WorkloadSpec) { s.Clients = nil }},
		{"zero fraction", func(s *WorkloadSpec) { s.Clients[0].RateFraction = 0 }},
		{"gamma without burstiness", func(s *WorkloadSpec) {
			s.Clients[0].Arrival = ArrivalSpec{Process: GammaBurst}
		}},
		{"diurnal amplitude 1", func(s *WorkloadSpec) {
			s.Clients[0].Arrival = ArrivalSpec{Process: DiurnalRamp, Amplitude: 1, PeriodMS: 1000}
		}},
		{"diurnal without period", func(s *WorkloadSpec) {
			s.Clients[0].Arrival = ArrivalSpec{Process: DiurnalRamp, Amplitude: 0.5}
		}},
		{"duplicate IDs", func(s *WorkloadSpec) {
			s.Clients = append(s.Clients, s.Clients[0])
		}},
		{"anonymous client in multi-client spec", func(s *WorkloadSpec) {
			extra := s.Clients[0]
			extra.ID = ""
			s.Clients = append(s.Clients, extra)
		}},
	}
	for _, tc := range cases {
		if err := bad(tc.mutate); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
