package extract

import (
	"errors"
	"testing"

	"dataai/internal/corpus"
	"dataai/internal/llm"
)

var attrs = []string{"name", "owner", "status"}

func perfectClient(seed uint64) *llm.Simulator {
	m := llm.LargeModel()
	m.ErrRate = 0
	m.HallucinationRate = 0
	return llm.NewSimulator(m, seed)
}

func records(t *testing.T, n int, noise float64) *corpus.RecordSet {
	t.Helper()
	rs, err := corpus.GenerateRecords(7, n, attrs, noise)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestDirectPerfectModelPerfectRecords(t *testing.T) {
	rs := records(t, 50, 0)
	res, err := Direct{Client: perfectClient(1)}.Extract(rs)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(rs, res); acc < 0.999 {
		t.Errorf("direct accuracy = %v, want ~1", acc)
	}
	if res.LLMCalls != 50*len(attrs) {
		t.Errorf("calls = %d, want %d", res.LLMCalls, 50*len(attrs))
	}
}

func TestEvaporateMuchCheaperSimilarAccuracy(t *testing.T) {
	rs := records(t, 200, 0)
	client := llm.NewSimulator(llm.LargeModel(), 2) // realistic error rates

	direct, err := Direct{Client: client}.Extract(rs)
	if err != nil {
		t.Fatal(err)
	}
	evap, err := Evaporate{Client: client, SampleSize: 10}.Extract(rs)
	if err != nil {
		t.Fatal(err)
	}
	accD := Accuracy(rs, direct)
	accE := Accuracy(rs, evap)
	if evap.LLMCalls*5 > direct.LLMCalls {
		t.Errorf("evaporate calls %d not ≪ direct %d", evap.LLMCalls, direct.LLMCalls)
	}
	if evap.CostUSD >= direct.CostUSD {
		t.Errorf("evaporate cost %v >= direct %v", evap.CostUSD, direct.CostUSD)
	}
	if accE < accD-0.1 {
		t.Errorf("evaporate accuracy %v much worse than direct %v", accE, accD)
	}
	if accE < 0.8 {
		t.Errorf("evaporate accuracy %v too low", accE)
	}
}

func TestEvaporateHandlesNoisyRecords(t *testing.T) {
	rs := records(t, 150, 0.2)
	evap, err := Evaporate{Client: perfectClient(3), SampleSize: 12}.Extract(rs)
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy(rs, evap)
	// 20% of records have one corrupted attribute (of 3): ceiling ~0.93.
	if acc < 0.75 {
		t.Errorf("accuracy %v too low for 20%% noise", acc)
	}
	if acc > 0.97 {
		t.Errorf("accuracy %v above the noise ceiling — gold leak?", acc)
	}
}

func TestEvaporateSampleLargerThanSet(t *testing.T) {
	rs := records(t, 5, 0)
	res, err := Evaporate{Client: perfectClient(4), SampleSize: 50}.Extract(rs)
	if err != nil {
		t.Fatal(err)
	}
	if res.LLMCalls != 5*len(attrs) {
		t.Errorf("calls = %d", res.LLMCalls)
	}
}

func TestEmptyRecordSet(t *testing.T) {
	rs := &corpus.RecordSet{Attributes: attrs}
	if _, err := (Direct{Client: perfectClient(5)}).Extract(rs); !errors.Is(err, ErrNoRecords) {
		t.Errorf("direct err = %v", err)
	}
	if _, err := (Evaporate{Client: perfectClient(5)}).Extract(rs); !errors.Is(err, ErrNoRecords) {
		t.Errorf("evaporate err = %v", err)
	}
}

func TestCandidateFunctionsCoverFormats(t *testing.T) {
	cands := candidatePool()
	texts := map[int]string{
		0: "owner: ann\n",
		1: "owner = ann\n",
		2: "The owner is ann. Extra.",
	}
	for format, text := range texts {
		hit := false
		for _, c := range cands {
			if c.fn(text, "owner") == "ann" {
				hit = true
			}
		}
		if !hit {
			t.Errorf("no candidate extracts format %d", format)
		}
	}
}

func TestWeakFunctionDownweighted(t *testing.T) {
	// On format-0 records the "next-token" heuristic extracts the value
	// with trailing colon content equal — ensure vote combination does
	// not let a weak function override three strong ones.
	rs := records(t, 100, 0)
	evap, err := Evaporate{Client: perfectClient(6), SampleSize: 15}.Extract(rs)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(rs, evap); acc < 0.95 {
		t.Errorf("accuracy %v with clean records", acc)
	}
}

func TestArgmaxVoteDeterministic(t *testing.T) {
	v := map[string]float64{"b": 1, "a": 1}
	if got := argmaxVote(v); got != "a" {
		t.Errorf("tie break = %q, want a", got)
	}
	if got := argmaxVote(nil); got != "" {
		t.Errorf("empty vote = %q", got)
	}
}

func BenchmarkEvaporate(b *testing.B) {
	rs, _ := corpus.GenerateRecords(7, 500, attrs, 0.05)
	client := llm.NewSimulator(llm.LargeModel(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Evaporate{Client: client, SampleSize: 10}).Extract(rs); err != nil {
			b.Fatal(err)
		}
	}
}
