// Serving under SLOs: compares the surveyed serving policies (§2.3.2) on
// one trace and prints the goodput table — static batching, continuous
// batching, chunked prefill, and prefill/decode disaggregation on an
// equal GPU budget.
package main

import (
	"fmt"
	"log"
	"os"

	"dataai/internal/metrics"
	"dataai/internal/serving"
	"dataai/internal/workload"
)

func main() {
	log.SetFlags(0)
	const (
		n       = 400
		rate    = 90.0
		gpus    = 4
		ttftSLO = 1000.0
		tbtSLO  = 12.0
	)
	reqs, err := workload.Generate(workload.DefaultTrace(3, n, rate))
	if err != nil {
		log.Fatal(err)
	}
	gpu := serving.DefaultGPU()

	t := metrics.NewTable(
		fmt.Sprintf("serving %d reqs @ %.0f/s on %d GPUs, SLO TTFT<=%.0fms TBT<=%.0fms",
			n, rate, gpus, ttftSLO, tbtSLO),
		"policy", "tok/s", "p95 TTFT (ms)", "p95 TBT (ms)", "goodput")
	add := func(name string, rep *serving.Report) {
		t.AddRowf(name, rep.Throughput(), rep.TTFT.P95(), rep.TBT.P95(), rep.Goodput(ttftSLO, tbtSLO))
	}

	// Colocated: every GPU interleaves prefill and decode over a
	// round-robin share of the trace.
	colo := serving.ClusterConfig{GPU: gpu, Instances: gpus, Router: serving.RoundRobin}
	rep, err := serving.Run(colo, reqs)
	if err != nil {
		log.Fatal(err)
	}
	add("colocated continuous", &rep.Report)

	colo.Opts.ChunkTokens = 128
	rep, err = serving.Run(colo, reqs)
	if err != nil {
		log.Fatal(err)
	}
	add("colocated + chunked prefill", &rep.Report)

	for _, split := range [][2]int{{1, 3}, {2, 2}} {
		rep, err := serving.RunDisaggregated(gpu, reqs, serving.DisaggOpts{
			PrefillGPUs: split[0], DecodeGPUs: split[1],
		})
		if err != nil {
			log.Fatal(err)
		}
		add(fmt.Sprintf("disaggregated %dP+%dD", split[0], split[1]), rep)
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
