package serving

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dataai/internal/obs"
	"dataai/internal/par"
	"dataai/internal/workload"
)

var updateGrid = flag.Bool("update-grid", false, "rewrite testdata/decode_grid.txt from the current code")

// gridFile holds one line per decodeGrid config: its name, a SHA-256
// prefix of its Results, its preemption and recovery counters, and, for
// traced configs, a SHA-256 prefix of its WriteChrome bytes.
const gridFile = "testdata/decode_grid.txt"

// gridGPU is small enough that the grid's traces press on every limit
// the decode loop meets: eight batch slots (slot preemption), 4096 KV
// tokens (OnDemand growth and preemption) and a reserve-full footprint
// that admits only a few bulk requests at a time.
func gridGPU() GPUConfig {
	g := DefaultGPU()
	g.KVBlocks = 256
	g.MaxBatch = 8
	return g
}

// gridTrace is a DefaultMultiTenant trace whose three clients each
// share four 128-token prefixes with probability one half.
func gridTrace(tb testing.TB, seed int64) []workload.Request {
	spec := workload.DefaultMultiTenant(seed, 200, 24)
	for i := range spec.Clients {
		spec.Clients[i].SharedPrefixes = 4
		spec.Clients[i].SharedPrefixTokens = 128
		spec.Clients[i].SharedPrefixProb = 0.5
	}
	reqs, err := workload.GenerateSpec(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return reqs
}

// gridConfig is one point of the decode grid.
type gridConfig struct {
	name   string
	traced bool
	// run serves reqs; tr and dl are nil for an untraced config.
	run func(reqs []workload.Request, tr *obs.Tracer, dl *obs.DecisionLog) (*RoutedReport, error)
}

// decodeGrid enumerates the configurations whose outputs
// testdata/decode_grid.txt pins: every router policy, no faults, severe
// faults and cascading faults with checkpoints and migration, 1, 3 and
// 8 instances, reserve-full and OnDemand KV, FCFS, priority and SJF
// scheduling (the last two with batch preemption), dedicated and
// chunked prefill, each on an untraced seed and a traced seed with a
// decision log; then RunContinuous over KV mode and chunking on the
// same two seeds.
func decodeGrid() []gridConfig {
	type plan struct {
		name string
		plan func() *FaultPlan
		rec  RecoveryConfig
	}
	plans := []plan{
		{"none", func() *FaultPlan { return nil }, RecoveryConfig{}},
		{"severe", func() *FaultPlan { return SevereFaultPlan(7) }, RecoveryConfig{}},
		{"cascade", func() *FaultPlan { return CascadeFaultPlan(7, 2) }, RecoveryConfig{
			CkptEveryIters: 4, Migrate: true, MigrateCheckMS: 250,
			PrefixGPUTokens: 1024, PrefixCPUTokens: 8192,
		}},
	}
	type sched struct {
		name    string
		sched   SchedPolicy
		preempt bool
	}
	scheds := []sched{{"fcfs", SchedFCFS, false}, {"prio", SchedPriority, true}, {"sjf", SchedSJF, true}}
	var grid []gridConfig
	for _, traced := range []bool{false, true} {
		for _, policy := range []RouterPolicy{RoundRobin, CacheAware, BreakerAware} {
			for _, p := range plans {
				for _, n := range []int{1, 3, 8} {
					for _, onDemand := range []bool{false, true} {
						for _, sc := range scheds {
							for _, chunk := range []int{0, 256} {
								policy, p, n, onDemand, sc, chunk := policy, p, n, onDemand, sc, chunk
								grid = append(grid, gridConfig{
									name: fmt.Sprintf("routed/%s/%s/n%d/ondemand=%t/%s/chunk%d/traced=%t",
										policy, p.name, n, onDemand, sc.name, chunk, traced),
									traced: traced,
									run: func(reqs []workload.Request, tr *obs.Tracer, dl *obs.DecisionLog) (*RoutedReport, error) {
										opts := ContinuousOpts{
											ChunkTokens: chunk, OnDemand: onDemand, Sched: sc.sched,
											PreemptBatch: sc.preempt, Trace: tr, Decisions: dl,
										}
										return Run(ClusterConfig{GPU: gridGPU(), Instances: n, Router: policy,
											Opts: opts, Faults: p.plan(), Recovery: p.rec}, reqs)
									},
								})
							}
						}
					}
				}
			}
		}
		for _, onDemand := range []bool{false, true} {
			for _, chunk := range []int{0, 256} {
				onDemand, chunk := onDemand, chunk
				grid = append(grid, gridConfig{
					name:   fmt.Sprintf("continuous/ondemand=%t/chunk%d/traced=%t", onDemand, chunk, traced),
					traced: traced,
					run: func(reqs []workload.Request, tr *obs.Tracer, _ *obs.DecisionLog) (*RoutedReport, error) {
						rep, err := RunContinuous(gridGPU(), reqs, ContinuousOpts{ChunkTokens: chunk, OnDemand: onDemand, Trace: tr})
						if err != nil {
							return nil, err
						}
						return &RoutedReport{Report: *rep}, nil
					},
				})
			}
		}
	}
	return grid
}

// gridLine runs one config and renders its line of the digest file.
func gridLine(cfg gridConfig, reqs []workload.Request) (string, error) {
	var tr *obs.Tracer
	var dl *obs.DecisionLog
	if cfg.traced {
		tr, dl = obs.NewTracer(), obs.NewDecisionLog()
	}
	rep, err := cfg.run(reqs, tr, dl)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var buf []byte
	for _, r := range rep.Results {
		buf = binary.AppendUvarint(buf[:0], uint64(len(r.Req.ID)))
		buf = append(buf, r.Req.ID...)
		for _, f := range []float64{r.TTFTms, r.TBTms, r.FinishMS} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
		buf = binary.AppendVarint(buf, int64(r.PrefilledTokens))
		buf = binary.AppendVarint(buf, int64(r.Instance))
		if r.Rejected {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		h.Write(buf)
	}
	buf = binary.AppendVarint(buf[:0], int64(rep.RecoveryMS.Count()))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rep.RecoveryMS.Sum()))
	h.Write(buf)
	line := fmt.Sprintf("%s %s pre=%d peak=%d hit=%d rr=%d cr=%d mig=%d res=%d wst=%d ckw=%d ckt=%d",
		cfg.name, hex.EncodeToString(h.Sum(nil)[:8]), rep.Preemptions, rep.PeakKVBlocks, rep.PrefixHits,
		rep.Rerouted, rep.Crashes, rep.Migrations, rep.ResumedFromCkpt, rep.WastedRecomputeTokens,
		rep.CkptWrites, rep.CkptTokens)
	if tr == nil {
		return line + " trace=-", nil
	}
	if err := tr.Check(); err != nil {
		return "", fmt.Errorf("trace fails Check: %w", err)
	}
	var chrome bytes.Buffer
	if err := tr.WriteChrome(&chrome); err != nil {
		return "", err
	}
	sum := sha256.Sum256(chrome.Bytes())
	return line + " trace=" + hex.EncodeToString(sum[:8]), nil
}

// TestDecodeGridDigests is the exactness oracle of the decode loop: it
// runs every decodeGrid config and compares its line with the one
// committed in testdata/decode_grid.txt, which was generated before the
// loop went iteration-lazy. -short and race runs check every seventh
// config. -update-grid rewrites the file from the current code. The
// digests hold on amd64 only: other architectures may fuse
// floating-point multiply-adds, so simulated times can differ in the
// last bit there.
func TestDecodeGridDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("grid digests are pinned on amd64; %s may fuse floating-point multiply-adds", runtime.GOARCH)
	}
	grid := decodeGrid()
	step := 1
	if (testing.Short() || raceEnabled) && !*updateGrid {
		step = 7
	}
	traces := [2][]workload.Request{gridTrace(t, 11), gridTrace(t, 12)}
	idx := make([]int, 0, len(grid))
	for i := 0; i < len(grid); i += step {
		idx = append(idx, i)
	}
	type out struct {
		line string
		err  error
	}
	got := par.Map(len(idx), 0, func(k int) out {
		cfg := grid[idx[k]]
		reqs := traces[0]
		if cfg.traced {
			reqs = traces[1]
		}
		line, err := gridLine(cfg, reqs)
		return out{line, err}
	})
	for k, o := range got {
		if o.err != nil {
			t.Fatalf("%s: %v", grid[idx[k]].name, o.err)
		}
	}
	path := filepath.FromSlash(gridFile)
	if *updateGrid {
		var b strings.Builder
		b.WriteString("# decode grid digests: config, results sha256[:8], counters, trace sha256[:8] (amd64)\n")
		for _, o := range got {
			b.WriteString(o.line)
			b.WriteByte('\n')
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d lines to %s", len(got), path)
		return
	}
	want := readGridFile(t, path)
	if len(want) != len(grid) {
		t.Fatalf("%s has %d configs, the grid %d: regenerate it with -update-grid at a commit whose outputs are trusted", path, len(want), len(grid))
	}
	bad := 0
	for k, o := range got {
		if w := want[idx[k]]; o.line != w {
			bad++
			if bad <= 10 {
				t.Errorf("config %d differs:\n got  %s\n want %s", idx[k], o.line, w)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d configs differ from %s", bad, len(got), path)
	}
}

// readGridFile returns the digest file's lines, comments skipped.
func readGridFile(t *testing.T, path string) []string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := sc.Text(); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
