package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dataai/internal/experiments"
)

// goldenIDs is the experiment set the golden test runs. Under the race
// detector the long E16 recall/cost sweep (a minute of brute-force
// scans before the ~10x race slowdown) is excluded; every other
// experiment stays in both modes.
func goldenIDs() []string {
	ids := experiments.IDs()
	if !raceEnabled {
		return ids
	}
	out := ids[:0]
	for _, id := range ids {
		if id != "E16" {
			out = append(out, id)
		}
	}
	return out
}

// goldenPath holds the serial stdout of every experiment, after a
// header that records the GOARCH it was generated on.
const goldenPath = "testdata/golden.txt"

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from a serial run of every experiment")

// goldenHeader is the comment block goldenPath starts with.
func goldenHeader(goarch string) string {
	return "# benchall golden: the serial stdout of every experiment.\n" +
		"# GOARCH=" + goarch + "\n" +
		"# Regenerate with: go test ./cmd/benchall -run TestParallelOutputMatchesSerial -update\n"
}

// readGolden returns the GOARCH goldenPath records and its output split
// into per-experiment sections: each runs from its "=== ID: title" line
// up to the next one, so the sections of a run's ids, concatenated in
// order, are that run's stdout.
func readGolden(t *testing.T) (goarch string, sections map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	body := strings.Index(text, "=== ")
	if body < 0 {
		t.Fatalf("%s has no experiment section", goldenPath)
	}
	for _, line := range strings.Split(text[:body], "\n") {
		if v, ok := strings.CutPrefix(line, "# GOARCH="); ok {
			goarch = v
		}
	}
	sections = make(map[string]string)
	for rest := text[body:]; rest != ""; {
		end := strings.Index(rest[1:], "\n=== ") + 2
		if end == 1 {
			end = len(rest)
		}
		id, _, _ := strings.Cut(strings.TrimPrefix(rest, "=== "), ":")
		sections[id] = rest[:end]
		rest = rest[end:]
	}
	return goarch, sections
}

// TestParallelOutputMatchesSerial is the golden determinism gate for
// benchall: running every experiment at -parallel 8 must print exactly
// the committed serial output (goldenPath), with nothing on stderr.
// Experiments fan out internally too (vecdb sharded scans, embed
// batches), so this pins the whole stack's determinism contract, and
// any change to a printed value fails it. Under the race detector the
// E16 section is left out with the experiment (see goldenIDs).
//
// With -update it first rewrites goldenPath from a serial run, so the
// parallel run is then compared against serial output from the same
// tree. A regenerated golden is reviewed in its diff.
func TestParallelOutputMatchesSerial(t *testing.T) {
	if *update {
		if raceEnabled {
			t.Fatal("-update writes every experiment's section; run it without -race")
		}
		var out, errOut bytes.Buffer
		if code := runAll(experiments.IDs(), 1, &out, &errOut, "", ""); code != 0 {
			t.Fatalf("serial run: exit code %d, stderr %q", code, errOut.String())
		}
		if err := os.WriteFile(goldenPath, []byte(goldenHeader(runtime.GOARCH)+out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	goarch, sections := readGolden(t)
	// Other architectures may fuse floating-point multiply-adds, so
	// printed floats can legitimately differ there in the last digit.
	if runtime.GOARCH != "amd64" || goarch != runtime.GOARCH {
		t.Skipf("the golden output is compared on amd64 only; it was generated on %s and this is %s, which may fuse floating-point multiply-adds", goarch, runtime.GOARCH)
	}
	if len(sections) != len(experiments.IDs()) {
		t.Errorf("%s has %d sections for %d experiments", goldenPath, len(sections), len(experiments.IDs()))
	}
	ids := goldenIDs()
	var want strings.Builder
	for _, id := range ids {
		s, ok := sections[id]
		if !ok {
			t.Fatalf("%s has no %s section", goldenPath, id)
		}
		want.WriteString(s)
	}
	var out, errOut bytes.Buffer
	if code := runAll(ids, 8, &out, &errOut, "", ""); code != 0 || errOut.Len() != 0 {
		t.Errorf("exit code %d, stderr %q", code, errOut.String())
	}
	if out.String() != want.String() {
		t.Fatalf("-parallel 8 output differs from %s:\n%s", goldenPath, firstDiff(want.String(), out.String()))
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length mismatch: golden %d lines, got %d lines", len(wl), len(gl))
}

// TestRunAllValidatesFailure: a failing experiment id inside runAll
// (reachable only if validation were bypassed) reports exit code 1 and
// writes its error to stderr without disturbing other sections.
func TestRunAllUnknownIDFails(t *testing.T) {
	var out, errOut bytes.Buffer
	code := runAll([]string{"E1", "EX"}, 2, &out, &errOut, "", "")
	if code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "EX failed:") {
		t.Errorf("stderr %q lacks EX failure", errOut.String())
	}
	if !strings.HasPrefix(out.String(), "=== E1: ") {
		t.Errorf("stdout %q lacks E1 section", out.String())
	}
	if !strings.Contains(out.String(), "=== EX: \n") {
		t.Errorf("stdout %q lacks EX header", out.String())
	}
}

// TestJSONAndTraceSinks runs the three traced experiments with both
// sinks and checks the files: the JSON mirrors the rendered table cells,
// and each trace is valid JSON (Perfetto-loadable Chrome events) whose
// bytes match the pinned length and SHA-256.
func TestJSONAndTraceSinks(t *testing.T) {
	if testing.Short() {
		t.Skip("E23-E25 run in -short mode")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "results.json")
	traceDir := filepath.Join(dir, "traces")
	ids := []string{"E23", "E24", "E25"}
	var out, errOut bytes.Buffer
	if code := runAll(ids, 1, &out, &errOut, jsonPath, traceDir); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var results []jsonResult
	if err := json.Unmarshal(raw, &results); err != nil {
		t.Fatalf("results.json invalid: %v", err)
	}
	if len(results) != len(ids) {
		t.Fatalf("results = %+v", results)
	}
	for i, r := range results {
		if r.ID != ids[i] || r.Failed {
			t.Fatalf("result %d = %+v", i, r)
		}
		if len(r.Tables) != 2 {
			t.Fatalf("%s tables = %d, want main + breakdown", r.ID, len(r.Tables))
		}
		// Every JSON cell appears verbatim in the text rendering.
		for _, cell := range r.Tables[0].Rows[0] {
			if !strings.Contains(out.String(), cell) {
				t.Errorf("%s: JSON cell %q missing from text output", r.ID, cell)
			}
		}
	}

	traces := map[string][]byte{}
	for _, id := range ids {
		traceRaw, err := os.ReadFile(filepath.Join(traceDir, id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []map[string]interface{} `json:"traceEvents"`
		}
		if err := json.Unmarshal(traceRaw, &trace); err != nil {
			t.Fatalf("%s trace invalid JSON: %v", id, err)
		}
		if len(trace.TraceEvents) == 0 {
			t.Fatalf("%s trace has no events", id)
		}
		traces[id] = traceRaw
	}

	// Digests of the traces as the historical sort-then-render exporter
	// wrote them. Other architectures may fuse floating-point
	// multiply-adds, so simulated times can differ there in the last bit.
	if runtime.GOARCH != "amd64" {
		t.Skipf("trace digests are pinned on amd64; %s may fuse floating-point multiply-adds", runtime.GOARCH)
	}
	pinned := map[string]struct {
		bytes int
		sha   string
	}{
		"E23": {1252118, "d0831dfc41784c660d7171b4712b2dbfb01f147e0d8cc379db47acf08874c73a"},
		"E24": {2640642, "7cdd8c8e2f67c9160c5c6efc9c03a9dfe91143836e017a1a5cd1408987238315"},
		"E25": {957321, "1639ab05daa10dafc959c7dcddcac9ee0e818ca9d034c17deec52431b78a1c6b"},
	}
	for _, id := range ids {
		sum := sha256.Sum256(traces[id])
		want := pinned[id]
		if got := hex.EncodeToString(sum[:]); len(traces[id]) != want.bytes || got != want.sha {
			t.Errorf("%s trace is %d bytes, sha256 %s; pinned %d bytes, %s", id, len(traces[id]), got, want.bytes, want.sha)
		}
	}
}
