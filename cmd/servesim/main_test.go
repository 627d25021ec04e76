package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
)

// runMainEnv, when set in a test binary's environment, makes TestMain
// run the command's main() with the binary's arguments instead of the
// tests: the pinned runs below execute exactly what the command does.
const runMainEnv = "SERVESIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// servesim runs the command in a child process and returns its stdout,
// failing the test on a non-zero exit.
func servesim(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("servesim %q: %v\nstderr: %s", args, err, errOut.String())
	}
	return out.Bytes()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestOutputDigests pins the SHA-256 of servesim's stdout for one run
// of every policy, the routed recovery, admission and counterfactual
// replay paths, and the sweep; and the bytes of four exported traces.
// Any change to a printed value or a recorded timeline fails here. The
// digests hold on amd64 only: other architectures may fuse
// floating-point multiply-adds, so simulated times can differ there in
// the last bit.
func TestOutputDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("servesim digests are pinned on amd64; %s may fuse floating-point multiply-adds", runtime.GOARCH)
	}
	severe := []string{"-policy", "routed", "-instances", "4", "-router", "breaker-aware", "-faults", "severe", "-n", "200", "-rate", "60"}
	stdout := []struct {
		name string
		args []string
		sha  string
	}{
		{"continuous", []string{"-policy", "continuous"},
			"b9e25c5686910f48fbb8776d2fd2aedcf34d0babe545d84dd3b4959f85a3f3c0"},
		{"chunked", []string{"-policy", "chunked", "-chunk", "128"},
			"bde29b12bb71aae5615da690385eecfbfd324457c3bfba9610fb72c8f432b455"},
		{"static", []string{"-policy", "static", "-batch", "16"},
			"8aa3ceb3824c9821f425506fbe01370aa6e0f9f8c4df1c68851607461b87a172"},
		{"disagg", []string{"-policy", "disagg", "-prefill", "2", "-decode", "2"},
			"4432ad9700e6d152b425c37e9a295b53155916876a7b4a3d5ccc172e9324a55f"},
		{"routed severe", severe,
			"110c15eefd70e5f295878a8a16a9030665ad6103a70417e6e035c6b489e96207"},
		{"multi-tenant queue", []string{"-policy", "routed", "-spec", "multi-tenant", "-n", "400", "-rate", "130", "-admission", "queue", "-sched", "priority"},
			"742d28c3cd432393541377147ce2b09cd2d0a9ef3412364eb02d1c66ce243a68"},
		{"recovery", []string{"-policy", "routed", "-faults", "severe", "-domains", "4", "-n", "300", "-rate", "70", "-slo-ttft", "1500", "-slo-tbt", "25", "-ckpt-every", "8", "-migrate"},
			"b4b79740312ae76723f0040d1156d54937d3278801c7a89ddaac7dd20e49a394"},
		{"counterfactual replay", []string{"-policy", "routed", "-instances", "4", "-router", "breaker-aware", "-faults", "severe", "-n", "160", "-rate", "60", "-decisions", "-counterfactual-k", "2", "-regret-top", "5", "-parallel", "2"},
			"099e602b0e43415e8f4424c017651848bbec01a2768a24f89362fb939c705d4e"},
		{"sweep", []string{"-sweep", "-n", "120"},
			"c2f722386a488601b100e1cae4e3411907526d2b074318baae6c3c2d4708da8b"},
	}
	for _, c := range stdout {
		if got := digest(servesim(t, c.args...)); got != c.sha {
			t.Errorf("%s: stdout sha256 %s; pinned %s", c.name, got, c.sha)
		}
	}

	dir := t.TempDir()
	traced := []struct {
		name      string
		args      []string
		stdoutSHA string
		bytes     int
		traceSHA  string
	}{
		{"routed severe with decisions", append(severe, "-decisions"),
			"110c15eefd70e5f295878a8a16a9030665ad6103a70417e6e035c6b489e96207",
			438517, "b82aaa451f396b37796940eee698c0c4c55d5478ae2e3bb7cd92c18bb1bb4726"},
		{"disagg", []string{"-policy", "disagg"},
			"4432ad9700e6d152b425c37e9a295b53155916876a7b4a3d5ccc172e9324a55f",
			835513, "2c126d676d37d4850fc4b508af43e1e2843049aa1e6d7114e43e13babc0e9b11"},
		{"multi-tenant queue", []string{"-policy", "routed", "-spec", "multi-tenant", "-n", "400", "-rate", "130", "-admission", "queue", "-sched", "priority"},
			"742d28c3cd432393541377147ce2b09cd2d0a9ef3412364eb02d1c66ce243a68",
			872959, "021b45780b0a6f1d3e80d85f0451a358a211c1aeb77b02675612c3d6d6dd7aa7"},
		{"recovery", []string{"-policy", "routed", "-faults", "severe", "-domains", "4", "-n", "300", "-rate", "70", "-slo-ttft", "1500", "-slo-tbt", "25", "-ckpt-every", "8", "-migrate"},
			"b4b79740312ae76723f0040d1156d54937d3278801c7a89ddaac7dd20e49a394",
			702884, "959c0f12f8130614a238dc45a0627b2b0226c7f08610e4ec3101ce7db4bef36f"},
	}
	for i, c := range traced {
		path := filepath.Join(dir, "trace"+strconv.Itoa(i)+".json")
		out := servesim(t, append(c.args, "-trace", path)...)
		if got := digest(out); got != c.stdoutSHA {
			t.Errorf("%s -trace: stdout sha256 %s; pinned %s", c.name, got, c.stdoutSHA)
		}
		trace, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(trace); len(trace) != c.bytes || got != c.traceSHA {
			t.Errorf("%s: trace is %d bytes, sha256 %s; pinned %d bytes, %s", c.name, len(trace), got, c.bytes, c.traceSHA)
		}
	}
}
