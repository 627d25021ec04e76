package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"runtime"
	"testing"
)

// runMainEnv, when set in a test binary's environment, makes TestMain
// run the command's main() with the binary's arguments instead of the
// tests: the pinned runs below execute exactly what the command does.
const runMainEnv = "DATAAI_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOutputDigests pins the SHA-256 of dataai's stdout for the
// preparation report, a 40-question RAG score and one answered
// question, so any change to a value it prints fails here. The digests
// hold on amd64 only: other architectures may fuse floating-point
// multiply-adds.
func TestOutputDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("dataai digests are pinned on amd64; %s may fuse floating-point multiply-adds", runtime.GOARCH)
	}
	for _, tc := range []struct {
		name string
		args []string
		sha  string
	}{
		{"prep", []string{"-prep"},
			"ef5f3681d0e836fc1feb005ed004279e97791f9e673bac08f32a0a7027181078"},
		{"qa", []string{"-qa", "40"},
			"09ad87784da33f4a38d2abbc927574dec9d72ffec12933c5300a44f1d3a3816e"},
		{"ask", []string{"-ask", "What is the ceo of Zorvexdra Fi?"},
			"5e72480fabde952f44eaf2fffedaddaf3a0d71623f3cd3092c517fdbced78845"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var out, errOut bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errOut
		if err := cmd.Run(); err != nil {
			t.Fatalf("dataai %q: %v\nstderr: %s", tc.args, err, errOut.String())
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("%s: stdout sha256 %s, want %s; stdout:\n%s", tc.name, got, tc.sha, out.Bytes())
		}
	}
}
