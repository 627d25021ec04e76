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
// run the example's main() instead of the tests: the pinned run below
// executes exactly what the example does.
const runMainEnv = "DATAAI_EXAMPLE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOutputDigest pins the SHA-256 of the example's stdout, so any
// change to a value it prints fails here. The digest holds on amd64
// only: other architectures may fuse floating-point multiply-adds.
func TestOutputDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("example digests are pinned on amd64; %s may fuse floating-point multiply-adds", runtime.GOARCH)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("example: %v\nstderr: %s", err, errOut.String())
	}
	const want = "245588715eb4c240212ac999f461e99a75d6d7d5622a4b53cbc25a1bf9d2f936"
	sum := sha256.Sum256(out.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("stdout sha256 %s, want %s; stdout:\n%s", got, want, out.Bytes())
	}
}
