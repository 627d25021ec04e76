package experiments

import (
	"runtime"
	"testing"
)

// TestAllExperimentsRun checks that exactly the 26 experiments are
// registered, each with a title, and runs each experiment that
// cmd/benchall's TestParallelOutputMatchesSerial leaves out of this
// build, requiring non-empty tables: E16 under the race detector, and
// every experiment off amd64, where the golden output is not compared.
// Elsewhere the golden diff runs the experiment and fails on an error or
// a missing table, so tier-1 runs each experiment once. Individual
// claims are verified by the owning packages' tests.
func TestAllExperimentsRun(t *testing.T) {
	ids := IDs()
	if len(ids) != 26 {
		t.Fatalf("registered experiments = %d, want 26: %v", len(ids), ids)
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			if Title(id) == "" {
				t.Error("missing title")
			}
			if runtime.GOARCH == "amd64" && !(raceEnabled && id == "E16") {
				return // cmd/benchall diffs its output against the golden
			}
			out, err := Run(id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(out.Tables) == 0 {
				t.Fatalf("%s produced no table", id)
			}
			for _, tbl := range out.Tables {
				if tbl.String() == "" {
					t.Fatalf("%s produced an empty table", id)
				}
				t.Logf("\n%s", tbl.String())
			}
		})
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("E999"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestIDsOrdered(t *testing.T) {
	ids := IDs()
	for i := 1; i < len(ids); i++ {
		if expNum(ids[i-1]) >= expNum(ids[i]) {
			t.Fatalf("ids not ordered: %v", ids)
		}
	}
}
