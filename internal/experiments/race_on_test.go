//go:build race

package experiments

// raceEnabled reports whether the race detector is active, under which
// cmd/benchall's golden test leaves E16 out.
const raceEnabled = true
