//go:build !race

package experiments

// raceEnabled is false outside `go test -race`; see race_on_test.go.
const raceEnabled = false
