//go:build !race

package sync2

// raceEnabled mirrors testenv.RaceEnabled; see race_on_test.go.
const raceEnabled = false
