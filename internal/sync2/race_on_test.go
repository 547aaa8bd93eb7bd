//go:build race

package sync2

// raceEnabled mirrors testenv.RaceEnabled, which this package cannot
// import: testenv reaches sync2 through wire.
const raceEnabled = true
