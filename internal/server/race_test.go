//go:build race

package server

// raceEnabled reports a -race build, whose instrumentation changes the
// allocation counts TestRoundTripAllocBudget pins.
const raceEnabled = true
