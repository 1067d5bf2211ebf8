//go:build race

package core

// raceEnabled reports a -race build, whose instrumentation changes the
// allocation counts TestAllocBudget pins (a churn round makes 877
// allocations under -race against 792 without, on go1.24.0).
const raceEnabled = true
