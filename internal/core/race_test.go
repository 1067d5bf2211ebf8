//go:build race

package core

// raceEnabled reports a -race build, whose instrumentation changes the
// allocation counts TestAllocBudget and TestWorkVsHDT pin (a churn round makes 614
// allocations under -race against 540 without, on go1.24.0) and makes
// TestHeapBudget take 8 s.
const raceEnabled = true
