//go:build race

package core

// raceEnabled reports a -race build, where sync.Pool drops a random share
// of Puts and so allocation counts are not exact.
const raceEnabled = true
