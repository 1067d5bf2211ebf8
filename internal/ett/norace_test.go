//go:build !race

package ett

const raceEnabled = false
