//go:build race

package ett

// raceEnabled reports a -race build, where sync.Pool drops a random share
// of Puts and so allocation counts through the treap node pool are not
// exact.
const raceEnabled = true
