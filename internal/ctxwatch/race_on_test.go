//go:build race

package ctxwatch

// raceEnabled reports whether the race detector is active; it allocates on
// its own account, so exact allocation gates are skipped under it.
const raceEnabled = true
