//go:build !race

package ctxwatch

const raceEnabled = false
