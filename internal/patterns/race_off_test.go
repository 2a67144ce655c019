//go:build !race

package patterns

const raceEnabled = false
