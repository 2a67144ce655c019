//go:build !race

package remote_test

const raceEnabled = false
