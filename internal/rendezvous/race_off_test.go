//go:build !race

package rendezvous

const raceEnabled = false
