//go:build !race

package signaling_test

const raceEnabled = false
