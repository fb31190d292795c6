//go:build !race

package signaling

const raceEnabled = false
