//go:build !race

package mbuf

const raceEnabled = false
