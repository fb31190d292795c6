//go:build race

package mbuf

// raceEnabled reports that the race detector is on: Release then
// poisons chain headers instead of recycling them.
const raceEnabled = true
