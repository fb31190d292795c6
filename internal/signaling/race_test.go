//go:build race

package signaling

// raceEnabled reports that the race detector is on: released mbuf
// chain headers are then poisoned instead of recycled, so allocation
// counts differ from a normal build's and their gates skip.
const raceEnabled = true
