//go:build !race

package sim

// raceEnabled arms FreeList's check against a record listed twice.
const raceEnabled = false
