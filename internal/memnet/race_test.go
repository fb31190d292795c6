//go:build race

package memnet

// raceEnabled reports that the race detector is on: sync.Pool (the
// mbuf free lists) then drops a share of what is put back, so
// allocation counts are not deterministic and their gates skip.
const raceEnabled = true
