//go:build race

package signaling

// raceEnabled reports that the race detector is on: sync.Pool then
// drops a share of what is put back, so allocation counts are not
// deterministic and their gates skip.
const raceEnabled = true
