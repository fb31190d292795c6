//go:build race

package pfxunet_test

// raceEnabled reports that the race detector is on: Recv then scribbles
// over the frame it returned last before reusing its buffer.
const raceEnabled = true
