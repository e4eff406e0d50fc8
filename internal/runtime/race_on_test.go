//go:build race

package runtime

// raceEnabled reports that the race detector is on: it randomly drops
// sync.Pool items and instruments allocation, so exact allocation counts
// only hold without it.
const raceEnabled = true
