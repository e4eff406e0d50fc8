//go:build race

package registry

// raceEnabled reports that the race detector is on: it instruments every
// allocation, so heap sizes and allocation counts only hold without it.
const raceEnabled = true
