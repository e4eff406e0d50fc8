//go:build race

package federation

// raceEnabled reports that the race detector is on: it instruments every
// allocation, so allocation counts only hold without it.
const raceEnabled = true
