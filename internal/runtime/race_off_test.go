//go:build !race

package runtime

const raceEnabled = false
