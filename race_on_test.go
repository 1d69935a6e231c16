//go:build race

package rcgo

// raceEnabled reports a build with the race detector, under which
// allocation counts are not the production ones.
const raceEnabled = true
