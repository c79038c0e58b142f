//go:build race

package experiments

// raceEnabled reports whether the race detector is compiled in; the
// minute-scale figure runs skip themselves under it.
const raceEnabled = true
