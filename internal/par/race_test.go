//go:build race

package par

// raceEnabled gates allocation-regression tests: the race detector's
// instrumentation allocates, so allocation-bound assertions only hold
// without it.
const raceEnabled = true
